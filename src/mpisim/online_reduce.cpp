#include "online_reduce.hpp"

#include "../runtime/caliper.hpp"
#include "../runtime/services/aggregate_config.hpp"

namespace calib::simmpi {

namespace {
constexpr int tag_online_reduce = 0x0ca11b1;
} // namespace

std::vector<RecordMap> reduce_channel(Comm& comm, Channel* channel, int root) {
    Caliper& c = Caliper::instance();

    // accumulate into a fresh database (never mutate the service's own
    // state: the rank may still flush it through the recorder afterwards)
    const AggregationConfig cfg = read_aggregate_config(channel->config());
    AggregationDB accumulator(cfg, &c.registry());

    ThreadData& td = c.thread_data();
    if (channel->id() < td.channels.size() &&
        td.channels[channel->id()].aggregation)
        accumulator.merge(*td.channels[channel->id()].aggregation);

    binomial_reduce(
        comm, root, tag_online_reduce, [&accumulator] { return accumulator.serialize(); },
        [&accumulator](std::span<const std::byte> payload) {
            accumulator.merge_serialized(payload);
        });

    std::vector<RecordMap> out;
    if (comm.rank() == root)
        out = accumulator.flush();
    return out;
}

} // namespace calib::simmpi
