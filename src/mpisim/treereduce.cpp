#include "treereduce.hpp"

#include "../engine/parallel_processor.hpp"
#include "../io/calireader.hpp"
#include "../obs/metrics.hpp"
#include "../runtime/clock.hpp"

#include <mutex>

namespace calib::simmpi {

namespace {

obs::Counter reduce_merges("reduce.merges");
obs::Counter reduce_bytes("reduce.bytes");

constexpr int tag_partial = 0x00ca11b;

double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// One rank's local stage input: the file's batches into \a proc.
void read_local(const std::string& file, QueryProcessor& proc) {
    CaliReader::read_file_batches(file, *proc.registry(),
                                  engine::default_batch_size(),
                                  [&proc](RecordBatch& b) { proc.add_batch(b); });
}
} // namespace

QueryTimes parallel_query(const QuerySpec& spec, const std::vector<std::string>& files,
                          int nprocs, std::vector<RecordMap>* result, int threads) {
    QueryTimes times;
    times.nprocs = nprocs;
    std::mutex result_mutex;

    run(nprocs, [&](Comm& comm) {
        const int rank = comm.rank();
        const int size = comm.size();

        const std::uint64_t t_start = now_ns();

        // local stage: this rank's share of the input files goes through
        // the intra-process engine (one worker runs the same morsel plan as
        // any other thread count)
        std::vector<std::string> my_files;
        for (std::size_t i = rank; i < files.size();
             i += static_cast<std::size_t>(size))
            my_files.push_back(files[i]);

        engine::EngineOptions eopts;
        eopts.threads = threads > 0 ? static_cast<std::size_t>(threads) : 1;
        engine::ParallelQueryProcessor local(spec, eopts);
        QueryProcessor& proc = local.run(my_files);

        const double local_s = seconds_since(t_start);
        comm.barrier(); // separate the local and reduction phases cleanly

        // binomial-tree reduction of serialized partial aggregation state
        const std::uint64_t t_reduce = now_ns();
        binomial_reduce(
            comm, 0, tag_partial, [&proc] { return proc.serialize_partial(); },
            [&proc](std::span<const std::byte> payload) {
                reduce_merges.add();
                reduce_bytes.add(payload.size());
                proc.merge_serialized(payload);
            });
        const double reduce_s = seconds_since(t_reduce);

        const std::uint64_t in_total =
            comm.allreduce(proc.num_records_in(), Comm::ReduceOp::Sum);
        const std::uint64_t bytes_total =
            comm.allreduce(comm.bytes_sent(), Comm::ReduceOp::Sum);

        if (rank == 0) {
            std::lock_guard<std::mutex> lock(result_mutex);
            times.local_s        = local_s;
            times.reduce_s       = reduce_s;
            times.input_records  = in_total;
            times.bytes_reduced  = bytes_total;
            times.output_records = proc.result().size();
            times.total_s        = seconds_since(t_start);
            if (result)
                *result = proc.result();
        }
    });

    return times;
}

QueryTimes modeled_query(const QuerySpec& spec, const std::string& representative_file,
                         int nprocs, const NetModel& net, int files_per_rank,
                         std::vector<RecordMap>* result, int fanout) {
    if (fanout < 2)
        fanout = 2;
    QueryTimes times;
    times.nprocs = nprocs;

    // local stage, executed and timed for real (batch pipeline: names
    // resolve once per attribute definition, not per record)
    const std::uint64_t t_local = now_ns();
    QueryProcessor local(spec);
    for (int i = 0; i < files_per_rank; ++i)
        read_local(representative_file, local);
    times.local_s       = seconds_since(t_local);
    times.input_records = local.num_records_in() * static_cast<std::uint64_t>(nprocs);

    // Weak scaling: every rank holds (statistically) the same partial
    // result, so the root's critical path is, per tree level, the merge of
    // (fanout - 1) equal sibling subtrees — received concurrently but
    // merged sequentially; subtree size multiplies by `fanout` per level.
    // Execute each level's serialize + merges on real databases and add
    // modeled network hops.
    QueryProcessor subtree(spec);
    subtree.merge_serialized(local.serialize_partial());

    double reduce_s = 0.0;
    for (long covered = 1; covered < nprocs; covered *= fanout) {
        const std::uint64_t t_level = now_ns();
        std::vector<std::byte> buf  = subtree.serialize_partial();
        const double serialize_s    = seconds_since(t_level);

        const std::uint64_t t_merge = now_ns();
        for (int sibling = 1; sibling < fanout; ++sibling)
            subtree.merge_serialized(buf);
        const double merge_s = seconds_since(t_merge);

        // siblings arrive in parallel: one network hop per level
        reduce_s += serialize_s + merge_s + net.time_us(buf.size()) * 1e-6;
        times.bytes_reduced += buf.size() * static_cast<std::uint64_t>(fanout - 1);
    }
    times.reduce_s       = reduce_s;
    times.total_s        = times.local_s + times.reduce_s;
    times.output_records = subtree.result().size();
    if (result)
        *result = subtree.result();
    return times;
}

} // namespace calib::simmpi
