// On-line event aggregation service (paper §IV-B, Figure 2).
//
// Maintains one AggregationDB per monitored thread (no locks on the
// snapshot path). The aggregation scheme is read from the channel's
// runtime-config profile:
//
//   aggregate.query   full CalQL text ("AGGREGATE ... GROUP BY ... WHERE ...")
//   aggregate.ops     operator list, e.g. "count,sum(time.duration)"
//   aggregate.key     comma list of key attributes, or "*"
//   aggregate.prealloc  preallocated entries per thread DB (default 1024)
//
// At flush, each thread's database is emitted as one output record per
// unique aggregation key.
#include "aggregate_config.hpp"

#include "../caliper.hpp"
#include "../channel.hpp"

#include "../../common/log.hpp"
#include "../../query/calql.hpp"

#include <algorithm>
#include <memory>
#include <span>

namespace calib {

AggregationConfig read_aggregate_config(const RuntimeConfig& config,
                                        std::vector<FilterSpec>* filters,
                                        std::size_t* prealloc) {
    AggregationConfig aggregation;

    if (auto query = config.find("aggregate.query")) {
        try {
            QuerySpec spec = parse_calql(*query);
            aggregation    = spec.aggregation;
            if (filters)
                *filters = spec.filters;
        } catch (const CalQLError& e) {
            log_error() << "aggregate.query parse error: " << e.what();
        }
    } else {
        aggregation = AggregationConfig::parse(
            config.get("aggregate.ops", "count,sum(time.duration)"),
            config.get("aggregate.key", "*"));
    }
    if (aggregation.ops.empty())
        aggregation.ops.push_back(AggOpConfig{AggOp::Count, "", ""});

    if (prealloc)
        *prealloc =
            static_cast<std::size_t>(config.get_int("aggregate.prealloc", 1024));
    return aggregation;
}

std::size_t flush_cross_thread(Caliper& c, Channel* channel,
                               const std::function<void(RecordMap&&)>& sink) {
    if (!channel)
        return 0;
    AggregationDB merged(read_aggregate_config(channel->config()), &c.registry());
    for (ThreadData* td : c.threads()) {
        if (channel->id() >= td->channels.size())
            continue;
        if (const AggregationDB* db = td->channels[channel->id()].aggregation.get())
            merged.merge(*db);
    }
    merged.flush(sink);
    return merged.size();
}

namespace {

struct AggregateServiceConfig {
    AggregationConfig aggregation;
    std::vector<FilterSpec> filters;
    std::size_t prealloc = 1024;
};

std::shared_ptr<AggregateServiceConfig> read_config(const RuntimeConfig& config) {
    auto out         = std::make_shared<AggregateServiceConfig>();
    out->aggregation = read_aggregate_config(config, &out->filters, &out->prealloc);
    return out;
}

// The context memo. A snapshot record is a blackboard capture from
// capture_begin() on (the innermost values in ascending attribute id),
// after trigger and service entries, and the capture's nested values are
// fixed by its context node. So when no entry before the capture is a key
// attribute, a node that folded into a group before folds into it again
// as long as the key's as_value part is unchanged.

/// Empty \a memo when the DB's key resolution or the thread's tree moved
/// since it was filled (looks attributes up: outside signal context).
void refresh_memo(Caliper& c, const AggregationDB& db, const Blackboard& bb,
                  AggregationMemo& memo) {
    if (memo.key_epoch == db.key_epoch() && memo.tree_epoch == bb.epoch())
        return;
    std::fill(memo.groups.begin(), memo.groups.end(), 0u);
    if (memo.key_epoch != db.key_epoch()) {
        memo.value_positions.clear();
        const std::span<const id_t> ids = db.key_ids();
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] != invalid_id && c.registry().get(ids[i]).is_value())
                memo.value_positions.push_back(static_cast<std::uint32_t>(i));
    }
    memo.key_epoch  = db.key_epoch();
    memo.tree_epoch = bb.epoch();
}

/// True when \a rec's key follows from its context node: the memo is
/// current and covers the node, the record lost no entries, the DB has no
/// memory budget (a spill moves groups), and no trigger or service entry
/// is a key attribute.
bool memoizable(const AggregationDB& db, const AggregationMemo& memo,
                const Blackboard& bb, const SnapshotRecord& rec) {
    if (memo.key_epoch != db.key_epoch() || memo.tree_epoch != bb.epoch() ||
        rec.context_node() >= memo.groups.size() || rec.dropped() != 0 ||
        db.memory_budget() != 0)
        return false;
    for (std::size_t i = 0; i < rec.capture_begin(); ++i)
        if (db.in_key(rec[i].attribute))
            return false;
    return true;
}

/// True when \a group's key is \a rec's, given that \a rec is memoizable
/// and its node last folded into \a group. A key list compares its
/// as_value positions; for `*`, the key is the capture's key attributes in
/// capture order, compared whole (which also catches an immediate that
/// ended or appeared).
bool group_matches(const AggregationDB& db, const AggregationMemo& memo,
                   std::size_t group, const SnapshotRecord& rec) {
    const std::span<const Entry> key = db.group_key(group);
    if (db.config().key.all) {
        std::size_t k = 0;
        for (std::size_t i = rec.capture_begin(); i < rec.size(); ++i) {
            if (!db.in_key(rec[i].attribute))
                continue;
            if (k == key.size() || !(key[k] == rec[i]))
                return false;
            ++k;
        }
        return k == key.size();
    }
    const std::span<const id_t> ids = db.key_ids();
    for (const std::uint32_t pos : memo.value_positions) {
        const Entry* e = rec.find(ids[pos]);
        if (e && !e->value.empty() ? !(key[pos] == *e)
                                   : key[pos].attribute != invalid_id)
            return false;
    }
    return true;
}

} // namespace

void register_aggregate_service();

void register_aggregate_service() {
    ServiceRegistry::instance().add(
        "aggregate", /*priority=*/30, [](Caliper&, Channel& channel) {
            auto cfg = read_config(channel.config());

            auto ensure_state = [cfg](Caliper& c, Channel& ch,
                                      ThreadData& td) -> ThreadChannelState& {
                ThreadChannelState& state = td.channel_state(ch.id());
                if (!state.aggregation) {
                    state.aggregation = std::make_unique<AggregationDB>(
                        cfg->aggregation, &c.registry());
                    state.aggregation->reserve(cfg->prealloc);
                    if (!cfg->filters.empty())
                        state.aggregation_filter = std::make_unique<SnapshotFilter>(
                            cfg->filters, &c.registry());
                }
                state.aggregation->resolve();
                return state;
            };

            // On every blackboard update: create the per-thread state,
            // resolve new attributes, and size the context memo to the
            // tree's capacity, so the asynchronous sampler's signal
            // handler never allocates, locks or creates state (paper §IV-B:
            // async-signal safety).
            auto update_cb = [ensure_state](Caliper& c, Channel& ch, ThreadData& td,
                                            const Attribute&, const Variant&) {
                std::vector<std::uint32_t>& groups =
                    ensure_state(c, ch, td).aggregation_memo.groups;
                if (groups.size() < td.blackboard.node_capacity())
                    groups.resize(td.blackboard.node_capacity(), 0);
            };
            channel.pre_begin_cbs.push_back(update_cb);
            channel.pre_end_cbs.push_back(update_cb);
            channel.pre_set_cbs.push_back(update_cb);

            // A snapshot of a context seen before folds into the group its
            // node maps to once group_matches() holds; the memo is not
            // invalidated by update callbacks, whose order relative to
            // snapshot triggers is up to the services.
            channel.process_cbs.push_back(
                [ensure_state](Caliper& c, Channel& ch, ThreadData& td,
                               ThreadChannelState& state, const SnapshotRecord& rec) {
                    if (td.in_signal) {
                        if (!state.aggregation) {
                            ++td.dropped_samples;
                            return;
                        }
                    } else {
                        ensure_state(c, ch, td);
                    }
                    if (state.aggregation_filter &&
                        !state.aggregation_filter->matches(rec))
                        return;
                    AggregationDB& db     = *state.aggregation;
                    AggregationMemo& memo = state.aggregation_memo;
                    if (!td.in_signal)
                        refresh_memo(c, db, td.blackboard, memo);
                    const std::span<const Entry> entries(rec.begin(), rec.size());
                    const bool memo_ok = memoizable(db, memo, td.blackboard, rec);
                    if (memo_ok) {
                        const std::uint32_t g = memo.groups[rec.context_node()];
                        if (g != 0 && group_matches(db, memo, g - 1, rec)) {
                            db.update_group(g - 1, entries);
                            return;
                        }
                    }
                    // resolved in ensure_state() or by the updates that put
                    // the attributes on the blackboard: fold() never locks
                    const std::size_t group = db.fold(entries);
                    if (memo_ok && !td.in_signal) // the handler only reads the memo
                        memo.groups[rec.context_node()] =
                            group < UINT32_MAX ? static_cast<std::uint32_t>(group + 1) : 0;
                });

            channel.flush_cbs.push_back(
                [](Caliper&, Channel&, ThreadData&, ThreadChannelState& state,
                   const Channel::FlushFn& sink) {
                    if (state.aggregation)
                        state.aggregation->flush(
                            [&sink](RecordMap&& r) { sink(std::move(r)); });
                });
        });
}

} // namespace calib
