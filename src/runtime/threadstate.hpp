// Per-thread runtime state: the blackboard (paper §IV-A, a context tree
// plus immediates, see blackboard.hpp) and the per-thread, per-channel
// service state (aggregation DB and its context memo, trace buffer, timer
// stacks — paper §IV-B: "We maintain a separate aggregation database for
// each monitored thread ... this design avoids the use of thread locks").
#pragma once

#include "blackboard.hpp"

#include "../aggregate/aggregation_db.hpp"
#include "../query/filter.hpp"
#include "../common/snapshot.hpp"
#include "../common/types.hpp"
#include "../common/variant.hpp"

#include <csignal>
#include <cstdint>
#include <memory>
#include <pthread.h>
#include <string>
#include <vector>

namespace calib {

/// Compact storage for trace-mode snapshot copies: a shared entry arena
/// plus (offset, length) index per snapshot. Reserve() makes appends
/// allocation-free up to the reserved capacity (needed in signal context).
class TraceBuffer {
public:
    void reserve(std::size_t snapshots, std::size_t avg_entries = 8) {
        index_.reserve(snapshots);
        arena_.reserve(snapshots * avg_entries);
    }

    /// Append a snapshot; drops (and counts) once reserved capacity would
    /// be exceeded in signal-unsafe ways only if allocation fails — the
    /// vector grows normally outside signal context.
    void append(const SnapshotRecord& rec) {
        const std::uint32_t offset = static_cast<std::uint32_t>(arena_.size());
        for (const Entry& e : rec)
            arena_.push_back(e);
        index_.emplace_back(offset, static_cast<std::uint32_t>(rec.size()));
    }

    std::size_t size() const noexcept { return index_.size(); }

    /// Visit snapshot \a i as an entry span.
    std::pair<const Entry*, std::size_t> get(std::size_t i) const noexcept {
        return {arena_.data() + index_[i].first, index_[i].second};
    }

    std::size_t bytes() const noexcept {
        return arena_.capacity() * sizeof(Entry) +
               index_.capacity() * sizeof(index_[0]);
    }

    void clear() {
        arena_.clear();
        index_.clear();
    }

private:
    std::vector<Entry> arena_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> index_;
};

struct TimerState {
    std::uint64_t last_snapshot_ns = 0;
    std::uint64_t first_snapshot_ns = 0;
    std::uint64_t pending_inclusive_ns = 0; ///< set by pre_end, consumed at snapshot
    bool has_pending_inclusive = false;
    std::vector<std::uint64_t> begin_stack; ///< begin timestamps of nested regions
};

/// The aggregate service's context memo (services/aggregate.cpp): which
/// group of the thread's AggregationDB a context-tree node's snapshots
/// fold into. Valid while both epochs match the DB's key_epoch() and the
/// blackboard's epoch(); sized and refilled outside signal context, only
/// read in it.
struct AggregationMemo {
    std::vector<std::uint32_t> groups; ///< node -> group index + 1 (0: none)
    /// Key-list positions of as_value key attributes: the part of the key
    /// a node does not fix, checked on every hit.
    std::vector<std::uint32_t> value_positions;
    std::uint64_t key_epoch  = ~0ull;
    std::uint64_t tree_epoch = ~0ull;
};

/// Per-(thread, channel) service state.
struct ThreadChannelState {
    std::unique_ptr<AggregationDB> aggregation;
    std::unique_ptr<SnapshotFilter> aggregation_filter;
    AggregationMemo aggregation_memo;
    std::unique_ptr<TraceBuffer> trace;
    TimerState timer;
    std::uint64_t sampler_last_ns = 0;
    std::uint64_t last_tsc        = 0; ///< cycles service
    std::uint64_t num_snapshots   = 0;
    bool flushed                  = false;
};

/// Everything the runtime keeps per thread.
struct ThreadData {
    /// Blackboard: the context tree and the immediates.
    Blackboard blackboard;

    /// Per-channel service state, indexed by channel id.
    std::vector<ThreadChannelState> channels;

    /// Non-zero while the thread mutates runtime structures; the sampling
    /// signal handler drops the sample when set (same-thread flag, hence
    /// sig_atomic_t is sufficient).
    volatile sig_atomic_t in_update = 0;

    /// Non-zero while the sampling signal handler processes a snapshot on
    /// this thread: services then must not lock, allocate or create state.
    volatile sig_atomic_t in_signal = 0;

    /// Samples dropped because they interrupted an update or found no
    /// service state to fold into.
    std::uint64_t dropped_samples = 0;

    /// Label used to substitute %r in recorder filenames (set from the
    /// simmpi rank, or the thread registration index by default).
    std::string label;

    pthread_t os_thread{};
    int index = -1; ///< registration index in the runtime's thread list

    /// Cached active-channel list (avoids shared_ptr atomics on the
    /// instrumentation hot path); refreshed when the epoch changes.
    std::vector<class Channel*> cached_channels;
    std::uint64_t cached_channel_epoch = ~0ull;

    ThreadChannelState& channel_state(std::size_t channel_id) {
        if (channel_id >= channels.size())
            channels.resize(channel_id + 1);
        return channels[channel_id];
    }
};

} // namespace calib
