// The Caliper runtime core (paper §IV-A).
//
// Caliper maintains the attribute dictionary, the per-thread blackboards
// (a context tree of nested values plus as_value immediates, see
// blackboard.hpp), and the active measurement channels. Instrumentation updates
// attributes on the blackboard (begin/end/set); at any time a *snapshot*
// captures the current blackboard contents plus measurement values into a
// SnapshotRecord, which is handed to the processing services (aggregation
// or tracing) of each active channel.
//
// Thread model: all snapshot processing happens on the thread that
// triggered the snapshot; per-thread service state avoids locking on the
// hot path. Cross-thread and cross-process aggregation is a
// post-processing step (paper §IV-B).
#pragma once

#include "channel.hpp"
#include "config.hpp"
#include "threadstate.hpp"

#include "../common/attribute.hpp"
#include "../common/snapshot.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace calib {

class Caliper {
public:
    /// Process-global runtime instance.
    static Caliper& instance();

    Caliper(const Caliper&)            = delete;
    Caliper& operator=(const Caliper&) = delete;

    // -- attributes ----------------------------------------------------------
    AttributeRegistry& registry() noexcept { return registry_; }

    Attribute create_attribute(std::string_view name, Variant::Type type,
                               std::uint32_t properties = prop::nested) {
        return registry_.create(name, type, properties);
    }
    Attribute find_attribute(std::string_view name) const {
        return registry_.find(name);
    }

    // -- channels ------------------------------------------------------------
    /// Create a channel and instantiate the services its profile enables.
    Channel* create_channel(const std::string& name, const RuntimeConfig& config);

    /// Flush-and-finish a channel: runs finish callbacks and deactivates it.
    void close_channel(Channel* channel);

    Channel* find_channel(const std::string& name);

    /// Snapshot of active channels (safe to iterate without locks).
    std::shared_ptr<const std::vector<Channel*>> active_channels() const;

    // -- blackboard updates (the instrumentation hot path) --------------------
    void begin(const Attribute& attr, const Variant& value);
    void end(const Attribute& attr);
    void set(const Attribute& attr, const Variant& value);

    /// Innermost value of \a attr on this thread's blackboard.
    Variant current(const Attribute& attr);

    /// Current nesting depth of \a attr on this thread's blackboard.
    std::size_t depth(const Attribute& attr);

    // -- snapshots -------------------------------------------------------------
    /// Trigger a snapshot on \a channel (or all active channels when null).
    /// \a trigger entries are prepended to the record.
    void push_snapshot(Channel* channel = nullptr,
                       const SnapshotRecord* trigger = nullptr);

    /// Build (but do not process) a snapshot of the calling thread's
    /// blackboard; used by tests and by services needing raw captures.
    void pull_snapshot(SnapshotRecord& out);

    /// Signal-context snapshot entry point used by the sampling service:
    /// no allocation guarantees beyond preallocated service buffers, and
    /// drops the sample when the thread is mid-update.
    void push_snapshot_from_signal(ThreadData& td);

    // -- flushing --------------------------------------------------------------
    /// Flush the calling thread's buffered data on \a channel into \a sink.
    void flush_thread(Channel* channel, const Channel::FlushFn& sink);

    /// Flush the calling thread's data into the channel's flush sinks
    /// (e.g. the recorder service writing a per-process file).
    void flush_thread(Channel* channel);

    /// Flush *all* registered threads into \a sink. Only safe when the
    /// monitored threads are quiescent (e.g. after joining them).
    void flush_all(Channel* channel, const Channel::FlushFn& sink);

    /// Drop every thread's buffered service state (aggregation DBs, trace
    /// buffers) for \a channel. Only safe when the monitored threads are
    /// quiescent; used by benchmarks that run many configurations in one
    /// process.
    void release_thread_states(Channel* channel);

    // -- thread management -------------------------------------------------------
    ThreadData& thread_data();

    /// Thread data if this thread is already registered; never allocates
    /// (safe to call from the sampling signal handler).
    ThreadData* maybe_thread_data() noexcept;

    /// Set the calling thread's label (substituted for %r in recorder
    /// filenames; simmpi sets this to the rank).
    void set_thread_label(const std::string& label);

    /// All thread states registered so far (includes exited threads).
    std::vector<ThreadData*> threads();

    /// Visit live (non-exited) threads while holding the thread-list lock;
    /// used by the signal sampler so threads cannot exit mid-signal.
    void visit_live_threads(const std::function<void(ThreadData&)>& fn);

    /// Mutex guarding the thread list; the sampling service holds it while
    /// signalling so threads cannot fully exit mid-signal.
    std::mutex& thread_list_mutex() { return thread_mutex_; }

private:
    Caliper();

    /// Service entries, then the blackboard capture, then processing.
    void process_snapshot(Channel* channel, ThreadData& td, ThreadChannelState& state,
                          SnapshotRecord& rec);
    ThreadData& register_thread();

    /// Hot-path channel list: per-thread cache refreshed on epoch change.
    const std::vector<Channel*>& channels_for(ThreadData& td);

    AttributeRegistry registry_;

    mutable std::mutex channel_mutex_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::shared_ptr<const std::vector<Channel*>> active_; // published snapshot
    std::atomic<std::uint64_t> channel_epoch_{0};         // bumps on every change

    std::mutex thread_mutex_;
    std::vector<std::unique_ptr<ThreadData>> threads_;
};

} // namespace calib
