#include "caliper.hpp"

#include "../common/log.hpp"
#include "../obs/metrics.hpp"
#include "../obs/report.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace calib {

namespace {

obs::Counter runtime_updates("runtime.updates");
obs::Counter runtime_snapshots("runtime.snapshots");
obs::Histogram runtime_snapshot_ns("runtime.snapshot_ns");

/// Thread-local handle; the ThreadData itself is owned by the runtime so
/// it outlives the thread (its buffered data may be flushed later).
struct ThreadHandle {
    ThreadData* data = nullptr;
    ~ThreadHandle();
};

thread_local ThreadHandle t_handle;

std::atomic<bool> g_runtime_alive{false};

ThreadHandle::~ThreadHandle() {
    if (data && g_runtime_alive.load(std::memory_order_acquire)) {
        // mark the thread gone under the list lock so the sampler never
        // signals an exited thread
        std::lock_guard<std::mutex> lock(Caliper::instance().thread_list_mutex());
        data->index = -data->index - 2; // negative = exited
    }
    data = nullptr;
}

} // namespace

Caliper::Caliper() {
    obs::init_from_env(); // CALIB_METRICS=1 turns on runtime self-profiling
    register_builtin_services();
    active_ = std::make_shared<const std::vector<Channel*>>();
    g_runtime_alive.store(true, std::memory_order_release);
}

Caliper& Caliper::instance() {
    static Caliper c;
    return c;
}

// ---------------------------------------------------------------------------
// channels

Channel* Caliper::create_channel(const std::string& name, const RuntimeConfig& config) {
    std::lock_guard<std::mutex> lock(channel_mutex_);
    auto channel = std::make_unique<Channel>(channels_.size(), name, config);
    Channel* ptr = channel.get();
    channels_.push_back(std::move(channel));

    ServiceRegistry::instance().instantiate(*this, *ptr,
                                            config.get("services.enable", ""));

    auto active = std::make_shared<std::vector<Channel*>>();
    for (const auto& ch : channels_)
        if (ch->active())
            active->push_back(ch.get());
    std::atomic_store(&active_, std::shared_ptr<const std::vector<Channel*>>(active));
    channel_epoch_.fetch_add(1, std::memory_order_release);
    return ptr;
}

void Caliper::close_channel(Channel* channel) {
    if (!channel)
        return;
    for (const auto& cb : channel->finish_cbs)
        cb(*this, *channel);

    if (obs::enabled()) {
        // self-profile report for the online runtime (CALIB_METRICS=1):
        // table on stderr, optionally JSON to CALIB_METRICS_JSON=<file>
        std::fprintf(stderr, "calib: channel '%s' self-profile:\n",
                     channel->name().c_str());
        obs::write_stats_table(stderr);
        if (const char* path = std::getenv("CALIB_METRICS_JSON"))
            obs::write_stats_json_file(path);
    }

    std::lock_guard<std::mutex> lock(channel_mutex_);
    channel->set_active(false);
    auto active = std::make_shared<std::vector<Channel*>>();
    for (const auto& ch : channels_)
        if (ch->active())
            active->push_back(ch.get());
    std::atomic_store(&active_, std::shared_ptr<const std::vector<Channel*>>(active));
    channel_epoch_.fetch_add(1, std::memory_order_release);
}

Channel* Caliper::find_channel(const std::string& name) {
    std::lock_guard<std::mutex> lock(channel_mutex_);
    for (const auto& ch : channels_)
        if (ch->name() == name)
            return ch.get();
    return nullptr;
}

std::shared_ptr<const std::vector<Channel*>> Caliper::active_channels() const {
    return std::atomic_load(&active_);
}

// ---------------------------------------------------------------------------
// threads

ThreadData& Caliper::register_thread() {
    auto td       = std::make_unique<ThreadData>();
    td->os_thread = pthread_self();
    ThreadData* p = td.get();

    std::lock_guard<std::mutex> lock(thread_mutex_);
    p->index = static_cast<int>(threads_.size());
    p->label = std::to_string(p->index);
    threads_.push_back(std::move(td));
    return *p;
}

ThreadData& Caliper::thread_data() {
    if (!t_handle.data)
        t_handle.data = &register_thread();
    return *t_handle.data;
}

ThreadData* Caliper::maybe_thread_data() noexcept {
    return t_handle.data;
}

void Caliper::set_thread_label(const std::string& label) {
    thread_data().label = label;
}

void Caliper::visit_live_threads(const std::function<void(ThreadData&)>& fn) {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    for (const auto& td : threads_)
        if (td->index >= 0)
            fn(*td);
}

std::vector<ThreadData*> Caliper::threads() {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    std::vector<ThreadData*> out;
    out.reserve(threads_.size());
    for (const auto& td : threads_)
        out.push_back(td.get());
    return out;
}

const std::vector<Channel*>& Caliper::channels_for(ThreadData& td) {
    const std::uint64_t epoch = channel_epoch_.load(std::memory_order_acquire);
    if (td.cached_channel_epoch != epoch) {
        td.cached_channels      = *active_channels();
        td.cached_channel_epoch = epoch;
    }
    return td.cached_channels;
}

// ---------------------------------------------------------------------------
// blackboard updates

void Caliper::begin(const Attribute& attr, const Variant& value) {
    runtime_updates.add();
    ThreadData& td = thread_data();
    td.in_update   = 1;
    for (Channel* ch : channels_for(td))
        for (const auto& cb : ch->pre_begin_cbs)
            cb(*this, *ch, td, attr, value);
    td.blackboard.begin(attr, value);
    td.in_update = 0;
}

void Caliper::end(const Attribute& attr) {
    runtime_updates.add();
    ThreadData& td     = thread_data();
    const Variant* top = td.blackboard.innermost(attr.id());
    if (!top) {
        log_warn() << "end(" << attr.name_view() << ") without matching begin";
        return;
    }
    const Variant value = *top;
    td.in_update        = 1;
    for (Channel* ch : channels_for(td))
        for (const auto& cb : ch->pre_end_cbs)
            cb(*this, *ch, td, attr, value);
    td.blackboard.end(attr);
    td.in_update = 0;
}

void Caliper::set(const Attribute& attr, const Variant& value) {
    runtime_updates.add();
    ThreadData& td = thread_data();
    td.in_update   = 1;
    for (Channel* ch : channels_for(td))
        for (const auto& cb : ch->pre_set_cbs)
            cb(*this, *ch, td, attr, value);
    td.blackboard.set(attr, value);
    td.in_update = 0;
}

Variant Caliper::current(const Attribute& attr) {
    const Variant* v = thread_data().blackboard.innermost(attr.id());
    return v ? *v : Variant();
}

std::size_t Caliper::depth(const Attribute& attr) {
    return thread_data().blackboard.depth(attr.id());
}

// ---------------------------------------------------------------------------
// snapshots

void Caliper::pull_snapshot(SnapshotRecord& out) {
    thread_data().blackboard.capture(out);
}

void Caliper::process_snapshot(Channel* channel, ThreadData& td,
                               ThreadChannelState& state, SnapshotRecord& rec) {
    // relaxed-atomic instruments only: this runs in signal context too
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    for (const auto& cb : channel->snapshot_cbs)
        cb(*this, *channel, td, state, rec);
    td.blackboard.capture(rec);
    for (const auto& cb : channel->process_cbs)
        cb(*this, *channel, td, state, rec);
    ++state.num_snapshots;
    runtime_snapshots.add();
    if (t0)
        runtime_snapshot_ns.record(obs::now_ns() - t0);
}

void Caliper::push_snapshot(Channel* channel, const SnapshotRecord* trigger) {
    ThreadData& td = thread_data();
    if (channel) {
        SnapshotRecord rec;
        if (trigger)
            for (const Entry& e : *trigger)
                rec.append(e);
        process_snapshot(channel, td, td.channel_state(channel->id()), rec);
        return;
    }
    for (Channel* ch : channels_for(td)) {
        SnapshotRecord rec;
        if (trigger)
            for (const Entry& e : *trigger)
                rec.append(e);
        process_snapshot(ch, td, td.channel_state(ch->id()), rec);
    }
}

void Caliper::push_snapshot_from_signal(ThreadData& td) {
    if (td.in_update) {
        ++td.dropped_samples;
        return;
    }
    td.in_signal = 1;
    // use the thread's cached channel list verbatim: refreshing it could
    // allocate, which is not allowed in signal context
    for (Channel* ch : td.cached_channels) {
        if (!ch->active() || ch->id() >= td.channels.size())
            continue; // state not initialized on this thread yet
        SnapshotRecord rec;
        process_snapshot(ch, td, td.channels[ch->id()], rec);
    }
    td.in_signal = 0;
}

// ---------------------------------------------------------------------------
// flushing

void Caliper::flush_thread(Channel* channel, const Channel::FlushFn& sink) {
    if (!channel)
        return;
    ThreadData& td            = thread_data();
    ThreadChannelState& state = td.channel_state(channel->id());
    for (const auto& cb : channel->flush_cbs)
        cb(*this, *channel, td, state, sink);
}

void Caliper::flush_thread(Channel* channel) {
    if (!channel)
        return;
    std::vector<RecordMap> records;
    flush_thread(channel, [&records](RecordMap&& r) { records.push_back(std::move(r)); });
    ThreadData& td = thread_data();
    for (const auto& cb : channel->flush_sink_cbs)
        cb(*this, *channel, td, records);
    td.channel_state(channel->id()).flushed = true;
}

void Caliper::release_thread_states(Channel* channel) {
    if (!channel)
        return;
    std::lock_guard<std::mutex> lock(thread_mutex_);
    for (const auto& td : threads_)
        if (channel->id() < td->channels.size())
            td->channels[channel->id()] = ThreadChannelState{};
}

void Caliper::flush_all(Channel* channel, const Channel::FlushFn& sink) {
    if (!channel)
        return;
    for (ThreadData* td : threads()) {
        if (channel->id() >= td->channels.size())
            continue;
        for (const auto& cb : channel->flush_cbs)
            cb(*this, *channel, *td, td->channels[channel->id()], sink);
    }
}

} // namespace calib
