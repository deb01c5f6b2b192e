// Sampler service: time-based asynchronous snapshot triggering
// (the paper's "sampling mode", §V-B: snapshots every 10 ms; §VI-B:
// 100 Hz sampling).
//
// Two implementations:
//
//   cooperative (default) — deterministic quasi-sampling: every blackboard
//     update checks the elapsed time and emits one snapshot per elapsed
//     sampling period (catching up on long gaps). No signals involved, so
//     results are reproducible; granularity is bounded by the annotation
//     event rate.
//
//   signal — real asynchronous sampling: a sampler thread sends SIGPROF to
//     every registered thread each period; the handler captures and
//     processes a snapshot on the interrupted thread (paper §IV-B: "Our
//     implementation is async-signal safe"). Samples that interrupt a
//     blackboard update are dropped and counted.
//
// Async-signal safety. With the timer, cycles, aggregate and trace
// services, the handler takes no lock and allocates nothing; CI checks
// this by running test_sampler under TSan with halt_on_error=1:
//   - the blackboard capture only reads the thread's context tree and
//     immediates, which change (and are rebuilt at their bound) only
//     inside the in_update window;
//   - the aggregate service resolves attribute ids (building their labels),
//     classifies implicit key attributes and sizes its context memo on
//     blackboard updates, and in the handler only reads them
//     (AggregationDB::fold does not resolve ids, and sorts a `*` key in
//     place);
//   - a sample that finds no aggregation state on its thread is dropped
//     and counted in ThreadData::dropped_samples, not created.
// Limits: an aggregation database or trace buffer that outgrows its
// preallocated capacity (aggregate.prealloc, trace.reserve) allocates;
// the path, textlog and report services, and a WHERE filter on an
// attribute that does not exist yet, are not safe in the handler.
//
// Config:
//   sampler.frequency  sampling frequency in Hz (default 100)
//   sampler.mode       "cooperative" or "signal" (default cooperative)
//   sampler.burst_cap  max catch-up snapshots per event (cooperative; 1024)
#include "../caliper.hpp"
#include "../channel.hpp"
#include "../clock.hpp"

#include "../../common/log.hpp"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <memory>
#include <thread>

namespace calib {

namespace {

void sampler_signal_handler(int) {
    const int saved_errno = errno;
    Caliper& c            = Caliper::instance();
    if (ThreadData* td = c.maybe_thread_data())
        c.push_snapshot_from_signal(*td);
    errno = saved_errno;
}

/// The signal-mode sampler thread. One instance per sampling channel.
class SignalSampler {
public:
    SignalSampler(std::uint64_t period_ns) : period_ns_(period_ns) {
        struct sigaction sa = {};
        sa.sa_handler       = sampler_signal_handler;
        sa.sa_flags         = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
        thread_ = std::thread([this] { run(); });
    }

    ~SignalSampler() { stop(); }

    void stop() {
        bool expected = false;
        if (!stopped_.compare_exchange_strong(expected, true))
            return;
        if (thread_.joinable())
            thread_.join();
    }

private:
    void run() {
        const timespec period{
            static_cast<time_t>(period_ns_ / 1000000000ull),
            static_cast<long>(period_ns_ % 1000000000ull),
        };
        const pthread_t self = pthread_self();
        while (!stopped_.load(std::memory_order_relaxed)) {
            timespec remaining = period;
            nanosleep(&remaining, nullptr);
            Caliper::instance().visit_live_threads([self](ThreadData& td) {
                if (!pthread_equal(td.os_thread, self))
                    pthread_kill(td.os_thread, SIGPROF);
            });
        }
    }

    std::uint64_t period_ns_;
    std::atomic<bool> stopped_{false};
    std::thread thread_;
};

} // namespace

void register_sampler_service();

void register_sampler_service() {
    ServiceRegistry::instance().add(
        "sampler", /*priority=*/15, [](Caliper&, Channel& channel) {
            const double freq = channel.config().get_double("sampler.frequency", 100.0);
            const std::uint64_t period_ns =
                freq > 0 ? static_cast<std::uint64_t>(1e9 / freq) : 10000000ull;
            const std::string mode = channel.config().get("sampler.mode", "cooperative");

            if (mode == "signal") {
                auto sampler = std::make_shared<SignalSampler>(period_ns);
                channel.finish_cbs.push_back(
                    [sampler](Caliper&, Channel&) { sampler->stop(); });
                return;
            }

            // cooperative quasi-sampling, hooked on every blackboard update
            const std::uint64_t burst_cap = static_cast<std::uint64_t>(
                channel.config().get_int("sampler.burst_cap", 1024));

            auto poll = [period_ns, burst_cap](Caliper& c, Channel& ch, ThreadData& td,
                                               const Attribute&, const Variant&) {
                ThreadChannelState& state = td.channel_state(ch.id());
                const std::uint64_t ts    = now_ns();
                if (state.sampler_last_ns == 0) {
                    state.sampler_last_ns = ts;
                    return;
                }
                std::uint64_t due = (ts - state.sampler_last_ns) / period_ns;
                if (due == 0)
                    return;
                state.sampler_last_ns += due * period_ns;
                if (due > burst_cap)
                    due = burst_cap;
                for (std::uint64_t i = 0; i < due; ++i)
                    c.push_snapshot(&ch);
            };

            channel.pre_begin_cbs.push_back(poll);
            channel.pre_end_cbs.push_back(poll);
            channel.pre_set_cbs.push_back(poll);
        });
}

} // namespace calib
