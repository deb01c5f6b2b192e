// runtime_event: simmpi ranks (at most four) run a synthetic main loop
// annotated like CleverLeaf-sim, with little compute between annotations,
// under the paper's Fig. 3 event-mode scheme-A profile. An episode ends
// with flush_thread on every rank, simmpi::reduce_channel to rank 0, and
// rank 0 formatting the reduced profile; episodes repeat back to back.
// A request is one main-loop iteration on one rank.
#include "inputs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#include "bench_common.hpp"
#include "mpisim/online_reduce.hpp"
#include "obs/metrics.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>

namespace pb {

using namespace calib;

namespace {

constexpr int kIterations = 1000; ///< per rank per episode
/// Set-up processes per timed run; with this process's own set-up they
/// give kSetupProcs + 1 set-up samples.
constexpr int kSetupProcs = 20;

constexpr const char* kFormatQuery =
    "AGGREGATE sum(count),sum(sum#time.duration) GROUP BY kernel,mpi.function "
    "ORDER BY kernel,mpi.function FORMAT table";

std::atomic<std::uint64_t> g_sink{0};

/// A few nanoseconds of arithmetic per unit of work.
void spin(int work) {
    std::uint64_t x = static_cast<std::uint64_t>(work);
    for (int i = 0; i < work; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    g_sink.fetch_add(x, std::memory_order_relaxed);
}

/// Annotation handles and pre-interned values of the loop.
struct Loop {
    Attribute function, annotation, kernel, level, iteration, mpi_function, mpi_rank;
    Variant hydro, halo, sendrecv, allreduce;
    std::vector<Variant> kernels;
    Schedule schedule;

    explicit Loop(const Schedule& s) : schedule(s) {
        Caliper& c   = Caliper::instance();
        function     = c.create_attribute("function", Variant::Type::String);
        annotation   = c.create_attribute("annotation", Variant::Type::String);
        kernel       = c.create_attribute("kernel", Variant::Type::String);
        level        = c.create_attribute("amr.level", Variant::Type::Int);
        mpi_function = c.create_attribute("mpi.function", Variant::Type::String);
        iteration =
            c.create_attribute("iteration#mainloop", Variant::Type::Int, prop::as_value);
        mpi_rank  = c.create_attribute("mpi.rank", Variant::Type::Int, prop::as_value);
        hydro     = Variant("hydro_step");
        halo      = Variant("halo_exchange");
        sendrecv  = Variant("MPI_Sendrecv");
        allreduce = Variant("MPI_Allreduce");
        for (const std::string& k : kernel_names())
            kernels.emplace_back(k);
    }

    /// One main-loop iteration: snapshots_per_iteration() annotation
    /// updates, each a snapshot under an event-mode channel.
    void iterate(Caliper& c, int it) const {
        c.set(iteration, Variant(it));
        for (int l = 0; l < kLevels; ++l) {
            c.begin(level, Variant(l));
            c.begin(function, hydro);
            for (int k = 0; k < kKernelsPerLevel; ++k) {
                const std::size_t slot = static_cast<std::size_t>(l * kKernelsPerLevel + k);
                c.begin(kernel, kernels[static_cast<std::size_t>(schedule.kernels[slot])]);
                spin(schedule.work[slot]);
                c.end(kernel);
            }
            c.end(function);
            c.begin(annotation, halo);
            c.begin(mpi_function, sendrecv);
            spin(20);
            c.end(mpi_function);
            c.end(annotation);
            c.end(level);
        }
        c.begin(mpi_function, allreduce);
        spin(20);
        c.end(mpi_function);
    }
};

std::string profile_config() { return calib::bench::scheme_profile('A', true); }

/// What rank 0 accumulates over the episodes of one phase; index [1] holds
/// traced episodes, [0] untraced ones.
struct Totals {
    double wall_s[2]            = {0, 0};
    std::uint64_t snapshots[2]  = {0, 0};
    std::uint64_t episodes[2]   = {0, 0};
    double flush_s = 0, reduce_s = 0, format_s = 0, parse_s = 0;
    std::uint64_t rows_flushed = 0;
    std::size_t db_entries = 0, db_bytes = 0, groups = 0;
    std::vector<double> rate, cpu_ns; ///< per untraced episode
};

/// Per-kernel visit counts in the reduced profile must equal the loop's
/// known counts times the number of ranks; the snapshot count must equal
/// the loop's annotation updates.
std::vector<std::string> check_episode(const std::vector<RecordMap>& profile,
                                       const std::string& formatted,
                                       std::uint64_t snapshots, const Schedule& schedule,
                                       int ranks, int iterations) {
    std::vector<std::string> errors;
    std::map<std::string, std::uint64_t> expected, seen;
    for (int k : schedule.kernels)
        expected[kernel_names()[static_cast<std::size_t>(k)]] +=
            static_cast<std::uint64_t>(iterations) * static_cast<std::uint64_t>(ranks);
    for (const RecordMap& r : profile)
        if (const Variant* k = r.find("kernel"))
            seen[k->to_string()] += r.get("count").to_uint();
    if (seen != expected)
        errors.push_back("per-kernel visit counts differ from the loop's");
    const std::uint64_t snaps = static_cast<std::uint64_t>(ranks) *
                                static_cast<std::uint64_t>(iterations) *
                                snapshots_per_iteration();
    if (snapshots != snaps)
        errors.push_back("ranks took " + std::to_string(snapshots) +
                         " snapshots, the loop makes " + std::to_string(snaps));
    if (formatted.empty())
        errors.push_back("empty formatted profile");
    return errors;
}

/// The rest of set-up once the loop's annotations exist: channel
/// construction, rank start, and rank 0's first iteration. Returns the
/// time from \a t0 to the end of that iteration; that every rank took the
/// loop's snapshots is one check.
double first_iteration(const Loop& loop, int ranks, double t0, Tally& tally) {
    Caliper& c       = Caliper::instance();
    Channel* channel = c.create_channel("perfbench-setup",
                                        RuntimeConfig::from_string(profile_config()));
    double first = 0;
    std::atomic<std::uint64_t> snapshots{0};
    simmpi::run(ranks, [&](simmpi::Comm& comm) {
        c.set(loop.mpi_rank, Variant(comm.rank()));
        loop.iterate(c, 0);
        if (comm.rank() == 0)
            first = now_s();
        snapshots += c.thread_data().channel_state(channel->id()).num_snapshots;
    });
    c.close_channel(channel);
    c.release_thread_states(channel);
    // setting mpi.rank under the channel is one more snapshot per rank
    const std::uint64_t want =
        static_cast<std::uint64_t>(ranks) * (snapshots_per_iteration() + 1);
    tally.check(snapshots == want, "set-up iteration took " + std::to_string(snapshots) +
                                       " snapshots, the loop makes " + std::to_string(want));
    return first - t0;
}

/// Episodes back to back on one set of rank threads until \a seconds pass.
/// Each episode: rank 0 creates the channel, the ranks run the loop,
/// flush_thread, reduce_channel to rank 0, and rank 0 formats and checks
/// the profile. With \a alternate, every other episode is traced (spans
/// and obs instruments on). Rank 0 calls \a setup (if any) between
/// episodes, spread evenly over the phase, while the other ranks wait and
/// the phase's clock stops.
void run_phase(const Loop& loop, int ranks, int iterations, double seconds,
               bool alternate, bool inject_fault, SpanLog& spans, LogHistogram& latency,
               Totals& tot, Report& report, const std::function<void()>& setup = {}) {
    Caliper& c = Caliper::instance();
    SpanLog off(false);
    std::mutex mutex;
    Channel* channel = nullptr;
    bool stop = false;
    int on    = 0;
    double t0 = 0, cpu0 = 0;
    std::uint64_t episode = 0, snapshots = 0;
    std::vector<RecordMap> profile;
    std::string formatted;
    double end               = now_s() + seconds; // stopped during set-up
    const double setup_every = seconds / kSetupProcs;
    double next_setup        = now_s() + setup_every / 2;

    simmpi::run(ranks, [&](simmpi::Comm& comm) {
        const bool root = comm.rank() == 0;
        c.set(loop.mpi_rank, Variant(comm.rank()));
        comm.barrier(); // before rank 0 creates a channel: no snapshot
        LogHistogram lat;
        for (;;) {
            if (root) {
                stop = episode > 0 && now_s() >= end;
                if (setup && !stop && now_s() >= next_setup) {
                    // the other ranks wait at the barrier meanwhile
                    const double p0 = now_s();
                    setup();
                    end += now_s() - p0;
                    next_setup += setup_every + (now_s() - p0);
                }
                if (!stop) {
                    on = alternate ? static_cast<int>(episode % 2) : 0;
                    obs::set_enabled(on);
                    channel = c.create_channel("perfbench-" + std::to_string(episode),
                                               RuntimeConfig::from_string(profile_config()));
                    t0   = now_s();
                    cpu0 = process_cpu_s();
                }
            }
            comm.barrier();
            if (stop) {
                std::lock_guard<std::mutex> lock(mutex);
                latency.merge(lat);
                break;
            }
            SpanLog& log = on ? spans : off;
            const std::uint64_t request = episode;
            Span episode_span(log, "request.episode", request);
            {
                Span s(log, "runtime.loop", request);
                for (int it = 0; it < iterations; ++it) {
                    const double i0 = now_s();
                    loop.iterate(c, it);
                    lat.add(now_s() - i0);
                }
            }
            ThreadChannelState& state = c.thread_data().channel_state(channel->id());
            const std::uint64_t snaps = state.num_snapshots;
            const std::size_t entries = state.aggregation ? state.aggregation->size() : 0;
            const std::size_t bytes   = state.aggregation ? state.aggregation->bytes() : 0;
            std::uint64_t rows        = 0;
            const double f0           = now_s();
            {
                Span s(log, "runtime.flush_thread", request);
                c.flush_thread(channel, [&rows](RecordMap&&) { ++rows; });
            }
            const double f1 = now_s();
            std::vector<RecordMap> reduced;
            {
                Span s(log, "mpisim.reduce_channel", request);
                reduced = simmpi::reduce_channel(comm, channel, 0);
            }
            const double r1 = now_s();
            double parse_s = 0;
            if (root) {
                QuerySpec spec;
                {
                    Span s(log, "query.parse", request);
                    spec = parse_calql(kFormatQuery);
                }
                parse_s = now_s() - r1;
                Span s(log, "query.format", request);
                QueryProcessor proc(std::move(spec));
                proc.add(reduced);
                std::ostringstream os;
                proc.write(os);
                formatted = os.str();
                profile   = std::move(reduced);
            }
            const double done = now_s();
            {
                std::lock_guard<std::mutex> lock(mutex);
                snapshots += snaps;
                if (on) {
                    tot.rows_flushed += rows;
                    tot.db_entries += entries;
                    tot.db_bytes += bytes;
                    tot.flush_s += f1 - f0;
                    if (root) {
                        tot.reduce_s += r1 - f1;
                        tot.parse_s += parse_s;
                        tot.format_s += done - r1 - parse_s;
                    }
                }
            }
            comm.barrier(); // every rank flushed; rank 0 holds the profile
            if (!root)
                continue;
            const double wall = now_s() - t0;
            tot.wall_s[on] += wall;
            tot.snapshots[on] += snapshots;
            if (!on) {
                tot.rate.push_back(static_cast<double>(snapshots) / wall);
                tot.cpu_ns.push_back((process_cpu_s() - cpu0) * 1e9 /
                                     static_cast<double>(snapshots));
            }
            ++tot.episodes[on];
            if (inject_fault && episode == 0)
                for (RecordMap& r : profile)
                    if (r.find("kernel")) {
                        r.set("count", Variant(r.get("count").to_uint() + 1));
                        break;
                    }
            report.check(check_episode(profile, formatted, snapshots, loop.schedule, ranks,
                                       iterations),
                         "runtime_event episode " + std::to_string(episode));
            if (on)
                tot.groups = profile.size();
            snapshots = 0;
            ++episode;
            // the other ranks wait at the next barrier, so their per-thread
            // channel state is quiescent
            c.close_channel(channel);
            c.release_thread_states(channel);
        }
    });
    obs::set_enabled(false);
}

} // namespace

SetupSample setup_runtime(const RunOptions& o) {
    const Schedule schedule = make_schedule(o.seed);
    SetupSample sample;
    const double t0 = now_s();
    const Loop loop(schedule); // the Caliper instance and the loop's attributes
    sample.setup_s = first_iteration(loop, static_cast<int>(workers()), t0, sample.tally);
    return sample;
}

Report run_runtime(const RunOptions& o) {
    Report report;
    const int ranks = static_cast<int>(workers());
    report.threads  = static_cast<unsigned>(ranks);
    const Schedule schedule = make_schedule(o.seed);

    // set-up: this process's own is one sample; set-up processes started
    // between episodes, spread over the timed phase, give the others
    Timed t;
    const double t0 = now_s();
    const Loop loop(schedule);
    t.setup_s.push_back(first_iteration(loop, ranks, t0, report));
    Totals tot;

    if (!o.trace) {
        SpanLog off(false);
        run_phase(loop, ranks, kIterations, o.seconds, false, o.inject_fault, off, t.latency,
                  tot, report, [&] {
                      const SetupSample sample = spawn_setup(o);
                      report.add(sample.tally);
                      if (sample.tally.failed == 0)
                          t.setup_s.push_back(sample.setup_s);
                  });
        t.rate        = std::move(tot.rate);
        t.cpu_ns      = std::move(tot.cpu_ns);
        t.peak_rss_mb = peak_rss_mb();
        add_end_to_end(report, t);
        return report;
    }

    SpanLog spans(true);
    obs::MetricsRegistry::instance().reset();
    LogHistogram latency;
    run_phase(loop, ranks, kIterations, o.seconds, true, false, spans, latency, tot, report);
    const double n        = static_cast<double>(std::max<std::uint64_t>(tot.episodes[1], 1));
    const std::uint64_t nt = tot.episodes[1];
    const auto& reg       = obs::MetricsRegistry::instance();

    // Caliper::begin/end with no channel, and the snapshot cost: one rank's
    // loop on this thread with the channel minus without
    Caliper& c          = Caliper::instance();
    constexpr int pairs = 200000;
    double b0           = thread_cpu_s();
    for (int i = 0; i < pairs; ++i) {
        c.begin(loop.kernel, loop.kernels[0]);
        c.end(loop.kernel);
    }
    const double begin_end_ns = (thread_cpu_s() - b0) * 1e9 / pairs;
    b0 = thread_cpu_s();
    for (int it = 0; it < kIterations; ++it)
        loop.iterate(c, it);
    const double bare_s = thread_cpu_s() - b0;
    Channel* channel    = c.create_channel("perfbench-snapshot",
                                           RuntimeConfig::from_string(profile_config()));
    b0 = thread_cpu_s();
    for (int it = 0; it < kIterations; ++it)
        loop.iterate(c, it);
    const double with_s = thread_cpu_s() - b0;
    c.close_channel(channel);
    c.release_thread_states(channel);
    const double per_loop = static_cast<double>(kIterations * snapshots_per_iteration());

    report.add("query.parse_us", tot.parse_s / n * 1e6, "us", nt);
    report.add("query.format_ms", tot.format_s / n * 1e3, "ms", nt);
    report.add("aggregate.probe_steps_per_lookup",
               static_cast<double>(reg.value("aggdb.probe_steps")) /
                   std::max(1.0, static_cast<double>(reg.value("aggdb.lookups"))),
               "ratio", nt);
    report.add("aggregate.groups", static_cast<double>(tot.groups), "count", nt);
    report.add("aggregate.bytes_per_group",
               tot.db_entries ? static_cast<double>(tot.db_bytes) /
                                    static_cast<double>(tot.db_entries)
                              : 0,
               "B", nt);
    report.add("runtime.begin_end_ns", begin_end_ns, "ns", pairs);
    report.add("runtime.snapshot_ns", (with_s - bare_s) * 1e9 / per_loop, "ns",
               static_cast<std::uint64_t>(per_loop));
    report.add("runtime.flush_ms", tot.flush_s / (n * ranks) * 1e3, "ms", nt);
    report.add("runtime.rows_per_thread",
               static_cast<double>(tot.rows_flushed) / (n * ranks), "count", nt);
    report.add("mpisim.reduce_ms", tot.reduce_s / n * 1e3, "ms", nt);
    const auto rate = [&](int i) {
        return tot.wall_s[i] > 0 ? static_cast<double>(tot.snapshots[i]) / tot.wall_s[i] : 0;
    };
    report.add("trace.overhead_pct", rate(0) > 0 ? (rate(0) - rate(1)) / rate(0) * 100 : 0,
               "%", nt);
    report.add("trace.coverage", coverage(spans.spans()), "ratio", nt);
    if (!o.out_dir.empty())
        report.check(spans.write_json(o.out_dir + "/spans-" + o.workload + ".json", o.workload),
                     "cannot write the span file");
    return report;
}

} // namespace pb
