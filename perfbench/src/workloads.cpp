#include "workloads.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace pb {

void add_end_to_end(Report& report, const Timed& t) {
    const std::uint64_t n = t.latency.count();
    report.add("records_per_sec", median(t.rate), "rec/s", t.rate.size());
    report.add("cpu_ns_per_record", median(t.cpu_ns), "ns", t.cpu_ns.size());
    report.add("latency_p50_ms", t.latency.percentile(50) * 1e3, "ms", n);
    report.check(highest_supported_percentile(n) >= 90,
                 std::to_string(n) + " timed requests are too few for p90");
    report.add("latency_p90_ms", t.latency.percentile(90) * 1e3, "ms", n);
    report.add("setup_s", median(t.setup_s), "s", t.setup_s.size());
    report.add("peak_rss_mb", t.peak_rss_mb, "MB", 1);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"io.plan_ms", "ms"},
        {"io.parse_ns_per_record", "ns"},
        {"io.bytes_per_record", "B"},
        {"query.parse_us", "us"},
        {"query.let_where_ns_per_record", "ns"},
        {"query.selectivity", "ratio"},
        {"query.result_ms", "ms"},
        {"query.format_ms", "ms"},
        {"aggregate.process_ns_per_record", "ns"},
        {"aggregate.probe_steps_per_lookup", "ratio"},
        {"aggregate.groups", "count"},
        {"aggregate.bytes_per_group", "B"},
        {"engine.merge_ms", "ms"},
        {"engine.merge_partitions", "count"},
        {"engine.morsels", "count"},
        {"engine.early_flushes", "count"},
        {"engine.busy_skew", "ratio"},
        {"engine.queue_wait_ms", "ms"},
        {"engine.cpu_inflation", "ratio"},
        {"net.push_ns_per_record", "ns"},
        {"net.bytes_per_record", "B"},
        {"proxyd.feed_ns_per_record", "ns"},
        {"proxyd.fold_ns_per_record", "ns"},
        {"proxyd.answer_ms", "ms"},
        {"proxyd.replay_per_row", "ratio"},
        {"proxyd.scrape_ms", "ms"},
        {"proxyd.channel_groups", "count"},
        {"proxyd.channel_mb", "MB"},
        {"proxyd.pusher_lag_ms", "ms"},
        {"runtime.begin_end_ns", "ns"},
        {"runtime.snapshot_ns", "ns"},
        {"runtime.flush_ms", "ms"},
        {"runtime.rows_per_thread", "count"},
        {"mpisim.reduce_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"trace.coverage", "ratio"},
    };
    return names;
}

void complete_layers(Report& report) {
    for (const Metric& m : report.metrics)
        if (std::none_of(layer_metrics().begin(), layer_metrics().end(),
                         [&](const auto& l) { return l.first == m.name; }))
            throw std::logic_error("per-layer metric " + m.name + " is not in the list");
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : layer_metrics()) {
        const auto it = std::find_if(report.metrics.begin(), report.metrics.end(),
                                     [&](const Metric& m) { return m.name == name; });
        if (it != report.metrics.end())
            ordered.push_back(*it);
        else
            ordered.push_back({name, 0.0, unit, 0});
    }
    report.metrics = std::move(ordered);
}

SetupSample run_setup(const RunOptions& o) {
    if (o.workload == "live_exact")
        return setup_live(o);
    if (o.workload == "runtime_event")
        return setup_runtime(o);
    return setup_offline(o);
}

std::string setup_line(const SetupSample& s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "setup %.17g %.17g %llu %llu %llu", s.setup_s,
                  s.burst_rate, static_cast<unsigned long long>(s.answer),
                  static_cast<unsigned long long>(s.tally.attempted),
                  static_cast<unsigned long long>(s.tally.failed));
    return buf;
}

SetupSample spawn_setup(const RunOptions& o) {
    std::vector<std::string> args = {"perfbench", "setup", "--workload", o.workload,
                                     "--seed", std::to_string(o.seed)};
    for (const auto& [flag, value] : {std::pair{"--dir", o.input_dir}, {"--out", o.out_dir}})
        if (!value.empty()) {
            args.emplace_back(flag);
            args.push_back(value);
        }
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    SetupSample sample;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        sample.tally.check(false, "set-up process: pipe failed");
        return sample;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid     = 0;
    const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (err == 0) {
        char buf[4096];
        for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;)
            if (n > 0)
                out.append(buf, static_cast<std::size_t>(n));
            else if (errno != EINTR)
                break;
    }
    close(fds[0]);
    int status = 0;
    if (err == 0)
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }

    std::istringstream is(out);
    std::string word;
    unsigned long long answer = 0, attempted = 0, failed = 0;
    const bool ok = err == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                    (is >> word >> sample.setup_s >> sample.burst_rate >> answer >>
                     attempted >> failed) &&
                    word == "setup";
    if (!ok) {
        sample = SetupSample{};
        sample.tally.check(false, "set-up process failed: " +
                                      std::string(err ? std::strerror(err) : out.c_str()));
        return sample;
    }
    sample.answer          = answer;
    sample.tally.attempted = attempted;
    sample.tally.failed    = failed;
    if (failed)
        sample.tally.errors.push_back("set-up process: " + std::to_string(failed) +
                                      " failed check(s), see its stderr");
    return sample;
}

} // namespace pb
