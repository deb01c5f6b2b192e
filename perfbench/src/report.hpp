// Result of one workload run: end-to-end or per-layer metrics, the
// attempted/failed operation count, and the run's provenance stamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0; ///< timed requests (or repetitions) behind it
};

/// Checked operations: each check counts one attempted operation and at
/// most one failed one, however many errors it found, so failed never
/// exceeds attempted.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed    = 0;
    std::vector<std::string> errors; ///< first few failure descriptions

    void check(bool ok, const std::string& why);
    /// One operation whose \a errors (none: passed) are joined after \a what.
    void check(const std::vector<std::string>& errors, const std::string& what);
    void add(const Tally& other);
};

struct Report : Tally {
    std::string workload;
    std::uint64_t seed = 0;
    bool traced        = false;
    unsigned threads   = 0; ///< workers / ranks / connections the run used
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit,
             std::uint64_t samples = 1);
    using Tally::add;

    /// BENCH-style document (calib-benchdiff append normalizes it): bench
    /// name, meta stamp (commit, host, hardware_concurrency), nproc, and
    /// every metric with its unit and sample count. One line.
    std::string to_json() const;
};

/// Online processors (sysconf), as `nproc` reports them.
unsigned nproc();

/// simmpi ranks, and the engine workers of the traced run's parallel
/// queries: one less than nproc, capped at three, so runs on bigger
/// machines stay comparable and one core is left to everything else.
unsigned workers();

/// Process CPU time (user+system, all threads), seconds.
double process_cpu_s();

/// Calling thread's CPU time, seconds.
double thread_cpu_s();

/// Peak resident set size of the process (ru_maxrss), MB.
double peak_rss_mb();

/// Monotonic seconds.
double now_s();

} // namespace pb
