// The four workloads. Each runs in its own process, measures for
// options.seconds, checks every answer, and returns its metrics: the six
// end-to-end metrics untraced, the per-layer metrics traced.
#pragma once

#include "report.hpp"
#include "stats.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds     = 10;
    bool trace         = false;
    std::string input_dir; ///< generated input files (offline workloads)
    std::string out_dir;   ///< span file and BENCH json
    /// Corrupt one answer before it is checked (failure-accounting test).
    bool inject_fault = false;
};

/// What a timed phase measured, for the end-to-end metrics. Rates and CPU
/// costs are kept per request (or per episode) and reported as medians, so
/// a short stall on a shared machine moves them less than a total would.
struct Timed {
    LogHistogram latency;        ///< one sample per timed request
    std::vector<double> setup_s; ///< one per set-up process
    std::vector<double> rate;    ///< records/s samples
    std::vector<double> cpu_ns;  ///< process CPU ns per record samples
    double peak_rss_mb = 0;      ///< read when the timed phase ends
};

/// Append the six end-to-end metrics. Whether the run holds enough timed
/// requests for p90 is one more checked operation.
void add_end_to_end(Report& report, const Timed& t);

/// Every per-layer metric name and unit, in report order. Each traced run
/// reports all of them; layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Fill in the per-layer metrics a traced run did not measure with 0 and
/// order them as layer_metrics() does. Throws on a name not in the list.
void complete_layers(Report& report);

Report run_offline(const RunOptions& options);
Report run_live(const RunOptions& options);
Report run_runtime(const RunOptions& options);

/// One set-up: from inputs ready (generated and in the page cache) to the
/// first answer, in a process that has answered nothing before, so
/// process-level lazy state is in every sample.
struct SetupSample {
    double setup_s    = 0;
    double burst_rate = 0;    ///< live_exact: records/s of the closing burst
    std::uint64_t answer = 0; ///< offline: hash of the first answer's bytes
    Tally tally;              ///< the set-up's own answer checks
};

SetupSample setup_offline(const RunOptions& options);
SetupSample setup_live(const RunOptions& options);
SetupSample setup_runtime(const RunOptions& options);

/// `perfbench setup`: one set-up of options.workload in this process.
SetupSample run_setup(const RunOptions& options);

/// Run `perfbench setup` in a fresh process and wait for it to end. A
/// process that fails or prints no sample counts one failed operation.
SetupSample spawn_setup(const RunOptions& options);

/// The line `perfbench setup` prints and spawn_setup() reads.
std::string setup_line(const SetupSample& sample);

} // namespace pb
