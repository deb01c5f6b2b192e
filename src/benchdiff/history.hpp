// The performance-history dataset behind calib-benchdiff.
//
// Every CI run produces bench measurements (BENCH_*.json, one nested
// document per harness) and self-profiles (--stats-json, a flat record
// array). This layer *normalizes* both shapes into uniform metric samples
// and appends them — one record per sample — to an append-only history
// stream in calib's own .cali format, stamped with the run metadata:
//
//   bd.bench      harness name              ("io", "proxyd", "stats:ci")
//   bd.metric     dotted metric path        ("ingest.mmap.records_per_sec")
//   bd.value      the measurement           (always Double)
//   bd.commit     commit id                 (CALIB_GIT_SHA env or build def)
//   bd.timestamp  ISO-8601 UTC wall time
//   bd.t          unix epoch seconds        (UInt)
//   bd.host       hostname
//   bd.hw         std::thread::hardware_concurrency() (UInt)
//   bd.build      build tag                 (CALIB_BUILD_TAG env; optional)
//   bd.seq        append-segment sequence   (UInt, monotonic per history)
//
// Dogfooding is the point: the history is ordinary calib input, so trends
// and baselines are CalQL queries (`cali-query hist.cali -q "AGGREGATE
// avg(bd.value) GROUP BY bd.bench,bd.metric,bd.commit"`), and the gate in
// analysis.hpp builds its series the same way. Appends are self-contained
// .cali segments (header + fresh attribute table per append); the reader
// treats segment concatenation as first-class, exactly like daemon flush
// files.
#pragma once

#include "../common/recordmap.hpp"
#include "../io/json.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace calib::benchdiff {

/// History attribute names (the "bd." namespace).
namespace attr {
inline constexpr const char* bench     = "bd.bench";
inline constexpr const char* metric    = "bd.metric";
inline constexpr const char* value     = "bd.value";
inline constexpr const char* commit    = "bd.commit";
inline constexpr const char* timestamp = "bd.timestamp";
inline constexpr const char* time_s    = "bd.t";
inline constexpr const char* host      = "bd.host";
inline constexpr const char* hw        = "bd.hw";
inline constexpr const char* build     = "bd.build";
inline constexpr const char* seq       = "bd.seq";
} // namespace attr

/// Run metadata stamped onto every appended record. Sources, strongest
/// first: explicit CLI flags, the input file's own "meta" object / meta
/// record (filled only where still empty), then detect()'s environment
/// fallbacks.
struct RunMeta {
    std::string commit;    ///< "" until known; appended as "unknown" then
    std::string timestamp; ///< ISO-8601 UTC
    std::uint64_t time_s = 0;
    std::string host;
    std::uint64_t hardware_concurrency = 0;
    std::string build; ///< optional free-form build tag

    /// Environment + clock defaults: CALIB_GIT_SHA (env, then the
    /// compile-time definition), now(), gethostname(),
    /// hardware_concurrency(), CALIB_BUILD_TAG.
    static RunMeta detect();

    /// Copy \a other's fields into still-empty fields of *this.
    void fill_from(const RunMeta& other);
};

/// One normalized metric sample.
struct MetricSample {
    std::string bench;
    std::string metric;
    double value = 0.0;
};

/// Which direction of change is a regression for this metric, derived
/// from the name (see classify_metric in history.cpp for the suffix
/// table). Untracked series are stored and queryable but never gated
/// unless an override assigns a direction.
enum class Direction {
    HigherBetter, ///< throughput-like: a drop is a regression
    LowerBetter,  ///< time-like: a rise is a regression
    Untracked     ///< recorded only
};

Direction classify_metric(std::string_view metric);

/// Normalize a nested BENCH_*.json document. \a fallback_bench names the
/// series when the document has no "bench" key; the document's "meta"
/// object fills still-empty fields of \a meta.
std::vector<MetricSample> normalize_bench_json(const JsonValue& doc,
                                               const std::string& fallback_bench,
                                               RunMeta& meta);

/// Normalize a --stats-json self-profile (flat record array as parsed by
/// io/jsonreader). Phase and timer rows become <name>.total_s samples,
/// counters keep their value, histograms contribute .mean and .p99; a
/// "meta" record fills still-empty fields of \a meta.
std::vector<MetricSample> normalize_stats_json(const std::vector<RecordMap>& records,
                                               const std::string& bench,
                                               RunMeta& meta);

/// Normalize one file, sniffing its shape: '{' = nested bench JSON,
/// '[' = stats record array. \a bench_hint overrides the series name
/// ("" = derive from the document or the file name). Throws
/// std::runtime_error on unreadable or malformed input.
std::vector<MetricSample> normalize_file(const std::string& path,
                                         const std::string& bench_hint,
                                         RunMeta& meta);

/// Append one history segment: every sample becomes one record stamped
/// with \a meta and \a seq. Creates the file when absent. Throws
/// std::runtime_error when the file cannot be opened.
void append_history(const std::string& path,
                    const std::vector<MetricSample>& samples,
                    const RunMeta& meta, std::uint64_t seq);

} // namespace calib::benchdiff
