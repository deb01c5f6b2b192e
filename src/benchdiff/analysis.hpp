// Trend analysis and the noise-aware regression gate.
//
// Dogfooding contract: every pass over history *records* goes through the
// CalQL engine (history_query), never a hand-rolled loop. The gate asks one
// query — per-(bench, metric, seq, commit) averages, ordered by seq — and
// all the arithmetic below operates on those few result rows: per-series
// medians, MAD, thresholds.
//
// The verdict model (per series, newest point = the run under test):
//
//   baseline  = median of the trailing window of *prior* points
//   sigma     = 1.4826 * MAD of that window   (robust sigma estimate)
//   threshold = max(k * sigma, rel_floor * |baseline|)
//   delta     = current - baseline
//
// A regression is a delta past threshold in the metric's bad direction
// (classify_metric, overridable). Noisy-but-flat series self-defend: their
// MAD inflates sigma, so honest scatter never trips the gate, while a
// genuine 2x step on a quiet series exceeds both terms. Series with fewer
// than min_samples baseline points are reported Insufficient and never
// fail the gate.
#pragma once

#include "history.hpp"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace calib::benchdiff {

/// Run one CalQL query over the history file through the parallel engine
/// and return the result rows. Throws std::runtime_error on parse or I/O
/// failure.
std::vector<RecordMap> history_query(const std::string& history_path,
                                     std::string_view calql,
                                     std::size_t threads = 1);

/// Sequence number for the next append segment: max(bd.seq) + 1, via
/// `AGGREGATE max(bd.seq)`; 0 for a missing or empty history.
std::uint64_t next_seq(const std::string& history_path);

/// Gate tuning; the defaults favour few false alarms on noisy CI hosts.
struct GateConfig {
    std::size_t window      = 20;   ///< trailing points in the baseline
    double k                = 4.0;  ///< MAD-sigma multiplier
    double rel_floor        = 0.05; ///< relative threshold floor (5%)
    std::size_t min_samples = 4;    ///< baseline points required to gate
};

/// One override-file entry: a glob over "bench/metric" plus the fields it
/// sets. All entries matching a series apply in file order.
struct Override {
    std::string pattern;
    std::optional<std::size_t> window;
    std::optional<double> k;
    std::optional<double> rel_floor;
    std::optional<std::size_t> min_samples;
    std::optional<Direction> direction;
    bool skip = false;

    /// \a cfg with the numeric settings this entry sets.
    GateConfig apply(GateConfig cfg) const {
        cfg.window      = window.value_or(cfg.window);
        cfg.k           = k.value_or(cfg.k);
        cfg.rel_floor   = rel_floor.value_or(cfg.rel_floor);
        cfg.min_samples = min_samples.value_or(cfg.min_samples);
        return cfg;
    }
};

/// The one parse of a numeric gate setting, for the check flags and the
/// override file alike: sets \a key ("window", "k", "rel_floor" or
/// "min_samples") in \a ov from \a text and returns true, or returns
/// false for any other key. window and min_samples must be integers
/// >= 1, k and rel_floor finite numbers >= 0; any other \a text throws
/// std::invalid_argument saying so.
bool parse_gate_setting(std::string_view key, std::string_view text, Override& ov);

/// Match \a text against \a pattern where '*' spans any run of characters.
bool glob_match(std::string_view pattern, std::string_view text);

/// Parse an override file. Line format (see docs/BENCHDIFF.md):
///   <glob> [window=N] [k=F] [rel_floor=F] [min_samples=N]
///          [direction=higher|lower|untracked] [skip]
/// '#' starts a comment. Throws std::runtime_error with the line number
/// on malformed entries.
std::vector<Override> load_overrides(const std::string& path);

enum class Status {
    Ok,           ///< within threshold
    Regression,   ///< moved past threshold in the bad direction
    Improvement,  ///< moved past threshold in the good direction
    Insufficient, ///< fewer than min_samples baseline points
    Stale,        ///< series has no sample in the newest run
    Untracked,    ///< no direction (stored, never gated)
    Skipped       ///< disabled by an override
};

const char* status_name(Status s) noexcept;

/// Per-series verdict.
struct Verdict {
    std::string bench;
    std::string metric;
    Direction direction = Direction::Untracked;
    Status status       = Status::Ok;
    double current      = 0.0;
    double baseline     = 0.0; ///< trailing-window median
    double sigma        = 0.0; ///< 1.4826 * MAD
    double threshold    = 0.0;
    double delta        = 0.0; ///< current - baseline
    double ratio        = 0.0; ///< current / baseline (0 when undefined)
    std::size_t n_baseline = 0;
};

struct GateReport {
    std::vector<Verdict> verdicts; ///< sorted by bench, then metric
    std::string commit;            ///< commit id of the run under test
    std::uint64_t seq = 0;         ///< seq of the run under test
    std::size_t regressions  = 0;
    std::size_t improvements = 0;
    std::size_t gated        = 0; ///< series that reached the math

    bool failed() const noexcept { return regressions > 0; }
};

/// Evaluate the gate over the whole history. Throws like history_query;
/// an empty history yields an empty report.
GateReport run_gate(const std::string& history_path,
                    const GateConfig& defaults,
                    const std::vector<Override>& overrides,
                    std::size_t threads = 1);

/// Human-readable table. \a verbose includes Ok/Untracked/Stale rows.
void write_report_table(std::ostream& os, const GateReport& report,
                        bool verbose);

/// Machine-readable report: a flat JSON record array (re-queryable via
/// `cali-query --json-input`) of kind=verdict rows plus one kind=summary
/// row.
void write_report_json(std::ostream& os, const GateReport& report);

} // namespace calib::benchdiff
