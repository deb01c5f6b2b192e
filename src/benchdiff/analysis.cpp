#include "analysis.hpp"

#include "../engine/parallel_processor.hpp"
#include "../query/calql.hpp"
#include "../query/formatter.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace calib::benchdiff {

// ------------------------------------------------------------- query plumbing

std::vector<RecordMap> history_query(const std::string& history_path,
                                     std::string_view calql,
                                     std::size_t threads) {
    QuerySpec spec = parse_calql(calql);
    engine::EngineOptions opts;
    opts.threads = threads ? threads : 1;
    engine::ParallelQueryProcessor engine(std::move(spec), opts);
    return engine.run({history_path}).result();
}

std::uint64_t next_seq(const std::string& history_path) {
    std::ifstream probe(history_path, std::ios::binary);
    if (!probe)
        return 0;
    probe.close();
    const auto rows = history_query(history_path, "AGGREGATE max(bd.seq) AS s");
    if (rows.empty())
        return 0;
    const Variant* v = rows.front().find("s");
    if (!v || v->empty())
        return 0;
    return v->to_uint() + 1;
}

// ----------------------------------------------------------------- overrides

bool glob_match(std::string_view pattern, std::string_view text) {
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool parse_gate_setting(std::string_view key, std::string_view text, Override& ov) {
    const char* first = text.data();
    const char* last  = text.data() + text.size();
    if (key == "window" || key == "min_samples") {
        std::size_t n = 0;
        const auto [end, ec] = std::from_chars(first, last, n);
        if (ec != std::errc() || end != last || n == 0)
            throw std::invalid_argument(std::string(key) +
                                        " must be an integer >= 1, got '" +
                                        std::string(text) + "'");
        (key == "window" ? ov.window : ov.min_samples) = n;
        return true;
    }
    if (key == "k" || key == "rel_floor") {
        double x = 0.0;
        const auto [end, ec] = std::from_chars(first, last, x);
        if (ec != std::errc() || end != last || !std::isfinite(x) || x < 0.0)
            throw std::invalid_argument(std::string(key) +
                                        " must be a finite number >= 0, got '" +
                                        std::string(text) + "'");
        (key == "k" ? ov.k : ov.rel_floor) = x;
        return true;
    }
    return false;
}

namespace {

[[noreturn]] void override_fail(const std::string& path, std::size_t line,
                                const std::string& what) {
    throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

} // namespace

std::vector<Override> load_overrides(const std::string& path) {
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open override file " + path);

    std::vector<Override> out;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (const std::size_t hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string tok;
        Override ov;
        bool have_pattern = false;
        while (ls >> tok) {
            if (!have_pattern) {
                ov.pattern   = tok;
                have_pattern = true;
                continue;
            }
            if (tok == "skip") {
                ov.skip = true;
                continue;
            }
            const std::size_t eq = tok.find('=');
            if (eq == std::string::npos)
                override_fail(path, lineno, "expected key=value, got '" + tok + "'");
            const std::string key = tok.substr(0, eq);
            const std::string val = tok.substr(eq + 1);
            if (key == "direction") {
                if (val == "higher")
                    ov.direction = Direction::HigherBetter;
                else if (val == "lower")
                    ov.direction = Direction::LowerBetter;
                else if (val == "untracked")
                    ov.direction = Direction::Untracked;
                else
                    override_fail(path, lineno,
                                  "direction must be higher|lower|untracked");
                continue;
            }
            try {
                if (!parse_gate_setting(key, val, ov))
                    override_fail(path, lineno, "unknown key '" + key + "'");
            } catch (const std::invalid_argument& e) {
                override_fail(path, lineno, e.what());
            }
        }
        if (have_pattern)
            out.push_back(std::move(ov));
    }
    return out;
}

// ---------------------------------------------------------------- gate math

const char* status_name(Status s) noexcept {
    switch (s) {
    case Status::Ok:           return "ok";
    case Status::Regression:   return "regression";
    case Status::Improvement:  return "improvement";
    case Status::Insufficient: return "insufficient";
    case Status::Stale:        return "stale";
    case Status::Untracked:    return "untracked";
    case Status::Skipped:      return "skipped";
    }
    return "?";
}

namespace {

const char* direction_name(Direction d) noexcept {
    switch (d) {
    case Direction::HigherBetter: return "higher_better";
    case Direction::LowerBetter:  return "lower_better";
    case Direction::Untracked:    return "untracked";
    }
    return "?";
}

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The per-(series, commit) averages, seq-ordered — the single query all
// gate analysis hangs off (the dogfooding boundary: below this line only
// result *rows* are touched, never history records).
constexpr const char* kSeriesQuery =
    "SELECT bd.bench, bd.metric, bd.seq, bd.commit, avg(bd.value) AS value "
    "AGGREGATE avg(bd.value) AS value "
    "GROUP BY bd.bench, bd.metric, bd.seq, bd.commit "
    "ORDER BY bd.bench, bd.metric, bd.seq";

struct Point {
    std::uint64_t seq = 0;
    double value      = 0.0;
    std::string commit;
};

struct Series {
    std::string bench;
    std::string metric;
    std::vector<Point> points; ///< seq-ascending
};

} // namespace

GateReport run_gate(const std::string& history_path,
                    const GateConfig& defaults,
                    const std::vector<Override>& overrides,
                    std::size_t threads) {
    GateReport report;
    {
        std::ifstream probe(history_path, std::ios::binary);
        if (!probe)
            return report;
    }

    const std::vector<RecordMap> rows =
        history_query(history_path, kSeriesQuery, threads);
    if (rows.empty())
        return report;

    // assemble contiguous (bench, metric) series from the ordered rows
    std::vector<Series> series;
    std::uint64_t latest = 0;
    for (const RecordMap& r : rows) {
        std::string bench  = r.get("bd.bench").to_string();
        std::string metric = r.get("bd.metric").to_string();
        Point p;
        p.seq    = r.get("bd.seq").to_uint();
        p.value  = r.get("value").to_double();
        p.commit = r.get("bd.commit").to_string();
        latest   = std::max(latest, p.seq);
        if (series.empty() || series.back().bench != bench ||
            series.back().metric != metric) {
            series.push_back({std::move(bench), std::move(metric), {}});
        }
        series.back().points.push_back(std::move(p));
    }
    report.seq = latest;

    for (const Series& s : series) {
        Verdict v;
        v.bench     = s.bench;
        v.metric    = s.metric;
        v.direction = classify_metric(s.metric);

        GateConfig cfg = defaults;
        bool skip      = false;
        const std::string key = s.bench + "/" + s.metric;
        for (const Override& ov : overrides) {
            if (!glob_match(ov.pattern, key))
                continue;
            cfg = ov.apply(cfg);
            if (ov.direction)
                v.direction = *ov.direction;
            if (ov.skip)
                skip = true;
        }

        const Point& newest = s.points.back();
        v.current           = newest.value;
        if (newest.seq == latest && report.commit.empty())
            report.commit = newest.commit;

        if (skip) {
            v.status = Status::Skipped;
        } else if (newest.seq != latest) {
            v.status = Status::Stale;
        } else if (v.direction == Direction::Untracked) {
            v.status = Status::Untracked;
        } else {
            // trailing baseline window, excluding the point under test
            std::vector<double> prior;
            const std::size_t n = s.points.size() - 1;
            const std::size_t lo = n > cfg.window ? n - cfg.window : 0;
            for (std::size_t i = lo; i < n; ++i)
                prior.push_back(s.points[i].value);
            v.n_baseline = prior.size();

            if (prior.size() < cfg.min_samples) {
                v.status = Status::Insufficient;
            } else {
                v.baseline = median_of(prior);
                std::vector<double> dev;
                dev.reserve(prior.size());
                for (double x : prior)
                    dev.push_back(std::fabs(x - v.baseline));
                v.sigma     = 1.4826 * median_of(std::move(dev));
                v.threshold = std::max(cfg.k * v.sigma,
                                       cfg.rel_floor * std::fabs(v.baseline));
                v.delta     = v.current - v.baseline;
                v.ratio     = v.baseline != 0.0 ? v.current / v.baseline : 0.0;

                const double bad =
                    v.direction == Direction::LowerBetter ? v.delta : -v.delta;
                v.status = bad > v.threshold      ? Status::Regression
                           : bad < -v.threshold   ? Status::Improvement
                                                  : Status::Ok;
                ++report.gated;
                if (v.status == Status::Regression)
                    ++report.regressions;
                else if (v.status == Status::Improvement)
                    ++report.improvements;
            }
        }
        report.verdicts.push_back(std::move(v));
    }
    return report;
}

// ------------------------------------------------------------------ reports

namespace {

std::string fmt_num(double v) {
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::string fmt_pct(double frac) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", frac * 100.0);
    return buf;
}

} // namespace

void write_report_table(std::ostream& os, const GateReport& report,
                        bool verbose) {
    os << "benchdiff gate: commit "
       << (report.commit.empty() ? "unknown" : report.commit) << " seq "
       << report.seq << ": " << report.regressions << " regression(s), "
       << report.improvements << " improvement(s), " << report.gated
       << " gated of " << report.verdicts.size() << " series\n";
    for (const Verdict& v : report.verdicts) {
        const bool quiet = v.status == Status::Ok || v.status == Status::Stale ||
                           v.status == Status::Untracked ||
                           v.status == Status::Skipped;
        if (quiet && !verbose)
            continue;
        char status[16];
        std::snprintf(status, sizeof(status), "%-12s", status_name(v.status));
        os << "  " << status << " " << v.bench << "/" << v.metric;
        if (v.status == Status::Regression || v.status == Status::Improvement ||
            v.status == Status::Ok) {
            os << "  current=" << fmt_num(v.current)
               << " baseline=" << fmt_num(v.baseline) << " ("
               << fmt_pct(v.baseline != 0.0 ? v.delta / std::fabs(v.baseline)
                                            : 0.0)
               << ", threshold ±"
               << fmt_num(v.baseline != 0.0
                              ? 100.0 * v.threshold / std::fabs(v.baseline)
                              : v.threshold)
               << (v.baseline != 0.0 ? "%" : "") << ", n=" << v.n_baseline
               << ")";
        } else if (v.status == Status::Insufficient) {
            os << "  current=" << fmt_num(v.current) << " (n=" << v.n_baseline
               << " baseline samples, need more)";
        }
        os << "\n";
    }
}

void write_report_json(std::ostream& os, const GateReport& report) {
    os << "[\n";
    for (const Verdict& v : report.verdicts) {
        os << "{\"kind\": \"verdict\", \"bench\": \"" << json_escape(v.bench)
           << "\", \"metric\": \"" << json_escape(v.metric)
           << "\", \"status\": \"" << status_name(v.status)
           << "\", \"direction\": \"" << direction_name(v.direction)
           << "\", \"current\": " << fmt_num(v.current)
           << ", \"baseline\": " << fmt_num(v.baseline)
           << ", \"sigma\": " << fmt_num(v.sigma)
           << ", \"threshold\": " << fmt_num(v.threshold)
           << ", \"delta\": " << fmt_num(v.delta)
           << ", \"ratio\": " << fmt_num(v.ratio)
           << ", \"n_baseline\": " << v.n_baseline << "},\n";
    }
    os << "{\"kind\": \"summary\", \"commit\": \""
       << json_escape(report.commit.empty() ? "unknown" : report.commit)
       << "\", \"seq\": " << report.seq
       << ", \"series\": " << report.verdicts.size()
       << ", \"gated\": " << report.gated
       << ", \"regressions\": " << report.regressions
       << ", \"improvements\": " << report.improvements
       << ", \"failed\": " << (report.failed() ? 1 : 0) << "}\n]\n";
}

} // namespace calib::benchdiff
