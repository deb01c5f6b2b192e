// calib-benchdiff unit tests: JSON tree parsing, bench/stats
// normalization, history append/query round-trips, and the noise-aware
// regression gate (the acceptance pair: an injected 2x slowdown is
// flagged by name, a noisy-but-flat series is not).
#include "benchdiff/analysis.hpp"
#include "benchdiff/history.hpp"
#include "io/json.hpp"

#include "io/jsonreader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace calib;
using namespace calib::benchdiff;

namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
public:
    explicit TempFile(const char* tag) {
        path_ = testing::TempDir() + "benchdiff_" + tag + "_" +
                std::to_string(::getpid()) + ".cali";
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

RunMeta test_meta(const std::string& commit) {
    RunMeta m;
    m.commit               = commit;
    m.timestamp            = "2026-01-01T00:00:00Z";
    m.time_s               = 1767225600;
    m.host                 = "testhost";
    m.hardware_concurrency = 8;
    return m;
}

/// Append one run where every (bench, metric) series takes the given value.
void append_run(const std::string& path, std::uint64_t seq,
                const std::vector<MetricSample>& samples) {
    append_history(path, samples, test_meta("c" + std::to_string(seq)), seq);
}

const Verdict* find_verdict(const GateReport& r, const std::string& metric) {
    for (const Verdict& v : r.verdicts)
        if (v.metric == metric)
            return &v;
    return nullptr;
}

} // namespace

// ----------------------------------------------------------------- JsonValue

TEST(BenchdiffJson, ParsesNestedDocument) {
    const JsonValue doc = parse_json(
        R"({"bench": "io", "n": 3, "neg": -1.5e2, "ok": true, "nothing": null,
            "results": [{"path": "mmap", "wall_s": 1.25}, {"path": "read"}]})");
    ASSERT_TRUE(doc.is_object());
    ASSERT_NE(doc.find("bench"), nullptr);
    EXPECT_EQ(doc.find("bench")->string, "io");
    EXPECT_DOUBLE_EQ(doc.find("n")->number, 3.0);
    EXPECT_DOUBLE_EQ(doc.find("neg")->number, -150.0);
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("nothing")->type, JsonValue::Type::Null);
    const JsonValue* results = doc.find("results");
    ASSERT_TRUE(results && results->is_array());
    ASSERT_EQ(results->array.size(), 2u);
    EXPECT_DOUBLE_EQ(results->array[0].find("wall_s")->number, 1.25);
}

TEST(BenchdiffJson, DecodesStringEscapes) {
    const JsonValue v = parse_json(R"({"s": "a\"b\\c\nAé"})");
    EXPECT_EQ(v.find("s")->string, "a\"b\\c\nA\xC3\xA9");
}

TEST(BenchdiffJson, RejectsMalformedInput) {
    EXPECT_THROW(parse_json("{"), std::runtime_error);
    EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
    EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
    EXPECT_THROW(parse_json("tru"), std::runtime_error);
    EXPECT_THROW(parse_json("1.2.3"), std::runtime_error);
}

// ------------------------------------------------------------ classification

TEST(BenchdiffHistory, ClassifiesMetricDirections) {
    EXPECT_EQ(classify_metric("ingest.mmap.records_per_sec"),
              Direction::HigherBetter);
    EXPECT_EQ(classify_metric("engine.threads4.speedup"),
              Direction::HigherBetter);
    EXPECT_EQ(classify_metric("speedup"), Direction::HigherBetter);
    EXPECT_EQ(classify_metric("wall_s"), Direction::LowerBetter);
    EXPECT_EQ(classify_metric("results.enabled.ns_per_record"),
              Direction::LowerBetter);
    EXPECT_EQ(classify_metric("proxyd.batch_ns.p99"), Direction::LowerBetter);
    EXPECT_EQ(classify_metric("disabled.overhead_pct"), Direction::LowerBetter);
    EXPECT_EQ(classify_metric("records"), Direction::Untracked);
    EXPECT_EQ(classify_metric("groups"), Direction::Untracked);
}

// -------------------------------------------------------------- normalization

TEST(BenchdiffHistory, NormalizesBenchJsonWithArrayLabels) {
    RunMeta meta;
    const JsonValue doc = parse_json(
        R"({"bench": "io", "meta": {"commit": "abc123", "host": "h1",
            "hardware_concurrency": 16},
            "file_bytes": 1024, "identical_output": true,
            "ingest": [{"path": "mmap", "records_per_sec": 2e6},
                       {"path": "getline", "records_per_sec": 1e6}],
            "engine": [{"threads": 1, "wall_s": 4.0},
                       {"threads": 4, "wall_s": 1.0}]})");
    const std::vector<MetricSample> s = normalize_bench_json(doc, "", meta);

    EXPECT_EQ(meta.commit, "abc123");
    EXPECT_EQ(meta.host, "h1");
    EXPECT_EQ(meta.hardware_concurrency, 16u);

    auto value_of = [&](const std::string& metric) -> double {
        for (const MetricSample& m : s) {
            EXPECT_EQ(m.bench, "io");
            if (m.metric == metric)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << metric;
        return -1;
    };
    EXPECT_DOUBLE_EQ(value_of("file_bytes"), 1024);
    EXPECT_DOUBLE_EQ(value_of("ingest.mmap.records_per_sec"), 2e6);
    EXPECT_DOUBLE_EQ(value_of("ingest.getline.records_per_sec"), 1e6);
    EXPECT_DOUBLE_EQ(value_of("engine.threads4.wall_s"), 1.0);
    // booleans and the discriminator members are not samples
    for (const MetricSample& m : s) {
        EXPECT_EQ(m.metric.find("identical_output"), std::string::npos);
        EXPECT_EQ(m.metric.find("path"), std::string::npos);
    }
}

TEST(BenchdiffHistory, NormalizesStatsJsonRecords) {
    const std::vector<RecordMap> records = read_json_records(R"([
      {"kind": "meta", "commit": "st1", "host": "h2", "hardware_concurrency": 4},
      {"kind": "phase", "name": "process/merge", "count": 3, "total_s": 0.5},
      {"kind": "timer", "name": "reader.parse", "count": 9, "total_s": 1.25},
      {"kind": "timer", "name": "phase.process", "count": 1, "total_s": 2.0},
      {"kind": "counter", "name": "reader.records", "value": 1000},
      {"kind": "gauge", "name": "pool.queue_depth", "value": 3},
      {"kind": "histogram", "name": "batch_ns", "count": 10, "sum": 100,
       "mean": 10, "p99": 31}
    ])");
    RunMeta meta;
    const std::vector<MetricSample> s =
        normalize_stats_json(records, "stats:test", meta);

    EXPECT_EQ(meta.commit, "st1");
    EXPECT_EQ(meta.hardware_concurrency, 4u);

    std::vector<std::string> metrics;
    for (const MetricSample& m : s)
        metrics.push_back(m.metric);
    EXPECT_NE(std::find(metrics.begin(), metrics.end(),
                        "phase.process/merge.total_s"),
              metrics.end());
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), "reader.parse.total_s"),
              metrics.end());
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), "reader.records"),
              metrics.end());
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), "batch_ns.mean"),
              metrics.end());
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), "batch_ns.p99"),
              metrics.end());
    // phase.* timers duplicate phase rows; gauges are instantaneous
    EXPECT_EQ(std::find(metrics.begin(), metrics.end(), "phase.process.total_s"),
              metrics.end());
    EXPECT_EQ(std::find(metrics.begin(), metrics.end(), "pool.queue_depth"),
              metrics.end());
}

// -------------------------------------------------------- history round-trip

TEST(BenchdiffHistory, AppendAndQueryRoundTrip) {
    TempFile hist("roundtrip");
    EXPECT_EQ(next_seq(hist.path()), 0u);

    append_run(hist.path(), 0, {{"b", "m1", 1.0}, {"b", "m2", 10.0}});
    EXPECT_EQ(next_seq(hist.path()), 1u);
    append_run(hist.path(), 1, {{"b", "m1", 2.0}, {"b", "m2", 20.0}});
    EXPECT_EQ(next_seq(hist.path()), 2u);

    // appended segments concatenate into one queryable stream
    const std::vector<RecordMap> rows = history_query(
        hist.path(), "AGGREGATE sum(bd.value) AS total GROUP BY bd.metric "
                     "ORDER BY bd.metric");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].get("bd.metric").to_string(), "m1");
    EXPECT_DOUBLE_EQ(rows[0].get("total").to_double(), 3.0);
    EXPECT_DOUBLE_EQ(rows[1].get("total").to_double(), 30.0);

    // stamps survive the round trip
    const std::vector<RecordMap> stamped = history_query(
        hist.path(), "AGGREGATE count GROUP BY bd.commit,bd.host,bd.hw "
                     "ORDER BY bd.commit");
    ASSERT_EQ(stamped.size(), 2u);
    EXPECT_EQ(stamped[0].get("bd.commit").to_string(), "c0");
    EXPECT_EQ(stamped[0].get("bd.host").to_string(), "testhost");
    EXPECT_EQ(stamped[0].get("bd.hw").to_uint(), 8u);
}

// ----------------------------------------------------------------- the gate

TEST(BenchdiffGate, FlagsInjectedRegressionButNotNoisyFlatSeries) {
    TempFile hist("gate");
    // quiet.wall_s: flat at 1.0 then jumps 2x on the newest run.
    // noisy.wall_s: bounces between 1.0 and 1.6 the whole time (scatter
    // far beyond 5%), ends on an ordinary bounce — must NOT be flagged.
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
        const double quiet = 1.0 + 0.001 * static_cast<double>(seq % 3);
        const double noisy = (seq % 2) ? 1.6 : 1.0;
        append_run(hist.path(), seq,
                   {{"b", "quiet.wall_s", quiet}, {"b", "noisy.wall_s", noisy}});
    }
    append_run(hist.path(), 10,
               {{"b", "quiet.wall_s", 2.0}, {"b", "noisy.wall_s", 1.6}});

    const GateReport report = run_gate(hist.path(), GateConfig{}, {});
    EXPECT_TRUE(report.failed());
    EXPECT_EQ(report.regressions, 1u);
    EXPECT_EQ(report.commit, "c10");

    const Verdict* quiet = find_verdict(report, "quiet.wall_s");
    ASSERT_NE(quiet, nullptr);
    EXPECT_EQ(quiet->status, Status::Regression);
    EXPECT_NEAR(quiet->ratio, 2.0, 0.01);

    const Verdict* noisy = find_verdict(report, "noisy.wall_s");
    ASSERT_NE(noisy, nullptr);
    EXPECT_EQ(noisy->status, Status::Ok)
        << "noisy-but-flat series must not trip the gate";

    // the JSON report names the regressed metric and is a record array
    // cali-query could consume
    std::ostringstream json;
    write_report_json(json, report);
    const std::vector<RecordMap> rows = read_json_records(json.str());
    bool found_regression = false;
    for (const RecordMap& r : rows) {
        if (r.get("kind").to_string() == "verdict" &&
            r.get("status").to_string() == "regression") {
            EXPECT_EQ(r.get("metric").to_string(), "quiet.wall_s");
            found_regression = true;
        }
        if (r.get("kind").to_string() == "summary") {
            EXPECT_EQ(r.get("regressions").to_uint(), 1u);
            EXPECT_EQ(r.get("failed").to_uint(), 1u);
        }
    }
    EXPECT_TRUE(found_regression);
}

TEST(BenchdiffGate, RespectsDirectionForThroughputMetrics) {
    TempFile hist("direction");
    for (std::uint64_t seq = 0; seq < 8; ++seq)
        append_run(hist.path(), seq, {{"b", "x.records_per_sec", 1e6}});
    // throughput *drops* 2x: regression even though the value went down
    append_run(hist.path(), 8, {{"b", "x.records_per_sec", 5e5}});

    const GateReport report = run_gate(hist.path(), GateConfig{}, {});
    const Verdict* v = find_verdict(report, "x.records_per_sec");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->status, Status::Regression);

    // and a throughput *gain* is an improvement, not a failure
    append_run(hist.path(), 9, {{"b", "x.records_per_sec", 4e6}});
    const GateReport report2 = run_gate(hist.path(), GateConfig{}, {});
    EXPECT_FALSE(report2.failed());
    EXPECT_EQ(find_verdict(report2, "x.records_per_sec")->status,
              Status::Improvement);
}

TEST(BenchdiffGate, MinimumSampleFloorReportsInsufficient) {
    TempFile hist("floor");
    append_run(hist.path(), 0, {{"b", "y.wall_s", 1.0}});
    append_run(hist.path(), 1, {{"b", "y.wall_s", 9.0}}); // would be 9x...

    const GateReport report = run_gate(hist.path(), GateConfig{}, {});
    const Verdict* v = find_verdict(report, "y.wall_s");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->status, Status::Insufficient); // ...but only 1 baseline point
    EXPECT_FALSE(report.failed());
}

TEST(BenchdiffGate, UntrackedAndStaleSeriesNeverGate) {
    TempFile hist("stale");
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
        std::vector<MetricSample> run = {{"b", "records", 100.0},
                                         {"b", "z.wall_s", 1.0}};
        if (seq < 5) // vanished series: absent from the newest run
            run.push_back({"b", "old.wall_s", seq == 4 ? 50.0 : 1.0});
        append_run(hist.path(), seq, run);
    }
    const GateReport report = run_gate(hist.path(), GateConfig{}, {});
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(find_verdict(report, "records")->status, Status::Untracked);
    EXPECT_EQ(find_verdict(report, "old.wall_s")->status, Status::Stale);
}

TEST(BenchdiffGate, OverridesChangeThresholdsAndSkip) {
    TempFile hist("override");
    for (std::uint64_t seq = 0; seq < 8; ++seq)
        append_run(hist.path(), seq,
                   {{"b", "a.wall_s", 1.0}, {"b", "skipme.wall_s", 1.0}});
    append_run(hist.path(), 8,
               {{"b", "a.wall_s", 1.08}, {"b", "skipme.wall_s", 5.0}});

    // default 5% floor flags the 8% drift; a 20% floor forgives it, and
    // the skip pattern silences the genuine 5x jump
    Override widen;
    widen.pattern   = "b/a.*";
    widen.rel_floor = 0.20;
    Override skip;
    skip.pattern = "*/skipme.*";
    skip.skip    = true;

    const GateReport strict = run_gate(hist.path(), GateConfig{}, {skip});
    EXPECT_EQ(find_verdict(strict, "a.wall_s")->status, Status::Regression);
    EXPECT_EQ(find_verdict(strict, "skipme.wall_s")->status, Status::Skipped);

    const GateReport lenient =
        run_gate(hist.path(), GateConfig{}, {widen, skip});
    EXPECT_EQ(find_verdict(lenient, "a.wall_s")->status, Status::Ok);
    EXPECT_FALSE(lenient.failed());
}

TEST(BenchdiffGate, GlobMatching) {
    EXPECT_TRUE(glob_match("*", "anything/at.all"));
    EXPECT_TRUE(glob_match("io/*", "io/ingest.mmap.wall_s"));
    EXPECT_FALSE(glob_match("io/*", "proxyd/ingest.wall_s"));
    EXPECT_TRUE(glob_match("*/ingest.*.wall_s", "io/ingest.mmap.wall_s"));
    EXPECT_TRUE(glob_match("a?c", "abc"));
    EXPECT_FALSE(glob_match("a?c", "ac"));
    EXPECT_TRUE(glob_match("exact", "exact"));
    EXPECT_FALSE(glob_match("exact", "exact2"));
}

TEST(BenchdiffGate, LoadsOverrideFile) {
    TempFile file("overrides");
    {
        std::ofstream os(file.path());
        os << "# per-series gate tuning\n"
           << "io/* rel_floor=0.10 min_samples=6\n"
           << "*/groups direction=lower\n"
           << "proxyd/flaky.* skip window=5\n"
           << "\n";
    }
    const std::vector<Override> ovs = load_overrides(file.path());
    ASSERT_EQ(ovs.size(), 3u);
    EXPECT_EQ(ovs[0].pattern, "io/*");
    EXPECT_DOUBLE_EQ(*ovs[0].rel_floor, 0.10);
    EXPECT_EQ(*ovs[0].min_samples, 6u);
    EXPECT_FALSE(ovs[0].skip);
    EXPECT_EQ(*ovs[1].direction, Direction::LowerBetter);
    EXPECT_TRUE(ovs[2].skip);
    EXPECT_EQ(*ovs[2].window, 5u);

    {
        std::ofstream os(file.path());
        os << "io/* rel_floor=bogus\n";
    }
    EXPECT_THROW(load_overrides(file.path()), std::runtime_error);
}

TEST(BenchdiffGate, GateSettingsAreValidated) {
    // one parse for the check flags and the override file: window and
    // min_samples are integers >= 1, k and rel_floor finite and >= 0
    Override ov;
    EXPECT_TRUE(parse_gate_setting("window", "7", ov));
    EXPECT_TRUE(parse_gate_setting("min_samples", "1", ov));
    EXPECT_TRUE(parse_gate_setting("k", "2.5", ov));
    EXPECT_TRUE(parse_gate_setting("rel_floor", "0.0", ov)); // a valid floor
    EXPECT_EQ(*ov.window, 7u);
    EXPECT_EQ(*ov.min_samples, 1u);
    EXPECT_DOUBLE_EQ(*ov.k, 2.5);
    EXPECT_DOUBLE_EQ(*ov.rel_floor, 0.0);
    EXPECT_EQ(ov.apply(GateConfig{}).window, 7u);
    EXPECT_FALSE(parse_gate_setting("direction", "lower", ov));

    for (const char* bad : {"abc", "0", "-1", "3x", "", "1.5", " 2"}) {
        EXPECT_THROW(parse_gate_setting("window", bad, ov), std::invalid_argument)
            << bad;
        EXPECT_THROW(parse_gate_setting("min_samples", bad, ov),
                     std::invalid_argument)
            << bad;
    }
    for (const char* bad : {"foo", "-0.5", "inf", "nan", "1e999", "", "0.1x"}) {
        EXPECT_THROW(parse_gate_setting("k", bad, ov), std::invalid_argument) << bad;
        EXPECT_THROW(parse_gate_setting("rel_floor", bad, ov), std::invalid_argument)
            << bad;
    }
    // a rejected value leaves the setting as it was
    EXPECT_EQ(*ov.window, 7u);

    // the override file goes through the same parse and names file:line
    TempFile file("bad_overrides");
    for (const char* line : {"io/* window=0", "io/* min_samples=abc", "io/* k=-1",
                             "io/* rel_floor=nan"}) {
        {
            std::ofstream os(file.path());
            os << "# fine\nio/* rel_floor=0.0\n" << line << "\n";
        }
        try {
            load_overrides(file.path());
            ADD_FAILURE() << "accepted " << line;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(file.path() + ":3: "),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(BenchdiffGate, EmptyOrMissingHistoryYieldsEmptyReport) {
    const GateReport report =
        run_gate("/nonexistent/benchdiff-hist.cali", GateConfig{}, {});
    EXPECT_TRUE(report.verdicts.empty());
    EXPECT_FALSE(report.failed());
}
