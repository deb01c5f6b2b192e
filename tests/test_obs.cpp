// Tests for the self-profiling subsystem (src/obs): instrument semantics,
// concurrent writers, the disabled no-op guarantee, phase nesting, and the
// stats-JSON round trip through calib's own JSON reader.
//
// Instruments are process-global statics shared with the rest of the
// library, so every test snapshots values as *deltas* and restores the
// disabled state on exit.
#include "calib.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <thread>
#include <vector>

using namespace calib;

namespace {

// Enable metrics for one test and restore the default (disabled) state
// afterwards so suites running later in this process see a clean registry.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_enabled(true);
        obs::MetricsRegistry::instance().reset();
    }
    void TearDown() override {
        obs::MetricsRegistry::instance().reset();
        obs::set_enabled(false);
    }
};

// Test-local instruments. Registration is global and permanent, so these
// live at namespace scope like the library's own instruments do.
obs::Counter t_counter("test.counter");
obs::Gauge t_gauge("test.gauge");
obs::Timer t_timer("test.timer");
obs::Histogram t_histogram("test.histogram");

} // namespace

TEST_F(ObsTest, CounterCountsAndResets) {
    t_counter.add();
    t_counter.add(41);
    EXPECT_EQ(t_counter.value(), 42u);
    EXPECT_EQ(obs::MetricsRegistry::instance().value("test.counter"), 42);
    t_counter.reset();
    EXPECT_EQ(t_counter.value(), 0u);
}

TEST_F(ObsTest, ConcurrentCounterWritersSumExactly) {
    constexpr int kThreads = 8;
    constexpr int kAdds    = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < kAdds; ++i)
                t_counter.add();
        });
    for (auto& w : workers)
        w.join();
    EXPECT_EQ(t_counter.value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, ConcurrentTimerWritersAggregate) {
    constexpr int kThreads = 4;
    constexpr int kRecords = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([t] {
            for (int i = 0; i < kRecords; ++i)
                t_timer.record(static_cast<std::uint64_t>(t + 1));
        });
    for (auto& w : workers)
        w.join();
    EXPECT_EQ(t_timer.count(), static_cast<std::uint64_t>(kThreads) * kRecords);
    // sum over threads t of kRecords * (t+1)
    EXPECT_EQ(t_timer.total_ns(), kRecords * (1ull + 2 + 3 + 4));
    EXPECT_EQ(t_timer.max_ns(), static_cast<std::uint64_t>(kThreads));
}

TEST_F(ObsTest, DisabledInstrumentsAreNoOps) {
    obs::set_enabled(false);
    t_counter.add(100);
    t_gauge.set(7);
    t_gauge.add(3);
    t_timer.record(999);
    t_histogram.record(512);
    {
        obs::Timer::Scope scope(t_timer);
        obs::Phase phase("disabled-phase");
    }
    EXPECT_EQ(t_counter.value(), 0u);
    EXPECT_EQ(t_gauge.value(), 0);
    EXPECT_EQ(t_timer.count(), 0u);
    EXPECT_EQ(t_histogram.count(), 0u);
    EXPECT_TRUE(obs::MetricsRegistry::instance().phases().empty());
}

TEST_F(ObsTest, GaugeSetAndAdd) {
    t_gauge.set(10);
    t_gauge.add(-3);
    EXPECT_EQ(t_gauge.value(), 7);
    EXPECT_EQ(obs::MetricsRegistry::instance().value("test.gauge"), 7);
}

TEST_F(ObsTest, TimerScopeRecordsElapsedTime) {
    {
        obs::Timer::Scope scope(t_timer);
        // any nonzero amount of work
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
    }
    EXPECT_EQ(t_timer.count(), 1u);
    EXPECT_GT(t_timer.total_ns(), 0u);
    EXPECT_EQ(t_timer.max_ns(), t_timer.total_ns());
}

TEST_F(ObsTest, SpanTimerExcludesPausedWork) {
    const std::uint64_t wall_start = obs::now_ns();
    {
        obs::SpanTimer span(t_timer);
        span.pause();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        span.resume();
    }
    const std::uint64_t wall = obs::now_ns() - wall_start;
    ASSERT_EQ(t_timer.count(), 1u);
    // the 20ms sleep happened while paused, so the recorded exclusive
    // time must be well under the wall time of the block
    EXPECT_LT(t_timer.total_ns(), wall / 2);
}

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
    t_histogram.record(0);
    t_histogram.record(1);
    t_histogram.record(100);
    t_histogram.record(1000);
    EXPECT_EQ(t_histogram.count(), 4u);
    EXPECT_EQ(t_histogram.sum(), 1101u);
    EXPECT_EQ(t_histogram.max(), 1000u);
    // p50 falls in the bucket holding 1 (cumulative 2/4 >= 0.5*4)
    EXPECT_LE(t_histogram.quantile(0.5), 127u);
    // p99 falls in the bucket covering 1000: [512, 1024)
    EXPECT_GE(t_histogram.quantile(0.99), 1000u);
    EXPECT_LE(t_histogram.quantile(0.99), 1023u);
    EXPECT_EQ(t_histogram.quantile(0.0), 0u);
}

TEST_F(ObsTest, PhaseNestingBuildsPaths) {
    {
        obs::Phase outer("outer");
        { obs::Phase inner("inner"); }
        { obs::Phase inner("inner"); }
    }
    { obs::Phase flat("flat"); }
    const std::vector<obs::PhaseSample> phases =
        obs::MetricsRegistry::instance().phases();
    ASSERT_EQ(phases.size(), 3u);
    // inner scopes close (and record) before outer does
    EXPECT_EQ(phases[0].path, "outer/inner");
    EXPECT_EQ(phases[0].count, 2u);
    EXPECT_EQ(phases[1].path, "outer");
    EXPECT_EQ(phases[1].count, 1u);
    EXPECT_EQ(phases[2].path, "flat");
    EXPECT_EQ(phases[2].count, 1u);
}

TEST_F(ObsTest, RegistryFindAndMissingNames) {
    t_counter.add(5);
    const auto sample = obs::MetricsRegistry::instance().find("test.counter");
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->kind, obs::Kind::Counter);
    EXPECT_EQ(sample->value, 5);
    EXPECT_FALSE(
        obs::MetricsRegistry::instance().find("no.such.metric").has_value());
    EXPECT_EQ(obs::MetricsRegistry::instance().value("no.such.metric"), 0);
}

TEST_F(ObsTest, ResetClearsInstrumentsAndPhases) {
    t_counter.add(3);
    t_gauge.set(4);
    t_timer.record(5);
    t_histogram.record(6);
    { obs::Phase phase("reset-me"); }
    obs::MetricsRegistry::instance().reset();
    EXPECT_EQ(t_counter.value(), 0u);
    EXPECT_EQ(t_gauge.value(), 0);
    EXPECT_EQ(t_timer.count(), 0u);
    EXPECT_EQ(t_histogram.count(), 0u);
    EXPECT_TRUE(obs::MetricsRegistry::instance().phases().empty());
}

TEST_F(ObsTest, StatsJsonRoundTripsThroughJsonReader) {
    t_counter.add(42);
    t_gauge.set(-3);
    t_timer.record(1000);
    t_histogram.record(64);
    { obs::Phase phase("roundtrip"); }

    std::ostringstream os;
    obs::write_stats_json(os);
    const std::string json = os.str();

    // calib's own JSON reader parses the report (the schema is the same
    // flat record-array shape FORMAT json emits)
    const std::vector<RecordMap> records = read_json_records(json);
    ASSERT_FALSE(records.empty());

    auto find_record = [&records](const char* kind, const char* name) {
        for (const RecordMap& r : records)
            if (r.get("kind").to_string() == kind &&
                r.get("name").to_string() == name)
                return r;
        ADD_FAILURE() << "no record kind=" << kind << " name=" << name;
        return RecordMap{};
    };

    EXPECT_EQ(find_record("counter", "test.counter").get("value").to_int(), 42);
    EXPECT_EQ(find_record("gauge", "test.gauge").get("value").to_int(), -3);
    const RecordMap timer = find_record("timer", "test.timer");
    EXPECT_EQ(timer.get("count").to_int(), 1);
    EXPECT_GT(timer.get("total_s").to_double(), 0.0);
    const RecordMap hist = find_record("histogram", "test.histogram");
    EXPECT_EQ(hist.get("count").to_int(), 1);
    EXPECT_EQ(hist.get("sum").to_int(), 64);
    const RecordMap phase = find_record("phase", "roundtrip");
    EXPECT_EQ(phase.get("count").to_int(), 1);

    // and the full query pipeline can aggregate it
    const std::vector<RecordMap> out =
        run_query("SELECT name,value WHERE kind=counter,name=test.counter",
                  records);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("value").to_int(), 42);
}

TEST_F(ObsTest, StatsJsonFileWriteFailsGracefully) {
    EXPECT_FALSE(obs::write_stats_json_file("/nonexistent-dir/stats.json"));
}

TEST_F(ObsTest, ReaderInstrumentsCountRecords) {
    std::istringstream is(R"([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])");
    std::size_t n = 0;
    auto& mreg    = obs::MetricsRegistry::instance();
    const std::int64_t records0 = mreg.value("reader.records");
    const std::int64_t entries0 = mreg.value("reader.entries");
    read_json_records(is, [&n](RecordMap&&) { ++n; });
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(mreg.value("reader.records") - records0, 2);
    EXPECT_EQ(mreg.value("reader.entries") - entries0, 4);
}

TEST_F(ObsTest, HistogramBinPlacementMatchesLog2Bounds) {
    // bucket 0 holds the value 0; bucket b holds [2^(b-1), 2^b)
    t_histogram.record(0);
    t_histogram.record(1);    // bucket 1
    t_histogram.record(2);    // bucket 2
    t_histogram.record(3);    // bucket 2
    t_histogram.record(4);    // bucket 3
    t_histogram.record(1023); // bucket 10
    t_histogram.record(1024); // bucket 11
    EXPECT_EQ(t_histogram.bucket_count(0), 1u);
    EXPECT_EQ(t_histogram.bucket_count(1), 1u);
    EXPECT_EQ(t_histogram.bucket_count(2), 2u);
    EXPECT_EQ(t_histogram.bucket_count(3), 1u);
    EXPECT_EQ(t_histogram.bucket_count(10), 1u);
    EXPECT_EQ(t_histogram.bucket_count(11), 1u);

    // the le bounds quantile() reports are the bucket upper bounds
    EXPECT_EQ(obs::Histogram::bucket_upper_bound(0), 0u);
    EXPECT_EQ(obs::Histogram::bucket_upper_bound(1), 1u);
    EXPECT_EQ(obs::Histogram::bucket_upper_bound(2), 3u);
    EXPECT_EQ(obs::Histogram::bucket_upper_bound(10), 1023u);

    // snapshot carries cumulative (le, count) pairs up to the last
    // occupied bucket — the Prometheus exposition reads these directly
    const std::optional<obs::Sample> found =
        obs::MetricsRegistry::instance().find("test.histogram");
    ASSERT_TRUE(found.has_value());
    const obs::Sample& s = *found;
    ASSERT_FALSE(s.buckets.empty());
    EXPECT_EQ(s.buckets.front().first, 0u);
    EXPECT_EQ(s.buckets.front().second, 1u);
    EXPECT_EQ(s.buckets.back().first, 2047u);
    EXPECT_EQ(s.buckets.back().second, 7u);
    for (std::size_t i = 1; i < s.buckets.size(); ++i) {
        EXPECT_LT(s.buckets[i - 1].first, s.buckets[i].first);
        EXPECT_LE(s.buckets[i - 1].second, s.buckets[i].second);
    }
}

TEST_F(ObsTest, TimerMaxMergesAcrossShards) {
    // distinct threads land in distinct shards; the reported max must be
    // the global maximum, and count/total the exact sums
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([t] {
            t_timer.record(100 * (t + 1));
            t_timer.record(10);
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(t_timer.count(), 16u);
    EXPECT_EQ(t_timer.total_ns(), 100u * 36u + 8u * 10u);
    EXPECT_EQ(t_timer.max_ns(), 800u);
}

TEST_F(ObsTest, TraceCapturesNestedSpansWithPhasePaths) {
    obs::set_trace_enabled(true);
    obs::trace_reset();
    {
        obs::Phase outer("touter");
        {
            obs::Phase inner("tinner");
            obs::SpanTimer span(t_timer); // traces under the enclosing phases
            span.stop();
        }
    }
    obs::set_trace_enabled(false);

    const std::vector<obs::TraceEvent> events = obs::trace_events();
    ASSERT_EQ(events.size(), 3u);
    // children complete before parents: span, inner, outer
    EXPECT_EQ(events[0].path, "touter/tinner/test.timer");
    EXPECT_STREQ(events[0].cat, "span");
    EXPECT_EQ(events[1].path, "touter/tinner");
    EXPECT_STREQ(events[1].cat, "phase");
    EXPECT_EQ(events[2].path, "touter");
    // a nested span starts no earlier and ends no later than its parent
    EXPECT_GE(events[1].start_ns, events[2].start_ns);
    EXPECT_LE(events[1].start_ns + events[1].dur_ns,
              events[2].start_ns + events[2].dur_ns);
    obs::trace_reset();
}

TEST_F(ObsTest, TraceWorksWithMetricsDisabled) {
    obs::set_enabled(false); // tracing is independent of the metrics switch
    obs::set_trace_enabled(true);
    obs::trace_reset();
    { obs::Phase only("tsolo"); }
    obs::set_trace_enabled(false);
    ASSERT_EQ(obs::trace_events().size(), 1u);
    EXPECT_EQ(obs::trace_events()[0].path, "tsolo");
    obs::trace_reset();
    obs::set_enabled(true); // fixture TearDown expects it on
}

TEST_F(ObsTest, TraceJsonIsAQueryableRecordArray) {
    obs::set_trace_enabled(true);
    obs::trace_reset();
    {
        obs::Phase outer("qouter");
        { obs::Phase inner("qinner"); }
    }
    obs::set_trace_enabled(false);

    std::ostringstream os;
    obs::write_trace_json(os);
    // well-formed trace_event JSON: parseable as a flat record array with
    // ph/name/ts/dur on every event, nesting recorded in "path"
    const std::vector<RecordMap> events = read_json_records(os.str());
    ASSERT_EQ(events.size(), 2u);
    for (const RecordMap& ev : events) {
        EXPECT_EQ(ev.get("ph").to_string(), "X");
        EXPECT_EQ(ev.get("cat").to_string(), "phase");
        EXPECT_FALSE(ev.get("name").to_string().empty());
        EXPECT_GE(ev.get("ts").to_double(), 0.0);
        EXPECT_GE(ev.get("dur").to_double(), 0.0);
    }
    EXPECT_EQ(events[0].get("name").to_string(), "qinner");
    EXPECT_EQ(events[0].get("path").to_string(), "qouter/qinner");
    EXPECT_EQ(events[1].get("path").to_string(), "qouter");
    obs::trace_reset();
}
