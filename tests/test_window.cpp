// Windowed aggregation tests: pane arithmetic (the single shared
// pane_index), WindowedAggregator ring semantics (boundaries, out-of-order
// and late records, the missing/non-numeric timestamp policy of
// docs/CORRECTNESS.md), windowed QueryProcessor end-to-end behavior, and
// byte-identity of windowed queries across thread counts, merge
// strategies, and batch sizes.
#include "aggregate/window.hpp"
#include "aggregate/windowed_db.hpp"

#include "engine/parallel_processor.hpp"
#include "io/caliwriter.hpp"
#include "query/calql.hpp"
#include "query/processor.hpp"

#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

using namespace calib;
using calib::test::TempDir;
using calib::test::find_record;
using calib::test::record;

// ----------------------------------------------------------------- pane math

TEST(PaneIndex, FloorDivisionAndBoundary) {
    EXPECT_EQ(pane_index(0.0, 10), std::optional<std::int64_t>(0));
    EXPECT_EQ(pane_index(9.0, 10), std::optional<std::int64_t>(0));
    // a timestamp exactly on the pane edge opens the *new* pane
    EXPECT_EQ(pane_index(10.0, 10), std::optional<std::int64_t>(1));
    EXPECT_EQ(pane_index(19.999, 10), std::optional<std::int64_t>(1));
    EXPECT_EQ(pane_index(-1.0, 10), std::optional<std::int64_t>(-1));
    EXPECT_EQ(pane_index(-10.0, 10), std::optional<std::int64_t>(-1));
    EXPECT_EQ(pane_index(-10.5, 10), std::optional<std::int64_t>(-2));
}

TEST(PaneIndex, UnplaceableTimestamps) {
    EXPECT_FALSE(pane_index(1.0, 0).has_value()); // zero slide
    EXPECT_FALSE(pane_index(std::nan(""), 10).has_value());
    EXPECT_FALSE(pane_index(std::numeric_limits<double>::infinity(), 10).has_value());
    EXPECT_FALSE(pane_index(-std::numeric_limits<double>::infinity(), 10).has_value());
    EXPECT_FALSE(pane_index(1e30, 1).has_value()); // pane beyond 2^62
    EXPECT_FALSE(pane_index(-1e30, 1).has_value());
}

TEST(PaneIndex, VariantTypesAgree) {
    // Int / UInt / Double timestamps of equal value land in the same pane
    EXPECT_EQ(pane_index(Variant(static_cast<long long>(25)), 10),
              pane_index(Variant(25.0), 10));
    EXPECT_EQ(pane_index(Variant(static_cast<unsigned long long>(25)), 10),
              pane_index(Variant(25.0), 10));
    // non-numeric values have no timestamp
    EXPECT_FALSE(pane_index(Variant(), 10).has_value());
    EXPECT_FALSE(pane_index(Variant("3pm"), 10).has_value());
    EXPECT_FALSE(pane_index(Variant(true), 10).has_value());
}

// -------------------------------------------------------- WindowedAggregator

namespace {

class WindowTest : public ::testing::Test {
protected:
    WindowSpec window(std::uint64_t dur, std::uint64_t slide = 0) {
        WindowSpec w;
        w.duration_us = dur;
        w.slide_us    = slide;
        return w;
    }

    IdRecord rec(double t, const char* kernel) {
        IdRecord r;
        r.append(registry.create("time.offset", Variant::Type::Double).id(),
                 Variant(t));
        r.append(registry.create("kernel", Variant::Type::String).id(),
                 Variant(kernel));
        return r;
    }

    IdRecord rec_no_time(const char* kernel) {
        IdRecord r;
        r.append(registry.create("kernel", Variant::Type::String).id(),
                 Variant(kernel));
        return r;
    }

    /// Fold one record as a one-row batch.
    static void process(WindowedAggregator& agg, const IdRecord& r) {
        RecordBatch batch;
        batch.append_record(r);
        const std::uint32_t row = 0;
        agg.process_batch(batch, std::span<const std::uint32_t>(&row, 1));
    }

    AttributeRegistry registry;
};

std::uint64_t count_of(const std::vector<RecordMap>& rows, const char* kernel) {
    const RecordMap r = find_record(rows, "kernel", Variant(kernel));
    return r.get("count").to_uint();
}

} // namespace

TEST_F(WindowTest, TumblingWindowKeepsOnlyCurrentPane) {
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(10), &registry);
    process(agg, rec(1, "a"));
    process(agg, rec(2, "a"));
    EXPECT_EQ(agg.flush_rows().rows(), 1u);

    // crossing into pane 1 retires pane 0 (tumbling: one live pane)
    process(agg, rec(10, "b"));
    auto rows = agg.flush_rows().records();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(count_of(rows, "b"), 1u);
    EXPECT_EQ(agg.pane_count(), 1u);
}

TEST_F(WindowTest, SlidingWindowFoldsLivePanes) {
    // window 30us, slide 10us -> 3 live panes
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(30, 10), &registry);
    for (int pane = 0; pane < 5; ++pane)
        process(agg, rec(pane * 10 + 1, pane % 2 ? "odd" : "even"));

    // watermark = pane 4; live = panes {2, 3, 4}
    auto rows = agg.flush_rows().records();
    EXPECT_EQ(count_of(rows, "even"), 2u); // panes 2 and 4
    EXPECT_EQ(count_of(rows, "odd"), 1u);  // pane 3
    EXPECT_EQ(agg.pane_count(), 3u);
    EXPECT_EQ(agg.watermark(), std::optional<std::int64_t>(4));
}

TEST_F(WindowTest, BoundaryTimestampOpensNewPane) {
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(20, 10), &registry);
    process(agg, rec(9.999, "a")); // pane 0
    process(agg, rec(10, "b"));    // pane 1 — exactly on the edge
    process(agg, rec(20, "c"));    // pane 2; retires pane 0
    auto rows = agg.flush_rows().records();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(count_of(rows, "b"), 1u);
    EXPECT_EQ(count_of(rows, "c"), 1u);
}

TEST_F(WindowTest, OutOfOrderWithinWindowMerges) {
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(30, 10), &registry);
    process(agg, rec(25, "a")); // pane 2 (watermark)
    process(agg, rec(5, "a"));  // pane 0 — older but still live
    process(agg, rec(15, "a")); // pane 1
    process(agg, rec(26, "a")); // pane 2 again (duplicate timestamp region)
    auto rows = agg.flush_rows().records();
    EXPECT_EQ(count_of(rows, "a"), 4u);
    EXPECT_EQ(agg.dropped_late(), 0u);
}

TEST_F(WindowTest, LateRecordsDropDeterministically) {
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(20, 10), &registry);
    process(agg, rec(35, "a")); // watermark pane 3; live floor = pane 2
    process(agg, rec(5, "b"));  // pane 0: late, dropped
    process(agg, rec(19, "b")); // pane 1: late, dropped
    process(agg, rec(25, "c")); // pane 2: still live
    auto rows = agg.flush_rows().records();
    EXPECT_EQ(rows.size(), 2u);
    EXPECT_EQ(agg.dropped_late(), 2u);
    EXPECT_EQ(count_of(rows, "c"), 1u);
}

TEST_F(WindowTest, MissingAndNonNumericTimestampsDropAndCount) {
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(10), &registry);
    process(agg, rec(1, "a"));
    process(agg, rec_no_time("a")); // no time.offset at all
    IdRecord bad;
    bad.append(registry.create("time.offset", Variant::Type::Double).id(),
               Variant("noon")); // non-numeric timestamp
    bad.append(registry.create("kernel", Variant::Type::String).id(),
               Variant("a"));
    process(agg, bad);
    IdRecord nan_rec = rec(std::nan(""), "a");
    process(agg, nan_rec);

    auto rows = agg.flush_rows().records();
    EXPECT_EQ(count_of(rows, "a"), 1u); // only the timestamped record counts
    EXPECT_EQ(agg.dropped_no_time(), 3u);
}

TEST_F(WindowTest, SerializeRoundTripMatchesDirect) {
    const auto cfg = AggregationConfig::parse("count,sum(v)", "kernel");
    WindowedAggregator direct(cfg, window(30, 10), &registry);
    WindowedAggregator part1(cfg, window(30, 10), &registry);
    WindowedAggregator part2(cfg, window(30, 10), &registry);

    const auto feed = [&](WindowedAggregator& a, double t, const char* k) {
        IdRecord r = rec(t, k);
        r.append(registry.create("v", Variant::Type::Int).id(),
                 Variant(static_cast<long long>(t)));
        process(a, r);
    };
    for (int i = 0; i < 20; ++i) {
        feed(direct, i * 3.0, i % 2 ? "x" : "y");
        feed(i % 2 ? part1 : part2, i * 3.0, i % 2 ? "x" : "y");
    }

    WindowedAggregator merged(cfg, window(30, 10), &registry);
    merged.merge_serialized(part1.serialize());
    merged.merge_serialized(part2.serialize());

    EXPECT_EQ(merged.watermark(), direct.watermark());
    auto a = direct.flush_rows().records();
    auto b = merged.flush_rows().records();
    ASSERT_EQ(a.size(), b.size());
    for (const char* k : {"x", "y"}) {
        EXPECT_EQ(find_record(a, "kernel", Variant(k)).get("count"),
                  find_record(b, "kernel", Variant(k)).get("count"));
        EXPECT_EQ(find_record(a, "kernel", Variant(k)).get("sum#v"),
                  find_record(b, "kernel", Variant(k)).get("sum#v"));
    }
}

TEST_F(WindowTest, MergeCombinesWatermarksAsMax) {
    const auto cfg = AggregationConfig::parse("count", "kernel");
    WindowedAggregator a(cfg, window(10), &registry);
    WindowedAggregator b(cfg, window(10), &registry);
    process(a, rec(5, "old"));  // watermark pane 0
    process(b, rec(95, "new")); // watermark pane 9

    a.merge(std::move(b));
    EXPECT_EQ(a.watermark(), std::optional<std::int64_t>(9));
    auto rows = a.flush_rows().records();
    // pane 0 retired on merge: only the newer pane survives the tumble
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(count_of(rows, "new"), 1u);
}

TEST_F(WindowTest, SpilledPanesSurviveTheFlushFold) {
    // a 1-byte budget clamps each pane's live table to the 16-entry floor;
    // the flush fold must go through the spill-aware path or the spilled
    // runs silently vanish (regression: fuzz seed 1057)
    WindowedAggregator agg(AggregationConfig::parse("count", "kernel"),
                           window(1000), &registry);
    agg.set_memory_budget(1);
    for (int i = 0; i < 48; ++i)
        process(agg, rec(i, ("k" + std::to_string(i)).c_str()));

    const std::vector<RecordMap> rows = agg.flush_rows().records();
    ASSERT_EQ(rows.size(), 48u);
    for (int i = 0; i < 48; ++i) {
        const std::string kernel = "k" + std::to_string(i);
        EXPECT_EQ(count_of(rows, kernel.c_str()), 1u) << kernel;
    }
}

TEST_F(WindowTest, BatchedPaneAssignmentMatchesOneRowBatches) {
    // one batch over panes 0..4 (window 30us, slide 10us: 3 live panes)
    // with a watermark jump that retires panes 0 and 1 mid-batch, late
    // rows, rows without a usable time, an overflow row, and a row left
    // out of the selection
    const id_t t = registry.create("time.offset", Variant::Type::Double).id();
    const id_t k = registry.create("kernel", Variant::Type::String).id();
    const id_t v = registry.create("v", Variant::Type::Int).id();
    struct Row {
        Variant time;
        const char* kernel;
        long long v;
    };
    const std::vector<Row> rows = {
        {Variant(1.0), "a", 1},       {Variant(2.0), "b", 2},
        {Variant(), "a", 4},          {Variant(12.0), "a", 8},
        {Variant(15.0), "b", 16},     {Variant(13.0), "b", 32},
        {Variant(45.0), "a", 64}, // watermark pane 1 -> 4: panes 0, 1 retire
        {Variant(5.0), "b", 128},     {Variant(25.0), "a", 256},
        {Variant(41.0), "b", 512},    {Variant("noon"), "a", 1024},
        {Variant(18.0), "a", 2048},   {Variant(33.0), "b", 4096},
        {Variant(44.0), "a", 8192},
    };
    RecordBatch batch;
    std::vector<IdRecord> input;
    for (const Row& row : rows) {
        IdRecord r;
        if (!row.time.empty())
            r.append(t, row.time);
        r.append(k, Variant(row.kernel));
        r.append(v, Variant(row.v));
        input.push_back(r);
    }
    IdRecord permuted; // fields out of column order: an overflow row
    permuted.append(k, Variant("b"));
    permuted.append(t, Variant(42.0));
    permuted.append(v, Variant(16384LL));
    input.push_back(permuted);
    for (const IdRecord& r : input)
        batch.append_record(r);
    ASSERT_TRUE(batch.is_overflow(input.size() - 1));
    std::vector<std::uint32_t> selection;
    for (std::uint32_t r = 0; r < batch.rows(); ++r)
        if (r != 4)
            selection.push_back(r);

    const auto cfg = AggregationConfig::parse("count,sum(v)", "kernel");
    WindowedAggregator batched(cfg, window(30, 10), &registry);
    batched.process_batch(batch, selection);
    WindowedAggregator one_row(cfg, window(30, 10), &registry);
    for (const std::uint32_t r : selection)
        process(one_row, input[r]);

    // pane-wise state, watermark and drop counters all travel in serialize()
    EXPECT_EQ(batched.serialize(), one_row.serialize());
    EXPECT_EQ(batched.watermark(), std::optional<std::int64_t>(4));
    EXPECT_EQ(batched.watermark(), one_row.watermark());
    EXPECT_EQ(batched.dropped_late(), 2u); // t=5 and t=18
    EXPECT_EQ(batched.dropped_late(), one_row.dropped_late());
    EXPECT_EQ(batched.dropped_no_time(), 2u); // no time, "noon"
    EXPECT_EQ(batched.dropped_no_time(), one_row.dropped_no_time());
    EXPECT_EQ(batched.pane_count(), 3u);

    // per-window oracle: the selected rows whose pane is in the final live
    // range [watermark - 2, watermark]
    std::uint64_t want_count[2] = {0, 0};
    long long want_sum[2]       = {0, 0};
    for (const std::uint32_t r : selection) {
        const auto p = pane_index(input[r].get(t), 10);
        if (!p || *p < 2)
            continue;
        const int g = input[r].get(k) == Variant("a") ? 0 : 1;
        ++want_count[g];
        want_sum[g] += input[r].get(v).to_int();
    }
    const std::vector<RecordMap> got = batched.flush_rows().records();
    ASSERT_EQ(got.size(), 2u);
    const char* kernels[] = {"a", "b"};
    for (int g = 0; g < 2; ++g) {
        const RecordMap row = find_record(got, "kernel", Variant(kernels[g]));
        EXPECT_EQ(row.get("count").to_uint(), want_count[g]) << kernels[g];
        EXPECT_EQ(row.get("sum#v").to_int(), want_sum[g]) << kernels[g];
    }
}

// ----------------------------------------------------- QueryProcessor E2E

namespace {

std::vector<RecordMap> make_timed_records(int n) {
    static const char* kernels[] = {"advec", "pdv", "accel", "flux"};
    std::vector<RecordMap> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
        out.push_back(record({{"kernel", Variant(kernels[i % 4])},
                              {"time.offset", Variant(static_cast<long long>(i * 10))},
                              {"v", Variant(static_cast<long long>(i % 7 + 1))}}));
    return out;
}

} // namespace

TEST(WindowQuery, TrailingWindowOverRecordStream) {
    // records at t = 0,10,...,990; WINDOW 200us -> t in (790, 990] region:
    // live panes are the trailing ceil(200/200)=1 pane of width 200 ending
    // at the watermark pane: floor(990/200)=4, so t in [800, 990]
    auto rows = run_query("AGGREGATE count WINDOW 200us GROUP BY *",
                          make_timed_records(100));
    std::uint64_t total = 0;
    for (const RecordMap& r : rows)
        total += r.get("count").to_uint();
    EXPECT_EQ(total, 20u); // t = 800..990 step 10
}

TEST(WindowQuery, SlidingWindowAndTimeAttributeOverride) {
    std::vector<RecordMap> recs;
    for (int i = 0; i < 10; ++i)
        recs.push_back(record({{"k", Variant("g")},
                               {"sim.time", Variant(static_cast<long long>(i))}}));
    // window 4us slide 2us over sim.time: watermark pane floor(9/2)=4,
    // live panes {3, 4} -> sim.time in [6, 9]
    auto rows = run_query("AGGREGATE count WINDOW 4 BY sim.time SLIDE 2 GROUP BY k",
                          recs);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].get("count").to_uint(), 4u);
}

TEST(WindowQuery, WindowedPassthroughFiltersSelectRows) {
    // no aggregation: WINDOW restricts the selected rows to the live range,
    // preserving input order
    auto rows = run_query("SELECT kernel,time.offset WINDOW 100us",
                          make_timed_records(50)); // t = 0..490
    // watermark pane floor(490/100)=4 -> live = [400, 490]
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows.front().get("time.offset").to_int(), 400);
    EXPECT_EQ(rows.back().get("time.offset").to_int(), 490);
}

TEST(WindowQuery, RecordsWithoutTimestampAreExcluded) {
    std::vector<RecordMap> recs = make_timed_records(10); // t = 0..90
    recs.push_back(record({{"kernel", Variant("untimed")}}));
    auto rows = run_query("AGGREGATE count WINDOW 1h GROUP BY kernel", recs);
    EXPECT_TRUE(find_record(rows, "kernel", Variant("untimed")).empty());
}

// ------------------------------------------------- engine byte-identity

namespace {

void write_timed_cali(const std::string& path, int nrecords, int offset = 0) {
    static const char* kernels[] = {"advec", "pdv", "accel", "flux"};
    std::ofstream os(path);
    CaliWriter w(os);
    for (int i = 0; i < nrecords; ++i) {
        RecordMap r;
        r.append("kernel", Variant(kernels[i % 4]));
        r.append("time.offset",
                 Variant(static_cast<long long>((offset + i) * 7 % 7919)));
        r.append("v", Variant(static_cast<long long>(i % 13 + 1)));
        w.write_record(r);
    }
}

std::string run_engine(const std::string& query,
                       const std::vector<std::string>& files,
                       engine::EngineOptions opts) {
    engine::ParallelQueryProcessor eng(parse_calql(query), opts);
    std::ostringstream os;
    eng.run(files).write(os);
    return os.str();
}

} // namespace

TEST(WindowEngine, ByteIdenticalAcrossThreadsStrategiesAndBatchSizes) {
    TempDir dir("window-engine");
    std::vector<std::string> files;
    for (int f = 0; f < 4; ++f) {
        files.push_back(dir.file("t" + std::to_string(f) + ".cali"));
        write_timed_cali(files.back(), 300, f * 300);
    }
    const std::string query =
        "AGGREGATE count,sum(v),avg(v) WINDOW 3ms SLIDE 500us "
        "GROUP BY kernel FORMAT csv";

    // one morsel per file, so the pane rings go through phase 2
    engine::EngineOptions base;
    base.threads            = 1;
    base.merge_strategy     = engine::MergeStrategy::Pairwise;
    base.bytes_per_morsel   = 0;
    const std::string golden = run_engine(query, files, base);
    ASSERT_FALSE(golden.empty());

    for (const std::size_t threads : {1u, 2u, 4u}) {
        for (const engine::MergeStrategy strategy :
             {engine::MergeStrategy::Pairwise, engine::MergeStrategy::Radix,
              engine::MergeStrategy::Adaptive}) {
            for (const std::size_t batch : {1u, 7u, 64u}) {
                engine::EngineOptions opts = base;
                opts.threads        = threads;
                opts.merge_strategy = strategy;
                opts.batch_size     = batch;
                EXPECT_EQ(run_engine(query, files, opts), golden)
                    << "threads=" << threads << " strategy="
                    << engine::merge_strategy_name(strategy)
                    << " batch=" << batch;
            }
        }
    }
}

TEST(WindowEngine, OnePartialPerFileKeepsWindowSemantics) {
    TempDir dir("window-partials");
    std::vector<std::string> files;
    for (int f = 0; f < 2; ++f) {
        files.push_back(dir.file("t" + std::to_string(f) + ".cali"));
        write_timed_cali(files.back(), 400, f * 400);
    }
    const std::string query =
        "AGGREGATE count WINDOW 2ms SLIDE 250us GROUP BY kernel FORMAT csv";

    engine::EngineOptions base;
    base.threads             = 1;
    base.bytes_per_morsel    = 0; // one morsel per file
    const std::string golden = run_engine(query, files, base);

    engine::EngineOptions parallel = base;
    parallel.threads               = 4;
    EXPECT_EQ(run_engine(query, files, parallel), golden);
}

TEST(WindowEngine, MatchesPerWindowOracle) {
    // differential check against a window-stripped oracle: filter the raw
    // records to the live range with the shared pane_index, then run the
    // same query without its WINDOW clause
    TempDir dir("window-oracle");
    const std::string file = dir.file("t.cali");
    write_timed_cali(file, 500);

    const QuerySpec spec =
        parse_calql("AGGREGATE count,sum(v) WINDOW 2ms SLIDE 400us "
                    "GROUP BY kernel");
    engine::ParallelQueryProcessor eng(spec, {});
    const std::vector<RecordMap> got = eng.run({file}).result();

    // reconstruct the input and compute the oracle's live range
    std::vector<RecordMap> raw;
    for (int i = 0; i < 500; ++i) {
        RecordMap r;
        static const char* kernels[] = {"advec", "pdv", "accel", "flux"};
        r.append("kernel", Variant(kernels[i % 4]));
        r.append("time.offset", Variant(static_cast<long long>(i * 7 % 7919)));
        r.append("v", Variant(static_cast<long long>(i % 13 + 1)));
        raw.push_back(std::move(r));
    }
    const std::uint64_t slide = spec.window.slide();
    std::optional<std::int64_t> watermark;
    for (const RecordMap& r : raw)
        if (const auto p = pane_index(r.get("time.offset"), slide))
            watermark = watermark ? std::max(*watermark, *p) : *p;
    ASSERT_TRUE(watermark.has_value());
    const std::int64_t floor =
        *watermark - static_cast<std::int64_t>(spec.window.pane_count()) + 1;

    std::vector<RecordMap> live;
    for (const RecordMap& r : raw) {
        const auto p = pane_index(r.get("time.offset"), slide);
        if (p && *p >= floor)
            live.push_back(r);
    }
    const std::vector<RecordMap> want =
        run_query("AGGREGATE count,sum(v) GROUP BY kernel", live);

    ASSERT_EQ(got.size(), want.size());
    for (const char* k : {"advec", "pdv", "accel", "flux"}) {
        EXPECT_EQ(find_record(got, "kernel", Variant(k)).get("count"),
                  find_record(want, "kernel", Variant(k)).get("count"))
            << k;
        EXPECT_EQ(find_record(got, "kernel", Variant(k)).get("sum#v"),
                  find_record(want, "kernel", Variant(k)).get("sum#v"))
            << k;
    }
}
