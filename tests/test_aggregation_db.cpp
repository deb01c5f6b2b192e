// AggregationDB unit tests, including the paper's §III-B Listing-1
// example (time-series function profile).
#include "aggregate/aggregation_db.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <set>

using namespace calib;
using calib::test::find_record;

namespace {

/// Helper fixture: registry + convenience snapshot builder.
class AggDbTest : public ::testing::Test {
protected:
    Attribute attr(const char* name, Variant::Type type,
                   std::uint32_t props = prop::none) {
        return registry.create(name, type, props);
    }

    SnapshotRecord snap(std::initializer_list<std::pair<const char*, Variant>> kv) {
        SnapshotRecord rec;
        for (const auto& [name, value] : kv)
            rec.append(registry.create(name, value.type()).id(), value);
        return rec;
    }

    AttributeRegistry registry;
};

} // namespace

TEST_F(AggDbTest, CountGroupedBySingleAttribute) {
    AggregationDB db(AggregationConfig::parse("count", "function"), &registry);
    db.process(snap({{"function", Variant("foo")}}));
    db.process(snap({{"function", Variant("foo")}}));
    db.process(snap({{"function", Variant("bar")}}));

    auto out = db.flush();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(find_record(out, "function", Variant("foo")).get("count"), Variant(2ull));
    EXPECT_EQ(find_record(out, "function", Variant("bar")).get("count"), Variant(1ull));
    EXPECT_EQ(db.num_processed(), 3u);
}

TEST_F(AggDbTest, PaperListing1Example) {
    // §III-B: AGGREGATE count, sum(time) GROUP BY function, loop.iteration.
    // Simulates the annotated program of Listing 1 for two loop iterations:
    // each iteration calls foo twice (10 units each) and bar once (10).
    AggregationDB db(
        AggregationConfig::parse("count,sum(time)", "function,loop.iteration"),
        &registry);

    for (int iter = 0; iter < 2; ++iter) {
        // loop-begin event: no function active yet
        db.process(snap({{"loop.iteration", Variant(iter)}, {"time", Variant(10)}}));
        // foo(1), foo(2): two events inside foo each (begin+end segments
        // folded into one record of 10 for simplicity, plus one extra
        // segment between calls attributed to foo)
        db.process(snap({{"function", Variant("foo")},
                         {"loop.iteration", Variant(iter)},
                         {"time", Variant(10)}}));
        db.process(snap({{"function", Variant("foo")},
                         {"loop.iteration", Variant(iter)},
                         {"time", Variant(10)}}));
        db.process(snap({{"function", Variant("bar")},
                         {"loop.iteration", Variant(iter)},
                         {"time", Variant(10)}}));
        // two more out-of-function segments in this iteration
        db.process(snap({{"loop.iteration", Variant(iter)}, {"time", Variant(10)}}));
        db.process(snap({{"loop.iteration", Variant(iter)}, {"time", Variant(10)}}));
    }

    auto out = db.flush();
    // per iteration: (none), foo, bar -> 3 unique keys; 2 iterations = 6
    ASSERT_EQ(out.size(), 6u);

    // check the paper's table shape for iteration 0
    int none_rows = 0;
    for (const RecordMap& r : out) {
        if (r.get("loop.iteration") != Variant(0))
            continue;
        if (r.get("function") == Variant("foo")) {
            EXPECT_EQ(r.get("count"), Variant(2ull));
            EXPECT_EQ(r.get("sum#time"), Variant(20LL));
        } else if (r.get("function") == Variant("bar")) {
            EXPECT_EQ(r.get("count"), Variant(1ull));
            EXPECT_EQ(r.get("sum#time"), Variant(10LL));
        } else {
            EXPECT_FALSE(r.contains("function"))
                << "entries with no function value keep the column empty";
            EXPECT_EQ(r.get("count"), Variant(3ull));
            EXPECT_EQ(r.get("sum#time"), Variant(30LL));
            ++none_rows;
        }
    }
    EXPECT_EQ(none_rows, 1);
}

TEST_F(AggDbTest, RemovingKeyAttributeCompactsResult) {
    // §III-B: dropping loop.iteration from the key merges iterations.
    AggregationDB by_both(
        AggregationConfig::parse("count,sum(time)", "function,loop.iteration"),
        &registry);
    AggregationDB by_function(AggregationConfig::parse("count,sum(time)", "function"),
                              &registry);

    for (int iter = 0; iter < 4; ++iter)
        for (const char* fn : {"foo", "foo", "bar"}) {
            auto rec = snap({{"function", Variant(fn)},
                             {"loop.iteration", Variant(iter)},
                             {"time", Variant(5)}});
            by_both.process(rec);
            by_function.process(rec);
        }

    EXPECT_EQ(by_both.flush().size(), 8u); // 2 functions x 4 iterations
    auto compact = by_function.flush();
    ASSERT_EQ(compact.size(), 2u);
    EXPECT_EQ(find_record(compact, "function", Variant("foo")).get("sum#time"),
              Variant(40LL));
}

TEST_F(AggDbTest, MissingKeyAttributeGroupsConsistently) {
    // records processed before/after the key attribute exists must land in
    // the same "attribute absent" group
    AggregationDB db(AggregationConfig::parse("count", "kernel"), &registry);
    db.process(snap({{"other", Variant(1)}}));   // "kernel" not defined yet
    attr("kernel", Variant::Type::String);       // now it exists
    db.process(snap({{"other", Variant(2)}}));   // still absent from record
    db.process(snap({{"kernel", Variant("k")}}));

    auto out = db.flush();
    ASSERT_EQ(out.size(), 2u);
    RecordMap none = find_record(out, "count", Variant(2ull));
    EXPECT_FALSE(none.contains("kernel"));
}

TEST_F(AggDbTest, ImplicitKeyGroupsByEverything) {
    attr("time", Variant::Type::Int, prop::as_value | prop::aggregatable);
    AggregationDB db(AggregationConfig::parse("count,sum(time)", "*"), &registry);

    db.process(snap({{"a", Variant(1)}, {"b", Variant("x")}, {"time", Variant(3)}}));
    db.process(snap({{"b", Variant("x")}, {"a", Variant(1)}, {"time", Variant(4)}}));
    db.process(snap({{"a", Variant(2)}, {"b", Variant("x")}, {"time", Variant(5)}}));

    auto out = db.flush();
    ASSERT_EQ(out.size(), 2u) << "entry order must not matter, values must";
    RecordMap first = find_record(out, "a", Variant(1));
    EXPECT_EQ(first.get("count"), Variant(2ull));
    EXPECT_EQ(first.get("sum#time"), Variant(7LL));
}

TEST_F(AggDbTest, ImplicitKeySkipsAggregationTargets) {
    attr("time", Variant::Type::Int, prop::as_value | prop::aggregatable);
    AggregationDB db(AggregationConfig::parse("sum(time)", "*"), &registry);
    db.process(snap({{"a", Variant(1)}, {"time", Variant(10)}}));
    db.process(snap({{"a", Variant(1)}, {"time", Variant(32)}}));
    auto out = db.flush();
    ASSERT_EQ(out.size(), 1u) << "different metric values must not split groups";
    EXPECT_EQ(out[0].get("sum#time"), Variant(42LL));
}

TEST_F(AggDbTest, ImplicitKeySkipsHiddenAttributes) {
    attr("internal", Variant::Type::Int, prop::hidden);
    AggregationDB db(AggregationConfig::parse("count", "*"), &registry);
    db.process(snap({{"a", Variant(1)}, {"internal", Variant(1)}}));
    db.process(snap({{"a", Variant(1)}, {"internal", Variant(2)}}));
    EXPECT_EQ(db.flush().size(), 1u);
}

TEST_F(AggDbTest, MergeCombinesEntries) {
    const AggregationConfig cfg = AggregationConfig::parse("count,sum(t)", "k");
    AggregationDB a(cfg, &registry), b(cfg, &registry);
    a.process(snap({{"k", Variant("x")}, {"t", Variant(1)}}));
    b.process(snap({{"k", Variant("x")}, {"t", Variant(2)}}));
    b.process(snap({{"k", Variant("y")}, {"t", Variant(5)}}));
    a.merge(b);

    auto out = a.flush();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(find_record(out, "k", Variant("x")).get("sum#t"), Variant(3LL));
    EXPECT_EQ(find_record(out, "k", Variant("x")).get("count"), Variant(2ull));
    EXPECT_EQ(a.num_processed(), 3u);
}

TEST_F(AggDbTest, SerializeMergeRoundTrip) {
    const AggregationConfig cfg =
        AggregationConfig::parse("count,sum(t),min(t),max(t)", "k");
    AggregationDB src(cfg, &registry);
    for (int i = 0; i < 10; ++i)
        src.process(snap({{"k", Variant(i % 3)}, {"t", Variant(i)}}));

    // merge into a database with a *different* registry: labels transfer
    AttributeRegistry other_registry;
    AggregationDB dst(cfg, &other_registry);
    dst.merge_serialized(src.serialize());

    auto a = src.flush();
    auto b = dst.flush();
    ASSERT_EQ(a.size(), b.size());
    for (const RecordMap& r : a) {
        RecordMap match = find_record(b, "k", r.get("k"));
        EXPECT_EQ(match, r);
    }
    EXPECT_EQ(dst.num_processed(), 10u);
}

TEST_F(AggDbTest, MergeSerializedRejectsGarbage) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    std::vector<std::byte> garbage(16, std::byte{0x5a});
    EXPECT_THROW(db.merge_serialized(garbage), std::runtime_error);
}

TEST_F(AggDbTest, MergeSerializedRejectsOpMismatch) {
    AggregationDB a(AggregationConfig::parse("count", "k"), &registry);
    AggregationDB b(AggregationConfig::parse("count,sum(t)", "k"), &registry);
    a.process(snap({{"k", Variant(1)}}));
    EXPECT_THROW(b.merge_serialized(a.serialize()), std::runtime_error);
}

TEST_F(AggDbTest, ReaggregationFallbackTargets) {
    // second-stage aggregation: sum(t) accepts a "sum#t" input column
    // (paper §VI-B: AGGREGATE sum(aggregate.count) over flushed profiles)
    AggregationDB db(AggregationConfig::parse("sum(t)", "k"), &registry);
    const SnapshotRecord flushed = snap({{"k", Variant("x")}, {"sum#t", Variant(21LL)}});
    db.process(flushed);
    db.process(flushed);
    EXPECT_EQ(db.flush()[0].get("sum#t"), Variant(42LL));
}

TEST_F(AggDbTest, ManyGroupsForceTableGrowth) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    constexpr int n = 5000;
    for (int i = 0; i < n; ++i)
        db.process(snap({{"k", Variant(i)}}));
    for (int i = 0; i < n; ++i)
        db.process(snap({{"k", Variant(i)}}));
    EXPECT_EQ(db.size(), static_cast<std::size_t>(n));
    auto out = db.flush();
    for (const RecordMap& r : out)
        EXPECT_EQ(r.get("count"), Variant(2ull));
}

TEST_F(AggDbTest, ClearResetsEverything) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process(snap({{"k", Variant(1)}}));
    db.clear();
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.num_processed(), 0u);
    EXPECT_TRUE(db.flush().empty());
    db.process(snap({{"k", Variant(1)}}));
    EXPECT_EQ(db.size(), 1u);
}

TEST_F(AggDbTest, StatsTrackLookups) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process(snap({{"k", Variant(1)}}));
    db.process(snap({{"k", Variant(1)}}));
    db.process(snap({{"k", Variant(2)}}));
    EXPECT_EQ(db.stats().lookups, 3u);
    EXPECT_EQ(db.stats().inserts, 2u);
}

TEST_F(AggDbTest, FlushIsIdempotentAndInsertionOrdered) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process(snap({{"k", Variant("b")}}));
    db.process(snap({{"k", Variant("a")}}));
    auto out1 = db.flush();
    auto out2 = db.flush();
    ASSERT_EQ(out1.size(), 2u);
    EXPECT_EQ(out1[0].get("k"), Variant("b")) << "insertion order preserved";
    EXPECT_EQ(out1.size(), out2.size());
}

TEST_F(AggDbTest, MixedTypeKeyValuesStayDistinct) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process(snap({{"k", Variant(1)}}));
    db.process(snap({{"k", Variant("1")}}));
    db.process(snap({{"k", Variant(1.0)}}));
    EXPECT_EQ(db.size(), 3u) << "int 1, string \"1\", double 1.0 are distinct keys";
}

TEST_F(AggDbTest, PercentTotalSumsToHundred) {
    AggregationDB db(AggregationConfig::parse("percent_total(t),sum(t)", "k"),
                     &registry);
    db.process(snap({{"k", Variant("a")}, {"t", Variant(25.0)}}));
    db.process(snap({{"k", Variant("b")}, {"t", Variant(50.0)}}));
    db.process(snap({{"k", Variant("c")}, {"t", Variant(25.0)}}));

    auto out     = db.flush();
    double total = 0;
    for (const RecordMap& r : out)
        total += r.get("percent_total#t").to_double();
    EXPECT_NEAR(total, 100.0, 1e-9);
    EXPECT_NEAR(find_record(out, "k", Variant("b")).get("percent_total#t").to_double(),
                50.0, 1e-9);
}

TEST_F(AggDbTest, PercentTotalSurvivesMerge) {
    const AggregationConfig cfg = AggregationConfig::parse("percent_total(t)", "k");
    AggregationDB a(cfg, &registry), b(cfg, &registry);
    a.process(snap({{"k", Variant("x")}, {"t", Variant(30.0)}}));
    b.process(snap({{"k", Variant("y")}, {"t", Variant(70.0)}}));
    a.merge(b);
    auto out = a.flush();
    EXPECT_NEAR(find_record(out, "k", Variant("y")).get("percent_total#t").to_double(),
                70.0, 1e-9);
}

TEST_F(AggDbTest, HistogramAggregationPerGroup) {
    AggregationDB db(AggregationConfig::parse("histogram(t)", "k"), &registry);
    for (int i = 0; i < 8; ++i)
        db.process(snap({{"k", Variant("g")}, {"t", Variant(1.5)}})); // bin 1
    db.process(snap({{"k", Variant("g")}, {"t", Variant(100.0)}}));   // bin 7
    auto out = db.flush();
    EXPECT_EQ(find_record(out, "k", Variant("g")).get("histogram#t").as_string(),
              "1..7:8|0|0|0|0|0|1");
}

TEST_F(AggDbTest, BytesAndReserveAccounting) {
    AggregationDB db(AggregationConfig::parse("count,sum(t)", "k"), &registry);
    const std::size_t before = db.bytes();
    db.reserve(4096);
    EXPECT_GT(db.bytes(), before) << "reserve preallocates arena capacity";
    for (int i = 0; i < 1000; ++i)
        db.process(snap({{"k", Variant(i)}, {"t", Variant(1)}}));
    EXPECT_EQ(db.size(), 1000u);
    EXPECT_EQ(db.stats().inserts, 1000u);
}

TEST_F(AggDbTest, MoveConstructionPreservesState) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process(snap({{"k", Variant("m")}}));
    AggregationDB moved(std::move(db));
    auto out = moved.flush();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("count").to_uint(), 1u);
}

// -- columnar batch path -------------------------------------------------------

namespace {

/// Build a RecordBatch holding \a snaps in order, plus the all-rows
/// selection vector.
RecordBatch batch_of(const std::vector<SnapshotRecord>& snaps,
                     std::vector<std::uint32_t>& sel) {
    RecordBatch b;
    sel.clear();
    for (const SnapshotRecord& s : snaps) {
        b.begin_row();
        for (const Entry& e : s)
            b.append(e.attribute, e.value);
        b.end_row();
        sel.push_back(static_cast<std::uint32_t>(b.rows() - 1));
    }
    return b;
}

} // namespace

TEST_F(AggDbTest, ProcessBatchMatchesRecordPath) {
    const auto config = [&] {
        return AggregationConfig::parse("count,sum(time),min(time)", "function");
    };
    std::vector<SnapshotRecord> snaps;
    for (int i = 0; i < 100; ++i)
        snaps.push_back(snap({{"function", Variant(i % 7)},
                              {"time", Variant(1.5 + i)}}));

    AggregationDB rec_db(config(), &registry);
    for (const SnapshotRecord& s : snaps)
        rec_db.process(s);

    AggregationDB batch_db(config(), &registry);
    std::vector<std::uint32_t> sel;
    const RecordBatch b = batch_of(snaps, sel);
    batch_db.process_batch(b, sel);

    const auto a = rec_db.flush();
    const auto c = batch_db.flush();
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], c[i]) << "group " << i << " differs";
    EXPECT_EQ(rec_db.num_processed(), batch_db.num_processed());
    EXPECT_EQ(rec_db.stats().lookups, batch_db.stats().lookups);
}

TEST_F(AggDbTest, ProcessBatchHonorsSelectionVector) {
    std::vector<SnapshotRecord> snaps;
    for (int i = 0; i < 10; ++i)
        snaps.push_back(snap({{"k", Variant(i)}, {"time", Variant(1)}}));
    std::vector<std::uint32_t> all;
    const RecordBatch b = batch_of(snaps, all);
    const std::vector<std::uint32_t> odd = {1, 3, 5, 7, 9};

    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.process_batch(b, odd);
    EXPECT_EQ(db.size(), 5u);
    EXPECT_EQ(db.num_processed(), 5u);
}

TEST_F(AggDbTest, ProcessBatchGrowsArenasGeometrically) {
    // a table that grows batch by batch must grow its arenas geometrically:
    // sizing them to exactly each batch's need reallocates and copies every
    // arena on every batch, a cost quadratic in the batch count
    constexpr int kBatches = 200;
    constexpr int kRows    = 256;
    AggregationDB db(AggregationConfig::parse("count,sum(t)", "k"), &registry);
    std::set<std::size_t> footprints;
    std::vector<SnapshotRecord> snaps;
    std::vector<std::uint32_t> sel;
    for (int b = 0; b < kBatches; ++b) {
        snaps.clear();
        for (int r = 0; r < kRows; ++r) // every row a new group
            snaps.push_back(snap({{"k", Variant(b * kRows + r)}, {"t", Variant(1)}}));
        const RecordBatch batch = batch_of(snaps, sel);
        db.process_batch(batch, sel);
        footprints.insert(db.bytes());
    }
    EXPECT_EQ(db.size(), std::size_t(kBatches) * kRows);
    // capacity doubles from one batch to 200: log2(200) + 1 ~ 9 sizes
    EXPECT_LE(footprints.size(), 10u);
    EXPECT_GE(footprints.size(), 2u);
}

// -- sort-spill under a memory budget ------------------------------------------

TEST_F(AggDbTest, SpillMatchesInMemoryGroups) {
    // integer metric: sums are exact, so spilled output must match the
    // unbounded run value-for-value
    const auto config = [] {
        return AggregationConfig::parse("count,sum(bytes)", "k");
    };
    AggregationDB unbounded(config(), &registry);
    AggregationDB spilled(config(), &registry);
    spilled.set_memory_budget(1); // clamps to the 16-entry floor
    EXPECT_EQ(spilled.memory_budget(), 1u);

    for (int i = 0; i < 200; ++i) {
        const auto s =
            snap({{"k", Variant(i % 50)}, {"bytes", Variant(i)}});
        unbounded.process(s);
        spilled.process(s);
    }
    EXPECT_FALSE(unbounded.spilled());
    EXPECT_TRUE(spilled.spilled());
    EXPECT_GT(spilled.stats().spill_runs, 0u);
    EXPECT_GT(spilled.stats().spill_bytes, 0u);

    const auto a = unbounded.flush();
    const auto b = spilled.flush();
    ASSERT_EQ(a.size(), b.size());
    for (const RecordMap& row : a) {
        const RecordMap match = find_record(b, "k", row.get("k"));
        EXPECT_EQ(match.get("count"), row.get("count"));
        EXPECT_EQ(match.get("sum#bytes"), row.get("sum#bytes"));
    }
    EXPECT_EQ(spilled.num_processed(), 200u);
}

TEST_F(AggDbTest, SpillIsByteIdenticalAcrossRecordAndBatchPaths) {
    const auto config = [] {
        return AggregationConfig::parse("count,sum(time)", "k");
    };
    std::vector<SnapshotRecord> snaps;
    for (int i = 0; i < 120; ++i)
        snaps.push_back(snap({{"k", Variant(i % 40)}, {"time", Variant(0.25 * i)}}));

    AggregationDB rec_db(config(), &registry);
    rec_db.set_memory_budget(1);
    for (const SnapshotRecord& s : snaps)
        rec_db.process(s);

    AggregationDB batch_db(config(), &registry);
    batch_db.set_memory_budget(1);
    std::vector<std::uint32_t> sel;
    const RecordBatch b = batch_of(snaps, sel);
    batch_db.process_batch(b, sel);

    EXPECT_TRUE(rec_db.spilled());
    EXPECT_TRUE(batch_db.spilled());
    const auto a = rec_db.flush();
    const auto c = batch_db.flush();
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], c[i]) << "spilled group " << i << " differs";
}

TEST_F(AggDbTest, SpillHandlesEmptyImplicitKey) {
    // regression: a zero-length GROUP BY * key (empty record) sorts first
    // in the spill run; the merge must not treat it as end-of-input
    AggregationDB db(AggregationConfig::parse("count", "*"), &registry);
    db.set_memory_budget(1);
    db.process(SnapshotRecord()); // empty record -> empty key
    for (int i = 0; i < 30; ++i)
        db.process(snap({{"k", Variant(i)}}));
    EXPECT_TRUE(db.spilled());
    const auto out = db.flush();
    EXPECT_EQ(out.size(), 31u);
    int empties = 0;
    for (const RecordMap& row : out)
        if (!row.find("k"))
            ++empties;
    EXPECT_EQ(empties, 1) << "the empty-key group survives the spill merge";
}

TEST_F(AggDbTest, SpilledSerializeMergesIntoFreshDb) {
    const auto config = [] {
        return AggregationConfig::parse("count,sum(bytes)", "k");
    };
    AggregationDB spilled(config(), &registry);
    spilled.set_memory_budget(1);
    for (int i = 0; i < 100; ++i)
        spilled.process(snap({{"k", Variant(i % 25)}, {"bytes", Variant(2)}}));
    ASSERT_TRUE(spilled.spilled());

    AggregationDB merged(config(), &registry);
    merged.merge_serialized(spilled.serialize());
    EXPECT_EQ(merged.num_processed(), 100u);
    const auto out = merged.flush();
    ASSERT_EQ(out.size(), 25u);
    for (const RecordMap& row : out) {
        EXPECT_EQ(row.get("count").to_uint(), 4u);
        EXPECT_EQ(row.get("sum#bytes").to_int(), 8);
    }
}

TEST_F(AggDbTest, ClearDropsSpillState) {
    AggregationDB db(AggregationConfig::parse("count", "k"), &registry);
    db.set_memory_budget(1);
    for (int i = 0; i < 40; ++i)
        db.process(snap({{"k", Variant(i)}}));
    ASSERT_TRUE(db.spilled());
    db.clear();
    EXPECT_FALSE(db.spilled());
    EXPECT_EQ(db.size(), 0u);
    db.process(snap({{"k", Variant(1)}}));
    EXPECT_EQ(db.flush().size(), 1u);
}
