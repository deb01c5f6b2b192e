// LET clause: derived attributes computed before filtering/aggregation.
#include "query/calql.hpp"
#include "query/let.hpp"
#include "query/processor.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

using namespace calib;
using calib::test::append_row;
using calib::test::find_record;
using calib::test::record;

namespace {

/// The last target's value after CompiledLets applies \a lets to \a r,
/// evaluated once on a columnar row and once on an overflow row (fields
/// reversed), which must agree. Empty when the term left it unset.
Variant let_value(const std::vector<LetSpec>& lets, const RecordMap& r) {
    AttributeRegistry registry;
    RecordBatch batch;
    append_row(batch, registry, r);
    append_row(batch, registry, r, /*reversed=*/true);
    CompiledLets(lets, &registry).apply(batch);
    Variant values[2];
    IdRecord row;
    for (std::size_t i = 0; i < 2; ++i) {
        batch.materialize(i, row);
        values[i] = to_recordmap(row, registry).get(lets.back().target);
    }
    EXPECT_EQ(values[0], values[1]) << "columnar and overflow rows disagree";
    return values[0];
}

Variant let_value(const LetSpec& let, const RecordMap& r) {
    return let_value(std::vector<LetSpec>{let}, r);
}

} // namespace

TEST(LetParse, ScaleWithParameter) {
    QuerySpec spec = parse_calql("LET ms = scale(time.duration, 0.001)");
    ASSERT_EQ(spec.lets.size(), 1u);
    EXPECT_EQ(spec.lets[0].target, "ms");
    EXPECT_EQ(spec.lets[0].fn, LetSpec::Fn::Scale);
    EXPECT_EQ(spec.lets[0].args, (std::vector<std::string>{"time.duration"}));
    EXPECT_DOUBLE_EQ(spec.lets[0].parameter, 0.001);
}

TEST(LetParse, MultipleTermsAndFunctions) {
    QuerySpec spec = parse_calql(
        "LET bucket=truncate(t,100), frac=ratio(a,b), any=first(x,y,z)");
    ASSERT_EQ(spec.lets.size(), 3u);
    EXPECT_EQ(spec.lets[0].fn, LetSpec::Fn::Truncate);
    EXPECT_EQ(spec.lets[1].fn, LetSpec::Fn::Ratio);
    EXPECT_EQ(spec.lets[2].fn, LetSpec::Fn::First);
    EXPECT_EQ(spec.lets[2].args.size(), 3u);
}

TEST(LetParse, CombinesWithOtherClauses) {
    QuerySpec spec = parse_calql("LET ms=scale(t,0.001) "
                                 "AGGREGATE sum(ms) WHERE ms>1 GROUP BY k");
    EXPECT_EQ(spec.lets.size(), 1u);
    EXPECT_EQ(spec.aggregation.ops.size(), 1u);
    EXPECT_EQ(spec.filters.size(), 1u);
}

TEST(LetParse, Errors) {
    EXPECT_THROW(parse_calql("LET x = bogus(a)"), CalQLError);
    EXPECT_THROW(parse_calql("LET x scale(a,1)"), CalQLError);
    EXPECT_THROW(parse_calql("LET x = scale(a)"), CalQLError) << "missing parameter";
    EXPECT_THROW(parse_calql("LET x = scale(2.0)"), CalQLError) << "no attribute";
}

TEST(LetParse, RoundTripsThroughToCalql) {
    const char* queries[] = {
        "LET ms=scale(t,0.001) AGGREGATE sum(ms) GROUP BY k",
        "LET b=truncate(x,50),r=ratio(a,b)",
        "LET any=first(x,y)",
    };
    for (const char* q : queries) {
        const QuerySpec a = parse_calql(q);
        const QuerySpec b = parse_calql(to_calql(a));
        EXPECT_EQ(a.lets, b.lets) << q;
    }
}

TEST(LetEval, Scale) {
    const RecordMap r = record({{"t", Variant(2500.0)}});
    LetSpec let{"ms", LetSpec::Fn::Scale, {"t"}, 0.001};
    EXPECT_DOUBLE_EQ(let_value(let, r).as_double(), 2.5);
}

TEST(LetEval, ScaleMissingOrNonNumeric) {
    LetSpec let{"ms", LetSpec::Fn::Scale, {"t"}, 0.001};
    EXPECT_TRUE(let_value(let, record({{"other", Variant(1)}})).empty());
    EXPECT_TRUE(let_value(let, record({{"t", Variant("text")}})).empty());
}

TEST(LetEval, TruncateBuckets) {
    LetSpec let{"bucket", LetSpec::Fn::Truncate, {"t"}, 100.0};
    EXPECT_DOUBLE_EQ(let_value(let, record({{"t", Variant(0)}})).as_double(), 0.0);
    EXPECT_DOUBLE_EQ(let_value(let, record({{"t", Variant(99)}})).as_double(), 0.0);
    EXPECT_DOUBLE_EQ(let_value(let, record({{"t", Variant(100)}})).as_double(),
                     100.0);
    EXPECT_DOUBLE_EQ(let_value(let, record({{"t", Variant(257)}})).as_double(),
                     200.0);
}

TEST(LetEval, RatioGuardsDivisionByZero) {
    LetSpec let{"r", LetSpec::Fn::Ratio, {"a", "b"}, 1.0};
    EXPECT_DOUBLE_EQ(
        let_value(let, record({{"a", Variant(3)}, {"b", Variant(4)}})).as_double(),
        0.75);
    EXPECT_TRUE(
        let_value(let, record({{"a", Variant(3)}, {"b", Variant(0)}})).empty());
    EXPECT_TRUE(let_value(let, record({{"a", Variant(3)}})).empty());
}

TEST(LetEval, FirstCoalesces) {
    LetSpec let{"any", LetSpec::Fn::First, {"x", "y", "z"}, 1.0};
    EXPECT_EQ(let_value(let, record({{"y", Variant("ypsilon")}})).as_string(),
              "ypsilon");
    EXPECT_EQ(let_value(let, record({{"z", Variant(1)}, {"x", Variant(2)}})),
              Variant(2));
    EXPECT_TRUE(let_value(let, record({{"other", Variant(1)}})).empty());
}

TEST(LetEval, ChainedTermsSeeEarlierTargets) {
    std::vector<LetSpec> lets = {
        LetSpec{"ms", LetSpec::Fn::Scale, {"us"}, 0.001},
        LetSpec{"s", LetSpec::Fn::Scale, {"ms"}, 0.001},
    };
    EXPECT_DOUBLE_EQ(let_value(lets, record({{"us", Variant(4000000.0)}})).as_double(),
                     4.0);
}

TEST(LetQuery, BucketedGrouping) {
    // histogram-style grouping by value bucket through LET truncate
    std::vector<RecordMap> records;
    for (int i = 0; i < 100; ++i)
        records.push_back(record({{"t", Variant(i)}}));

    auto out = run_query("LET bucket=truncate(t,25) "
                         "AGGREGATE count GROUP BY bucket ORDER BY bucket",
                         records);
    ASSERT_EQ(out.size(), 4u);
    for (const RecordMap& r : out)
        EXPECT_EQ(r.get("count").to_uint(), 25u);
    EXPECT_DOUBLE_EQ(out[3].get("bucket").to_double(), 75.0);
}

TEST(LetQuery, FilterOnDerivedAttribute) {
    std::vector<RecordMap> records = {
        record({{"a", Variant(10.0)}, {"b", Variant(2.0)}}),
        record({{"a", Variant(1.0)}, {"b", Variant(2.0)}}),
    };
    auto out = run_query("LET r=ratio(a,b) WHERE r>1", records);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].get("r").as_double(), 5.0);
}

TEST(LetQuery, UnifiedTimeFromEitherDurationColumn) {
    // first() coalesces the online result column and the raw metric, so a
    // query can process traces and profiles uniformly
    std::vector<RecordMap> records = {
        record({{"k", Variant("x")}, {"time.duration", Variant(5.0)}}),
        record({{"k", Variant("x")}, {"sum#time.duration", Variant(7.0)}}),
    };
    auto out = run_query("LET t=first(time.duration,sum#time.duration) "
                         "AGGREGATE sum(t) GROUP BY k",
                         records);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].get("sum#t").to_double(), 12.0);
}
