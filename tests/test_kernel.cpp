// Unit tests for the streaming aggregation kernels: update, merge, result,
// and serialization of every operator.
#include "aggregate/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

using namespace calib;
using namespace calib::kernel;

namespace {

/// Managed kernel state buffer.
struct State {
    explicit State(AggOp op) : op(op), buf(state_size(op) / 8 + 1, 0) {
        state_init(op, buf.data());
    }
    void update(const Variant& v) { state_update(op, buf.data(), v); }
    void merge(const State& o) { state_merge(op, buf.data(), o.buf.data()); }
    RecordMap result(const AggOpConfig& cfg, double denom = 0.0) const {
        RowArena out;
        state_result(op, buf.data(), intern(cfg.result_label()), out, denom);
        out.end_row();
        return out.record(0);
    }
    std::vector<std::byte> serialize() const {
        std::vector<std::byte> bytes;
        ByteWriter w(bytes);
        state_serialize(op, buf.data(), w);
        return bytes;
    }
    void deserialize(const std::vector<std::byte>& bytes) {
        ByteReader r(bytes);
        state_deserialize(op, buf.data(), r);
    }

    AggOp op;
    std::vector<std::uint64_t> buf;
};

} // namespace

TEST(CountKernel, CountsEveryUpdate) {
    State s(AggOp::Count);
    for (int i = 0; i < 5; ++i)
        s.update(Variant());
    RecordMap r = s.result({AggOp::Count, "", ""});
    EXPECT_EQ(r.get("count"), Variant(5ull));
}

TEST(CountKernel, MergeAdds) {
    State a(AggOp::Count), b(AggOp::Count);
    a.update(Variant());
    b.update(Variant());
    b.update(Variant());
    a.merge(b);
    EXPECT_EQ(a.result({AggOp::Count, "", ""}).get("count"), Variant(3ull));
}

TEST(SumKernel, IntegerStaysExact) {
    State s(AggOp::Sum);
    s.update(Variant(1));
    s.update(Variant(2));
    s.update(Variant(3));
    RecordMap r = s.result({AggOp::Sum, "x", ""});
    const Variant v = r.get("sum#x");
    EXPECT_EQ(v.type(), Variant::Type::Int);
    EXPECT_EQ(v.as_int(), 6);
}

TEST(SumKernel, SwitchesToDoubleOnFloatInput) {
    State s(AggOp::Sum);
    s.update(Variant(1));
    s.update(Variant(0.5));
    const Variant v = s.result({AggOp::Sum, "x", ""}).get("sum#x");
    EXPECT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), 1.5);
}

TEST(SumKernel, NoInputEmitsNothing) {
    State s(AggOp::Sum);
    EXPECT_TRUE(s.result({AggOp::Sum, "x", ""}).empty());
}

TEST(SumKernel, IgnoresNonNumeric) {
    State s(AggOp::Sum);
    s.update(Variant("not a number"));
    s.update(Variant(4));
    EXPECT_EQ(s.result({AggOp::Sum, "x", ""}).get("sum#x").as_int(), 4);
}

TEST(SumKernel, MergeMixedKinds) {
    State a(AggOp::Sum), b(AggOp::Sum);
    a.update(Variant(10));
    b.update(Variant(2.5));
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.result({AggOp::Sum, "x", ""}).get("sum#x").as_double(), 12.5);
    // other direction: double absorbs int merge
    State c(AggOp::Sum), d(AggOp::Sum);
    c.update(Variant(2.5));
    d.update(Variant(10));
    c.merge(d);
    EXPECT_DOUBLE_EQ(c.result({AggOp::Sum, "x", ""}).get("sum#x").as_double(), 12.5);
}

TEST(SumKernel, NegativeValues) {
    State s(AggOp::Sum);
    s.update(Variant(-7));
    s.update(Variant(3));
    EXPECT_EQ(s.result({AggOp::Sum, "x", ""}).get("sum#x").as_int(), -4);
}

TEST(MinMaxKernel, TracksExtremes) {
    State mn(AggOp::Min), mx(AggOp::Max);
    for (int v : {5, 3, 9, 3, 7}) {
        mn.update(Variant(v));
        mx.update(Variant(v));
    }
    EXPECT_EQ(mn.result({AggOp::Min, "x", ""}).get("min#x").as_int(), 3);
    EXPECT_EQ(mx.result({AggOp::Max, "x", ""}).get("max#x").as_int(), 9);
}

TEST(MinMaxKernel, WorksOnStrings) {
    State mn(AggOp::Min);
    mn.update(Variant("pear"));
    mn.update(Variant("apple"));
    mn.update(Variant("orange"));
    EXPECT_EQ(mn.result({AggOp::Min, "x", ""}).get("min#x").as_string(), "apple");
}

TEST(MinMaxKernel, MergeRespectsEmptySides) {
    State a(AggOp::Min), b(AggOp::Min);
    b.update(Variant(4));
    a.merge(b); // empty <- non-empty
    EXPECT_EQ(a.result({AggOp::Min, "x", ""}).get("min#x").as_int(), 4);
    State c(AggOp::Min), d(AggOp::Min);
    c.update(Variant(2));
    c.merge(d); // non-empty <- empty
    EXPECT_EQ(c.result({AggOp::Min, "x", ""}).get("min#x").as_int(), 2);
}

TEST(AvgKernel, ComputesMean) {
    State s(AggOp::Avg);
    for (int v : {2, 4, 6})
        s.update(Variant(v));
    EXPECT_DOUBLE_EQ(s.result({AggOp::Avg, "x", ""}).get("avg#x").as_double(), 4.0);
}

TEST(AvgKernel, MergeIsWeighted) {
    State a(AggOp::Avg), b(AggOp::Avg);
    a.update(Variant(1.0)); // n=1, mean 1
    b.update(Variant(4.0));
    b.update(Variant(6.0)); // n=2, mean 5
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.result({AggOp::Avg, "x", ""}).get("avg#x").as_double(),
                     11.0 / 3.0);
}

TEST(VarianceKernel, MatchesDirectFormula) {
    std::mt19937_64 rng(7);
    std::vector<double> xs;
    State s(AggOp::Variance);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        const double x = static_cast<double>(rng() % 1000) / 10.0;
        xs.push_back(x);
        sum += x;
        s.update(Variant(x));
    }
    const double mean = sum / xs.size();
    double m2         = 0;
    for (double x : xs)
        m2 += (x - mean) * (x - mean);
    const double expected = m2 / xs.size();
    EXPECT_NEAR(s.result({AggOp::Variance, "x", ""}).get("variance#x").as_double(),
                expected, 1e-6 * expected);
}

TEST(VarianceKernel, MergeEqualsSingleStream) {
    std::mt19937_64 rng(11);
    State whole(AggOp::Variance), a(AggOp::Variance), b(AggOp::Variance);
    for (int i = 0; i < 500; ++i) {
        const double x = static_cast<double>(rng() % 997);
        whole.update(Variant(x));
        (i % 2 ? a : b).update(Variant(x));
    }
    a.merge(b);
    EXPECT_NEAR(
        a.result({AggOp::Variance, "x", ""}).get("variance#x").as_double(),
        whole.result({AggOp::Variance, "x", ""}).get("variance#x").as_double(), 1e-6);
}

TEST(HistogramKernel, BinIndexing) {
    EXPECT_EQ(histogram_bin_index(0.0), 0);
    EXPECT_EQ(histogram_bin_index(-5.0), 0);
    EXPECT_EQ(histogram_bin_index(0.999), 0);
    EXPECT_EQ(histogram_bin_index(1.0), 1);
    EXPECT_EQ(histogram_bin_index(2.0), 2);
    EXPECT_EQ(histogram_bin_index(3.9), 2);
    EXPECT_EQ(histogram_bin_index(4.0), 3);
    EXPECT_EQ(histogram_bin_index(1e30), histogram_bins - 1); // clamped
    EXPECT_EQ(histogram_bin_index(std::nan("")), 0);
}

TEST(HistogramKernel, RendersPopulatedRange) {
    State s(AggOp::Histogram);
    s.update(Variant(1.5)); // bin 1
    s.update(Variant(1.7)); // bin 1
    s.update(Variant(5.0)); // bin 3
    RecordMap r = s.result({AggOp::Histogram, "x", ""});
    EXPECT_EQ(r.get("histogram#x").as_string(), "1..3:2|0|1");
}

TEST(HistogramKernel, MergeAddsBins) {
    State a(AggOp::Histogram), b(AggOp::Histogram);
    a.update(Variant(2.0));
    b.update(Variant(2.5));
    a.merge(b);
    EXPECT_EQ(a.result({AggOp::Histogram, "x", ""}).get("histogram#x").as_string(),
              "2..2:2");
}

TEST(PercentTotalKernel, NormalizesAgainstDenominator) {
    State s(AggOp::PercentTotal);
    s.update(Variant(25.0));
    RecordMap r = s.result({AggOp::PercentTotal, "x", ""}, 100.0);
    EXPECT_DOUBLE_EQ(r.get("percent_total#x").as_double(), 25.0);
}

TEST(AllKernels, SerializeRoundTrip) {
    const AggOp ops[] = {AggOp::Count, AggOp::Sum,       AggOp::Min,
                         AggOp::Max,   AggOp::Avg,       AggOp::Variance,
                         AggOp::Histogram, AggOp::PercentTotal};
    for (AggOp op : ops) {
        State s(op);
        s.update(Variant(3.5));
        s.update(Variant(7));
        s.update(Variant(1.25));

        State restored(op);
        restored.deserialize(s.serialize());

        const AggOpConfig cfg{op, "x", ""};
        EXPECT_EQ(restored.result(cfg, 100.0), s.result(cfg, 100.0))
            << "op: " << agg_op_name(op);
    }
}

TEST(AllKernels, SerializedStringValuesSurvive) {
    State s(AggOp::Max);
    s.update(Variant("zebra"));
    State restored(AggOp::Max);
    restored.deserialize(s.serialize());
    EXPECT_EQ(restored.result({AggOp::Max, "x", ""}).get("max#x").as_string(), "zebra");
}

TEST(OpsConfig, ResultLabels) {
    EXPECT_EQ((AggOpConfig{AggOp::Count, "", ""}).result_label(), "count");
    EXPECT_EQ((AggOpConfig{AggOp::Sum, "time.duration", ""}).result_label(),
              "sum#time.duration");
    EXPECT_EQ((AggOpConfig{AggOp::Sum, "x", "total"}).result_label(), "total");
}

TEST(OpsConfig, ParseNames) {
    EXPECT_EQ(agg_op_from_name("SUM"), AggOp::Sum);
    EXPECT_EQ(agg_op_from_name("percent_total"), AggOp::PercentTotal);
    EXPECT_EQ(agg_op_from_name("mean"), AggOp::Avg);
    EXPECT_FALSE(agg_op_from_name("bogus").has_value());
}

TEST(OpsConfig, AggregationConfigParse) {
    AggregationConfig cfg =
        AggregationConfig::parse("count, sum(time.duration), min(x)", "function, loop");
    ASSERT_EQ(cfg.ops.size(), 3u);
    EXPECT_EQ(cfg.ops[0].op, AggOp::Count);
    EXPECT_EQ(cfg.ops[1].op, AggOp::Sum);
    EXPECT_EQ(cfg.ops[1].attribute, "time.duration");
    EXPECT_EQ(cfg.ops[2].op, AggOp::Min);
    EXPECT_EQ(cfg.key.attributes, (std::vector<std::string>{"function", "loop"}));
    EXPECT_FALSE(cfg.key.all);
}

TEST(OpsConfig, ParseStarKey) {
    AggregationConfig cfg = AggregationConfig::parse("count", "*");
    EXPECT_TRUE(cfg.key.all);
}

TEST(OpsConfig, BareAttributeDefaultsToSum) {
    AggregationConfig cfg = AggregationConfig::parse("count, time.duration", "a");
    ASSERT_EQ(cfg.ops.size(), 2u);
    EXPECT_EQ(cfg.ops[1].op, AggOp::Sum);
    EXPECT_EQ(cfg.ops[1].attribute, "time.duration");
}

// ---- numeric-correctness hardening regressions (differential fuzzing) ----

TEST(SumKernel, WidensOnInt64Overflow) {
    State s(AggOp::Sum);
    s.update(Variant(9223372036854775807ll));
    s.update(Variant(1ll));
    const Variant v = s.result({AggOp::Sum, "x", ""}).get("sum#x");
    ASSERT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), 9.223372036854775808e18);
}

TEST(SumKernel, WidensOnInt64Underflow) {
    State s(AggOp::Sum);
    s.update(Variant(-9223372036854775807ll));
    s.update(Variant(-2ll));
    const Variant v = s.result({AggOp::Sum, "x", ""}).get("sum#x");
    ASSERT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), -9.223372036854775809e18);
}

TEST(SumKernel, WidensOnUIntAboveInt64Max) {
    State s(AggOp::Sum);
    s.update(Variant(18446744073709551615ull));
    const Variant v = s.result({AggOp::Sum, "x", ""}).get("sum#x");
    ASSERT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), 1.8446744073709551616e19);
}

TEST(SumKernel, MergeWidensOnOverflow) {
    State a(AggOp::Sum), b(AggOp::Sum);
    a.update(Variant(9223372036854775807ll));
    b.update(Variant(9223372036854775807ll));
    a.merge(b);
    const Variant v = a.result({AggOp::Sum, "x", ""}).get("sum#x");
    ASSERT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), 2.0 * 9.223372036854775807e18);
}

TEST(SumKernel, IgnoresNaN) {
    State s(AggOp::Sum);
    s.update(Variant(std::nan("")));
    s.update(Variant(2.0));
    const Variant v = s.result({AggOp::Sum, "x", ""}).get("sum#x");
    EXPECT_DOUBLE_EQ(v.as_double(), 2.0);
}

TEST(MinMaxKernel, IgnoreNaN) {
    State lo(AggOp::Min), hi(AggOp::Max);
    for (State* s : {&lo, &hi}) {
        s->update(Variant(std::nan("")));
        s->update(Variant(3.0));
        s->update(Variant(std::nan("")));
        s->update(Variant(1.0));
    }
    EXPECT_DOUBLE_EQ(lo.result({AggOp::Min, "x", ""}).get("min#x").as_double(), 1.0);
    EXPECT_DOUBLE_EQ(hi.result({AggOp::Max, "x", ""}).get("max#x").as_double(), 3.0);
}

TEST(MinMaxKernel, AllNaNEmitsNothing) {
    State s(AggOp::Min);
    s.update(Variant(std::nan("")));
    EXPECT_TRUE(s.result({AggOp::Min, "x", ""}).empty());
}

TEST(AvgVarianceKernel, IgnoreNaN) {
    State avg(AggOp::Avg), var(AggOp::Variance);
    for (State* s : {&avg, &var}) {
        s->update(Variant(2.0));
        s->update(Variant(std::nan("")));
        s->update(Variant(4.0));
    }
    EXPECT_DOUBLE_EQ(avg.result({AggOp::Avg, "x", ""}).get("avg#x").as_double(), 3.0);
    // two samples 2 and 4: population variance 1
    EXPECT_DOUBLE_EQ(var.result({AggOp::Variance, "x", ""}).get("variance#x").as_double(),
                     1.0);
}

TEST(HistogramKernel, PinsNaNAndInfinities) {
    EXPECT_EQ(histogram_bin_index(std::nan("")), 0);
    EXPECT_EQ(histogram_bin_index(-std::numeric_limits<double>::infinity()), 0);
    EXPECT_EQ(histogram_bin_index(std::numeric_limits<double>::infinity()),
              histogram_bins - 1);
    EXPECT_EQ(histogram_bin_index(std::numeric_limits<double>::max()),
              histogram_bins - 1);
    EXPECT_EQ(histogram_bin_index(5e-324), 0); // subnormals land in bin 0
}

// The init-merge lemma: merging any organically-built state into a freshly
// initialized one reproduces the source bitwise. The radix merge strategy
// depends on this to assemble partition tables from verbatim state copies
// (docs/ENGINE.md); every kernel must uphold it, including signed-zero and
// kind-tag corners of the sum state.
TEST(AllKernels, MergeIntoFreshStateIsBitwiseIdentity) {
    const AggOp ops[] = {AggOp::Count,    AggOp::Sum,       AggOp::Min,
                         AggOp::Max,      AggOp::Avg,       AggOp::Variance,
                         AggOp::Histogram, AggOp::PercentTotal};
    const Variant inputs[] = {Variant(3ll),   Variant(-7ll), Variant(2.5),
                              Variant(-0.25), Variant(0ll),  Variant(1e12)};
    for (AggOp op : ops) {
        for (std::size_t n = 0; n <= std::size(inputs); ++n) {
            State src(op); // n = 0 covers the fresh-into-fresh corner
            for (std::size_t i = 0; i < n; ++i)
                src.update(inputs[i]);
            State dst(op);
            dst.merge(src);
            EXPECT_EQ(std::memcmp(dst.buf.data(), src.buf.data(),
                                  state_size(op)),
                      0)
                << agg_op_name(op) << " after " << n << " updates";
        }
    }
    // the -0.0 corner explicitly: a merge must not turn +0.0 into -0.0 or
    // drop the float kind tag
    State neg(AggOp::Sum);
    neg.update(Variant(-0.0));
    State fresh(AggOp::Sum);
    fresh.merge(neg);
    EXPECT_EQ(std::memcmp(fresh.buf.data(), neg.buf.data(),
                          state_size(AggOp::Sum)),
              0);
}

// state_update_n(v, n) must leave exactly the state n state_update(v)
// calls leave — the weighted batch rows of exact-mode daemon answers rest
// on it. Start states cover a fresh state, an integer sum near INT64_MAX
// (so the n-fold sum widens mid-run) and a state already on the double
// path.
TEST(AllKernels, UpdateNMatchesRepeatedUpdate) {
    const AggOp ops[] = {AggOp::Count,    AggOp::Sum,       AggOp::Min,
                         AggOp::Max,      AggOp::Avg,       AggOp::Variance,
                         AggOp::Histogram, AggOp::PercentTotal};
    const double inf = std::numeric_limits<double>::infinity();
    const Variant values[] = {
        Variant(5ll),
        Variant(-3ll),
        Variant(static_cast<unsigned long long>(INT64_MAX) + 10ull),
        Variant(true),
        Variant(false),
        Variant(2.5),
        Variant(-0.0),
        Variant(std::numeric_limits<double>::quiet_NaN()),
        Variant(inf),
        Variant(-inf),
        Variant(std::numeric_limits<double>::denorm_min()),
        Variant("text"),
    };
    const std::vector<std::vector<Variant>> starts = {
        {},
        {Variant(INT64_MAX - 2000ll)},
        {Variant(1ll), Variant(0.75)},
    };
    for (AggOp op : ops)
        for (const std::vector<Variant>& start : starts)
            for (const Variant& v : values)
                for (std::uint64_t n : {0ull, 1ull, 2ull, 3ull, 1000ull}) {
                    State once(op), repeated(op);
                    for (const Variant& s : start) {
                        once.update(s);
                        repeated.update(s);
                    }
                    state_update_n(op, once.buf.data(), v, n);
                    for (std::uint64_t i = 0; i < n; ++i)
                        repeated.update(v);
                    EXPECT_EQ(once.serialize(), repeated.serialize())
                        << agg_op_name(op) << " value " << v.to_repr() << " x"
                        << n << " after " << start.size() << " start updates";
                }
}
