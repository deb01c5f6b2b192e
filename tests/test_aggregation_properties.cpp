// Property-style tests of the aggregation model's algebraic invariants,
// swept with parameterized gtest over operators, key widths, group counts,
// and partition shapes:
//
//   P1  order independence: any permutation of the input stream yields the
//       same aggregation result
//   P2  merge consistency: splitting the stream into partitions, reducing
//       each, and merging equals direct aggregation (associativity +
//       commutativity of the partial states)
//   P3  key-refinement consistency: the sum over a fine grouping equals
//       the coarse grouping's sum (removing a key attribute only merges
//       rows, never changes totals)
//   P4  serialize/deserialize is lossless for whole databases
#include "aggregate/aggregation_db.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

using namespace calib;
using calib::test::find_record;

namespace {

struct Workload {
    std::vector<RecordMap> records;
};

/// Deterministic synthetic record stream.
Workload make_workload(std::uint64_t seed, int n_records, int n_functions,
                       int n_iterations) {
    std::mt19937_64 rng(seed);
    Workload w;
    for (int i = 0; i < n_records; ++i) {
        RecordMap r;
        if (rng() % 8 != 0) // sometimes the function attribute is absent
            r.append("function",
                     Variant("fn-" + std::to_string(rng() % n_functions)));
        r.append("iteration", Variant(static_cast<long long>(rng() % n_iterations)));
        r.append("rank", Variant(static_cast<long long>(rng() % 4)));
        r.append("time", Variant(static_cast<double>(rng() % 10000) / 8.0));
        w.records.push_back(std::move(r));
    }
    return w;
}

/// Fold a name-based record into \a db: attributes resolve (or are
/// created) in the database's registry, then the record goes through
/// process().
void process_record(AggregationDB& db, const RecordMap& r) {
    IdRecord rec;
    for (const auto& [name, value] : r)
        rec.append(db.registry()->create(name, value.type()).id(), value);
    db.process(rec);
}

std::vector<RecordMap> aggregate_all(const AggregationConfig& cfg,
                                     const std::vector<RecordMap>& records) {
    AttributeRegistry registry;
    AggregationDB db(cfg, &registry);
    for (const RecordMap& r : records)
        process_record(db, r);
    return db.flush();
}

/// Approximate record equality: double values compare with a relative
/// tolerance, because streaming means/variances are only associative up to
/// floating-point rounding.
bool approx_equal(const RecordMap& a, const RecordMap& b) {
    if (a.size() != b.size())
        return false;
    for (const auto& [name, va] : a) {
        if (!b.contains(name))
            return false;
        const Variant vb = b.get(name);
        if (va.type() == Variant::Type::Double || vb.type() == Variant::Type::Double) {
            const double x = va.to_double(), y = vb.to_double();
            const double scale = std::max({std::abs(x), std::abs(y), 1.0});
            if (std::abs(x - y) > 1e-9 * scale)
                return false;
        } else if (!(va == vb)) {
            return false;
        }
    }
    return true;
}

/// Order-insensitive record-set comparison (approximate on doubles).
bool same_result(std::vector<RecordMap> a, std::vector<RecordMap> b) {
    if (a.size() != b.size())
        return false;
    for (const RecordMap& r : a) {
        auto it = std::find_if(b.begin(), b.end(), [&r](const RecordMap& candidate) {
            return approx_equal(r, candidate);
        });
        if (it == b.end())
            return false;
        b.erase(it);
    }
    return true;
}

double total_of(const std::vector<RecordMap>& records, const char* column) {
    double sum = 0;
    for (const RecordMap& r : records)
        sum += r.get(column).to_double();
    return sum;
}

struct PropertyParam {
    const char* ops;
    const char* key;
    int n_records;
    std::uint64_t seed;
};

void PrintTo(const PropertyParam& p, std::ostream* os) {
    *os << "ops=" << p.ops << " key=" << p.key << " n=" << p.n_records
        << " seed=" << p.seed;
}

class AggregationProperty : public ::testing::TestWithParam<PropertyParam> {};

} // namespace

TEST_P(AggregationProperty, OrderIndependence) {
    const PropertyParam p = GetParam();
    const AggregationConfig cfg = AggregationConfig::parse(p.ops, p.key);
    Workload w = make_workload(p.seed, p.n_records, 5, 4);

    auto base = aggregate_all(cfg, w.records);

    std::mt19937_64 rng(p.seed ^ 0xfeed);
    for (int trial = 0; trial < 3; ++trial) {
        std::shuffle(w.records.begin(), w.records.end(), rng);
        EXPECT_TRUE(same_result(base, aggregate_all(cfg, w.records)))
            << "permutation trial " << trial;
    }
}

TEST_P(AggregationProperty, MergeEqualsDirect) {
    const PropertyParam p = GetParam();
    const AggregationConfig cfg = AggregationConfig::parse(p.ops, p.key);
    const Workload w = make_workload(p.seed, p.n_records, 5, 4);

    auto direct = aggregate_all(cfg, w.records);

    for (int n_parts : {2, 3, 7}) {
        AttributeRegistry registry;
        AggregationDB merged(cfg, &registry);
        for (int part = 0; part < n_parts; ++part) {
            AttributeRegistry part_registry;
            AggregationDB partial(cfg, &part_registry);
            for (std::size_t i = part; i < w.records.size();
                 i += static_cast<std::size_t>(n_parts))
                process_record(partial, w.records[i]);
            merged.merge_serialized(partial.serialize());
        }
        EXPECT_TRUE(same_result(direct, merged.flush())) << n_parts << " partitions";
    }
}

TEST_P(AggregationProperty, SerializeRoundTripsWholeDatabase) {
    const PropertyParam p = GetParam();
    const AggregationConfig cfg = AggregationConfig::parse(p.ops, p.key);
    const Workload w = make_workload(p.seed, p.n_records, 5, 4);

    AttributeRegistry registry;
    AggregationDB db(cfg, &registry);
    for (const RecordMap& r : w.records)
        process_record(db, r);

    AttributeRegistry registry2;
    AggregationDB restored(cfg, &registry2);
    restored.merge_serialized(db.serialize());
    EXPECT_TRUE(same_result(db.flush(), restored.flush()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationProperty,
    ::testing::Values(
        PropertyParam{"count", "function", 200, 1},
        PropertyParam{"count,sum(time)", "function", 500, 2},
        PropertyParam{"count,sum(time)", "function,iteration", 500, 3},
        PropertyParam{"count,sum(time),min(time),max(time)", "function,iteration,rank",
                      800, 4},
        PropertyParam{"count,sum(time)", "*", 400, 5},
        PropertyParam{"avg(time),variance(time)", "function", 600, 6},
        PropertyParam{"histogram(time),count", "function,rank", 600, 7},
        PropertyParam{"count", "nonexistent.attribute", 100, 8},
        PropertyParam{"sum(time)", "iteration", 1000, 9}));

TEST(AggregationRefinement, FineGroupingSumsToCoarse) {
    const Workload w = make_workload(42, 1000, 6, 5);

    const auto coarse =
        aggregate_all(AggregationConfig::parse("count,sum(time)", "function"),
                      w.records);
    const auto fine = aggregate_all(
        AggregationConfig::parse("count,sum(time)", "function,iteration,rank"),
        w.records);
    const auto total =
        aggregate_all(AggregationConfig::parse("count,sum(time)", ""), w.records);

    EXPECT_GE(fine.size(), coarse.size());
    EXPECT_EQ(total.size(), 1u);

    EXPECT_NEAR(total_of(fine, "sum#time"), total_of(coarse, "sum#time"), 1e-6);
    EXPECT_NEAR(total_of(fine, "sum#time"), total[0].get("sum#time").to_double(),
                1e-6);
    EXPECT_EQ(total_of(fine, "count"), total_of(coarse, "count"));
    EXPECT_EQ(total[0].get("count").to_uint(), 1000u);

    // per-function cross-check: fine rows of each function sum to its coarse row
    for (const RecordMap& c : coarse) {
        if (!c.contains("function"))
            continue;
        double fine_sum = 0;
        for (const RecordMap& f : fine)
            if (f.get("function") == c.get("function"))
                fine_sum += f.get("sum#time").to_double();
        EXPECT_NEAR(fine_sum, c.get("sum#time").to_double(), 1e-6);
    }
}

TEST(AggregationRefinement, MinMaxConsistentUnderRefinement) {
    const Workload w = make_workload(77, 800, 4, 6);
    const auto coarse = aggregate_all(
        AggregationConfig::parse("min(time),max(time)", "function"), w.records);
    const auto fine = aggregate_all(
        AggregationConfig::parse("min(time),max(time)", "function,iteration"),
        w.records);

    for (const RecordMap& c : coarse) {
        double fine_min = 1e300, fine_max = -1e300;
        for (const RecordMap& f : fine)
            if (f.get("function") == c.get("function")) {
                fine_min = std::min(fine_min, f.get("min#time").to_double());
                fine_max = std::max(fine_max, f.get("max#time").to_double());
            }
        EXPECT_DOUBLE_EQ(fine_min, c.get("min#time").to_double());
        EXPECT_DOUBLE_EQ(fine_max, c.get("max#time").to_double());
    }
}

TEST(AggregationIdempotence, ReaggregatingAProfileIsIdentity) {
    // aggregating an already-aggregated profile by the same key with
    // sum-compatible ops must reproduce the profile (paper §VI-F: multiple
    // ways to obtain the same end result)
    const Workload w = make_workload(99, 500, 5, 4);
    const auto stage1 = aggregate_all(
        AggregationConfig::parse("count,sum(time)", "function"), w.records);

    AttributeRegistry registry;
    AggregationDB stage2(AggregationConfig::parse("sum(count),sum(time)", "function"),
                         &registry);
    for (const RecordMap& r : stage1)
        process_record(stage2, r);
    const auto out = stage2.flush();

    ASSERT_EQ(out.size(), stage1.size());
    for (const RecordMap& r : stage1) {
        const RecordMap m = find_record(out, "function", r.get("function"));
        EXPECT_EQ(m.get("sum#count").to_uint(), r.get("count").to_uint());
        EXPECT_NEAR(m.get("sum#time").to_double(), r.get("sum#time").to_double(),
                    1e-9);
    }
}
