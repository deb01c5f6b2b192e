#include "query/filter.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

using namespace calib;
using calib::test::append_row;
using calib::test::record;

namespace {

/// Evaluate \a filters on \a r through SnapshotFilter's batch stage: once
/// as a columnar row and once as an overflow row (fields reversed), which
/// must agree.
bool matches_all(const std::vector<FilterSpec>& filters, const RecordMap& r) {
    AttributeRegistry registry;
    RecordBatch batch;
    append_row(batch, registry, r);
    append_row(batch, registry, r, /*reversed=*/true);
    SnapshotFilter filter(filters, &registry);
    std::vector<std::uint32_t> selection;
    filter.matches(batch, selection);
    const bool columnar = !selection.empty() && selection[0] == 0;
    const bool overflow = !selection.empty() && selection.back() == 1;
    EXPECT_EQ(columnar, overflow) << "columnar and overflow rows disagree";
    return columnar;
}

bool matches_one(const FilterSpec& filter, const RecordMap& r) {
    return matches_all({filter}, r);
}

} // namespace

TEST(Filter, ExistAndNotExist) {
    const RecordMap r = record({{"kernel", Variant("adv")}, {"t", Variant(1)}});
    EXPECT_TRUE(matches_one({"kernel", FilterSpec::Op::Exist, {}}, r));
    EXPECT_FALSE(matches_one({"missing", FilterSpec::Op::Exist, {}}, r));
    EXPECT_TRUE(matches_one({"missing", FilterSpec::Op::NotExist, {}}, r));
    EXPECT_FALSE(matches_one({"kernel", FilterSpec::Op::NotExist, {}}, r));
}

TEST(Filter, EqualityWithTypeCoercion) {
    const RecordMap r = record({{"iter", Variant(4)}, {"name", Variant("x")}});
    EXPECT_TRUE(matches_one({"iter", FilterSpec::Op::Eq, Variant(4)}, r));
    EXPECT_TRUE(matches_one({"iter", FilterSpec::Op::Eq, Variant(4.0)}, r));
    EXPECT_TRUE(matches_one({"iter", FilterSpec::Op::Eq, Variant("4")}, r))
        << "string \"4\" matches numeric 4 via textual coercion";
    EXPECT_FALSE(matches_one({"iter", FilterSpec::Op::Eq, Variant(5)}, r));
    EXPECT_TRUE(matches_one({"name", FilterSpec::Op::Eq, Variant("x")}, r));
}

TEST(Filter, OrderingComparisons) {
    const RecordMap r = record({{"t", Variant(10.0)}});
    EXPECT_TRUE(matches_one({"t", FilterSpec::Op::Lt, Variant(11)}, r));
    EXPECT_FALSE(matches_one({"t", FilterSpec::Op::Lt, Variant(10)}, r));
    EXPECT_TRUE(matches_one({"t", FilterSpec::Op::Le, Variant(10)}, r));
    EXPECT_TRUE(matches_one({"t", FilterSpec::Op::Gt, Variant(9.5)}, r));
    EXPECT_TRUE(matches_one({"t", FilterSpec::Op::Ge, Variant(10)}, r));
    EXPECT_TRUE(matches_one({"t", FilterSpec::Op::Ne, Variant(3)}, r));
}

TEST(Filter, ComparisonOnMissingAttributeFails) {
    const RecordMap r = record({{"a", Variant(1)}});
    EXPECT_FALSE(matches_one({"b", FilterSpec::Op::Eq, Variant(1)}, r));
    EXPECT_FALSE(matches_one({"b", FilterSpec::Op::Ne, Variant(1)}, r))
        << "comparisons never match absent attributes (not-exists is explicit)";
}

TEST(Filter, ConjunctionSemantics) {
    const RecordMap r = record({{"a", Variant(1)}, {"b", Variant(2)}});
    std::vector<FilterSpec> both = {{"a", FilterSpec::Op::Eq, Variant(1)},
                                    {"b", FilterSpec::Op::Eq, Variant(2)}};
    EXPECT_TRUE(matches_all(both, r));
    both[1].value = Variant(3);
    EXPECT_FALSE(matches_all(both, r));
    EXPECT_TRUE(matches_all({}, r)) << "empty filter list matches everything";
}

TEST(SnapshotFilter, MatchesResolvedAttributes) {
    AttributeRegistry registry;
    const Attribute kernel = registry.create("kernel", Variant::Type::String);
    const Attribute mpifn  = registry.create("mpi.function", Variant::Type::String);

    SnapshotFilter filter({{"mpi.function", FilterSpec::Op::NotExist, {}}}, &registry);

    SnapshotRecord with_mpi;
    with_mpi.append(kernel.id(), Variant("k"));
    with_mpi.append(mpifn.id(), Variant("MPI_Barrier"));
    SnapshotRecord without_mpi;
    without_mpi.append(kernel.id(), Variant("k"));

    EXPECT_FALSE(filter.matches(with_mpi));
    EXPECT_TRUE(filter.matches(without_mpi));
}

TEST(SnapshotFilter, LazyResolutionAcrossAttributeCreation) {
    AttributeRegistry registry;
    SnapshotFilter filter({{"late", FilterSpec::Op::Eq, Variant(7)}}, &registry);

    SnapshotRecord empty;
    EXPECT_FALSE(filter.matches(empty)) << "attribute doesn't exist yet";

    const Attribute late = registry.create("late", Variant::Type::Int);
    SnapshotRecord rec;
    rec.append(late.id(), Variant(7));
    EXPECT_TRUE(filter.matches(rec)) << "resolution picks up the new attribute";
}

TEST(SnapshotFilter, EmptyFilterMatchesAll) {
    AttributeRegistry registry;
    SnapshotFilter filter({}, &registry);
    SnapshotRecord rec;
    EXPECT_TRUE(filter.empty());
    EXPECT_TRUE(filter.matches(rec));
}
