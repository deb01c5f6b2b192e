// RecordBatch unit tests: columnar layout, overflow demotion, append
// targets, and exact entry-order reconstruction (the byte-identity
// contract with the record-at-a-time pipeline).
#include "common/recordbatch.hpp"

#include <gtest/gtest.h>

#include <vector>

using namespace calib;

namespace {

/// Collect a materialized row as (attribute, value) pairs.
std::vector<std::pair<id_t, Variant>> entries_of(const RecordBatch& batch,
                                                 std::size_t row) {
    IdRecord rec;
    batch.materialize(row, rec);
    std::vector<std::pair<id_t, Variant>> out;
    for (const Entry& e : rec)
        out.emplace_back(e.attribute, e.value);
    return out;
}

} // namespace

TEST(RecordBatch, ConformingRowsFillColumns) {
    RecordBatch b;
    b.begin_row();
    b.append(1, Variant("foo"));
    b.append(2, Variant(std::int64_t(42)));
    EXPECT_EQ(b.end_row(), 2u);
    b.begin_row();
    b.append(1, Variant("bar"));
    EXPECT_EQ(b.end_row(), 1u);

    ASSERT_EQ(b.rows(), 2u);
    ASSERT_EQ(b.num_columns(), 2u);
    const std::int32_t c1 = b.column_index(1);
    const std::int32_t c2 = b.column_index(2);
    ASSERT_GE(c1, 0);
    ASSERT_GE(c2, 0);
    EXPECT_EQ(b.column_at(static_cast<std::size_t>(c1)).values[0], Variant("foo"));
    EXPECT_EQ(b.column_at(static_cast<std::size_t>(c1)).values[1], Variant("bar"));
    EXPECT_EQ(b.column_at(static_cast<std::size_t>(c2)).valid[0], 1);
    EXPECT_EQ(b.column_at(static_cast<std::size_t>(c2)).valid[1], 0);
    EXPECT_EQ(b.column_index(99), -1);
    EXPECT_FALSE(b.is_overflow(0));
    EXPECT_FALSE(b.is_overflow(1));
}

TEST(RecordBatch, MaterializePreservesEntryOrder) {
    RecordBatch b;
    // the first row defines column-creation order: 7 before 3 conforms
    b.begin_row();
    b.append(7, Variant("x"));
    b.append(3, Variant(std::int64_t(1)));
    b.end_row();
    // same order again: conforming
    b.begin_row();
    b.append(7, Variant("y"));
    b.append(9, Variant(2.5));
    b.end_row();
    // the established order reversed: not representable columnar
    b.begin_row();
    b.append(3, Variant(std::int64_t(2)));
    b.append(7, Variant("z"));
    b.end_row();

    EXPECT_FALSE(b.is_overflow(0));
    EXPECT_FALSE(b.is_overflow(1));
    EXPECT_TRUE(b.is_overflow(2));
    const auto r0 = entries_of(b, 0);
    ASSERT_EQ(r0.size(), 2u);
    EXPECT_EQ(r0[0].first, 7u);
    EXPECT_EQ(r0[0].second, Variant("x"));
    EXPECT_EQ(r0[1].first, 3u);
    const auto r1 = entries_of(b, 1);
    ASSERT_EQ(r1.size(), 2u);
    EXPECT_EQ(r1[0].first, 7u);
    EXPECT_EQ(r1[1].first, 9u);
    const auto r2 = entries_of(b, 2);
    ASSERT_EQ(r2.size(), 2u);
    EXPECT_EQ(r2[0].first, 3u); // original entry order, not column order
    EXPECT_EQ(r2[1].first, 7u);
    EXPECT_EQ(r2[1].second, Variant("z"));
}

TEST(RecordBatch, DuplicateAttributeDemotesToOverflow) {
    RecordBatch b;
    b.begin_row();
    b.append(1, Variant("a"));
    b.append(1, Variant("b")); // duplicate: record semantics keep both
    b.end_row();

    ASSERT_TRUE(b.is_overflow(0));
    const auto r = entries_of(b, 0);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].second, Variant("a"));
    EXPECT_EQ(r[1].second, Variant("b"));
}

TEST(RecordBatch, OutOfRangeAttributeDemotesToOverflow) {
    RecordBatch b;
    b.begin_row();
    b.append(RecordBatch::max_column_attr + 10, Variant(std::int64_t(5)));
    b.end_row();

    ASSERT_TRUE(b.is_overflow(0));
    EXPECT_EQ(b.overflow_record(0).size(), 1u);
    // no column was created for the huge id
    EXPECT_EQ(b.column_index(RecordBatch::max_column_attr + 10), -1);
}

// Regression: an overflow row must still pad every column, or every
// subsequent row's values land one slot early with misaligned validity
// (found by the fuzz differential runner).
TEST(RecordBatch, RowsAfterOverflowStayAligned) {
    RecordBatch b;
    b.begin_row();
    b.append(1, Variant("r0"));
    b.append(2, Variant(std::int64_t(10)));
    b.end_row();
    b.begin_row();
    b.append(2, Variant(std::int64_t(20))); // reversed order
    b.append(1, Variant("r1"));             // -> overflow
    b.end_row();
    b.begin_row();
    b.append(1, Variant("r2"));
    b.append(2, Variant(std::int64_t(30)));
    b.end_row();

    ASSERT_TRUE(b.is_overflow(1));
    const std::size_t c1 = static_cast<std::size_t>(b.column_index(1));
    const std::size_t c2 = static_cast<std::size_t>(b.column_index(2));
    ASSERT_EQ(b.column_at(c1).values.size(), 3u);
    ASSERT_EQ(b.column_at(c1).valid.size(), 3u);
    EXPECT_EQ(b.column_at(c1).valid[1], 0); // overflow row: not in columns
    EXPECT_EQ(b.column_at(c1).values[2], Variant("r2"));
    EXPECT_EQ(b.column_at(c2).values[2], Variant(std::int64_t(30)));
    const auto r2 = entries_of(b, 2);
    ASSERT_EQ(r2.size(), 2u);
    EXPECT_EQ(r2[0].second, Variant("r2"));
    EXPECT_EQ(r2[1].second, Variant(std::int64_t(30)));
}

TEST(RecordBatch, AppendTargetAppendsAtEndOfRecord) {
    RecordBatch b;
    b.begin_row();
    b.append(5, Variant("k"));
    b.append(8, Variant(std::int64_t(1)));
    b.end_row();
    b.begin_row();
    b.append(5, Variant("k"));
    b.append(8, Variant(std::int64_t(2)));
    b.append(12, Variant(std::int64_t(99))); // already has the target field
    b.end_row();

    const std::size_t tgt = b.append_target(12);
    // row 0 lacks attribute 12 -> logically appended last
    b.set_row_value(tgt, 0, Variant(std::int64_t(7)));
    // row 1 already carries it -> overwritten in place, order unchanged
    b.set_row_value(tgt, 1, Variant(std::int64_t(8)));

    const auto r0 = entries_of(b, 0);
    ASSERT_EQ(r0.size(), 3u);
    EXPECT_EQ(r0[2].first, 12u);
    EXPECT_EQ(r0[2].second, Variant(std::int64_t(7)));
    EXPECT_EQ(b.entries_in_row(0), 3u);

    const auto r1 = entries_of(b, 1);
    ASSERT_EQ(r1.size(), 3u);
    EXPECT_EQ(r1[2].first, 12u); // stream order already had it last
    EXPECT_EQ(r1[2].second, Variant(std::int64_t(8)));
    EXPECT_EQ(b.entries_in_row(1), 3u);
}

TEST(RecordBatch, ClearKeepsSchemaForReuse) {
    RecordBatch b;
    b.begin_row();
    b.append(1, Variant("v"));
    b.end_row();
    const std::size_t tgt = b.append_target(4);
    b.set_row_value(tgt, 0, Variant(std::int64_t(1)));

    b.clear();
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.rows(), 0u);
    // columns survive (same stream schema), values and targets reset
    EXPECT_GE(b.column_index(1), 0);
    EXPECT_FALSE(b.column_at(static_cast<std::size_t>(b.column_index(4)))
                     .is_append_target);

    b.begin_row();
    b.append(1, Variant("w"));
    b.append(4, Variant(std::int64_t(3)));
    b.end_row();
    const auto r = entries_of(b, 0);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].second, Variant("w"));
    EXPECT_EQ(r[1].second, Variant(std::int64_t(3)));
}

TEST(RecordBatch, AppendRecordCompatibilityPath) {
    IdRecord rec;
    rec.append(2, Variant("hello"));
    rec.append(6, Variant(1.5));
    RecordBatch b;
    b.append_record(rec);
    ASSERT_EQ(b.rows(), 1u);
    EXPECT_FALSE(b.is_overflow(0));
    const auto r = entries_of(b, 0);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].second, Variant("hello"));
    EXPECT_EQ(r[1].second, Variant(1.5));
}

TEST(RecordBatch, EmptyRowIsLegal) {
    RecordBatch b;
    b.begin_row();
    EXPECT_EQ(b.end_row(), 0u);
    EXPECT_EQ(b.rows(), 1u);
    EXPECT_FALSE(b.is_overflow(0));
    IdRecord rec;
    b.materialize(0, rec);
    EXPECT_EQ(rec.size(), 0u);
}

TEST(RecordBatch, RowWeightsDefaultToOneAndClearDropsThem) {
    RecordBatch b;
    for (int i = 0; i < 4; ++i) {
        b.begin_row();
        b.append(1, Variant(std::int64_t(i)));
        b.end_row();
    }
    EXPECT_EQ(b.total_weight(), 4u);
    b.set_weight(2, 1); // weight 1 is the default: nothing to store
    b.set_weight(1, 7);
    EXPECT_EQ(b.weight(0), 1u);
    EXPECT_EQ(b.weight(1), 7u);
    EXPECT_EQ(b.weight(3), 1u); // rows past the last weighted row weigh 1
    EXPECT_EQ(b.total_weight(), 10u);
    const std::vector<std::uint32_t> sel = {1, 3};
    EXPECT_EQ(b.total_weight(sel), 8u);

    b.clear();
    for (int i = 0; i < 2; ++i) {
        b.begin_row();
        b.append(1, Variant(std::int64_t(i)));
        b.end_row();
    }
    EXPECT_EQ(b.weight(1), 1u);
    EXPECT_EQ(b.total_weight(), 2u);
}
