// RecordBatch: the columnar morsel representation for the batched query
// pipeline (docs/ENGINE.md, "Columnar batch execution").
//
// A batch holds up to ~batch-size records transposed into per-attribute
// columns: one Variant vector plus a validity bitmap per attribute. Readers
// append parsed fields straight into the columns, the LET and WHERE stages
// run tight per-column loops producing a selection vector, and the
// aggregation database probes its hash table over the batch with per-column
// kernel update loops — no per-record Entry vectors on the hot path.
//
// RecordBatch is the only shape in which records enter the offline query
// pipeline (file readers fill it; RecordMap callers go through
// RecordMapFeeder). Results must not depend on where batches are cut (the
// fuzz differential runner compares batch sizes 1, 2, 7 and 1024), so the
// batch preserves *exact* record semantics:
//
//   - A row is stored columnar only while its fields hit columns in
//     strictly increasing column-creation order (the common case: streams
//     repeat one field order). A duplicate attribute, a permuted field
//     order, or an out-of-range attribute id demotes the row to an
//     "overflow" IdRecord carried alongside the columns; stages fall back
//     to record-at-a-time evaluation for exactly those rows.
//   - Post-build stages (joined globals, LET targets) write through
//     append-target columns that remember, per row, whether the value
//     overwrote an existing field in place or was logically appended at
//     end-of-record; materialize() reconstructs the original entry order
//     exactly (non-appended fields in column order, then appended fields
//     in append order), so truncation at SnapshotRecord::max_entries and
//     passthrough output match the record bit for bit.
#pragma once

#include "attribute.hpp"
#include "idrecord.hpp"
#include "snapshot.hpp"
#include "variant.hpp"

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace calib {

class RecordBatch {
public:
    struct Column {
        id_t attribute = invalid_id;
        std::vector<Variant> values;      ///< one slot per row
        std::vector<std::uint8_t> valid;  ///< 1 when the row has this field
        /// Per-row "logically appended at end-of-record" flags; sized only
        /// while the column is an append target (LET target / joined
        /// global) in the current batch.
        std::vector<std::uint8_t> appended;
        bool is_append_target = false;
    };

    /// Attribute ids at or above this bound never get a column (the flat
    /// id->column map must stay small); rows carrying one demote to
    /// overflow records. Mirrors the reader's local-id bound.
    static constexpr id_t max_column_attr = 1u << 24;

    /// Rows per batch unless a caller asks otherwise (the engine's
    /// fallback without CALIB_BATCH_SIZE, RecordMapFeeder's flush size).
    static constexpr std::size_t default_rows = 1024;

    RecordBatch() = default;

    // -- row building (reader side) -----------------------------------------

    void begin_row() {
        assert(!in_row_);
        in_row_       = true;
        cur_overflow_ = false;
        cur_last_col_ = -1;
        cur_entries_  = 0;
    }

    void append(id_t attribute, const Variant& value) {
        ++cur_entries_;
        if (cur_overflow_) {
            cur_rec_->append(attribute, value);
            return;
        }
        if (attribute >= max_column_attr) {
            demote_current_row();
            cur_rec_->append(attribute, value);
            return;
        }
        const std::size_t ci = column_for(attribute);
        if (static_cast<std::int64_t>(ci) <= cur_last_col_) {
            // duplicate attribute or out-of-order field: not representable
            // columnar without losing entry order — keep the row as a record
            demote_current_row();
            cur_rec_->append(attribute, value);
            return;
        }
        Column& c = columns_[ci];
        c.values.push_back(value);
        c.valid.push_back(1);
        cur_last_col_ = static_cast<std::int64_t>(ci);
        cur_written_.push_back(static_cast<std::uint32_t>(ci));
    }

    /// Close the current row; returns its entry count.
    std::size_t end_row();

    /// Append a whole record as one row.
    void append_record(const IdRecord& rec);

    std::size_t rows() const noexcept { return rows_; }
    bool empty() const noexcept { return rows_ == 0; }

    // -- row weights ----------------------------------------------------------

    /// Let \a row stand for \a weight (>= 1) identical records: the query
    /// pipeline counts, aggregates and emits it as that many copies. Rows
    /// without a weight weigh 1; readers never set one.
    void set_weight(std::size_t row, std::uint64_t weight);

    std::uint64_t weight(std::size_t row) const noexcept {
        return row < weights_.size() ? weights_[row] : 1;
    }

    /// Records the rows stand for: rows() when no row has a weight.
    std::uint64_t total_weight() const noexcept;
    /// Records the \a selection rows stand for.
    std::uint64_t total_weight(std::span<const std::uint32_t> selection) const noexcept;

    /// Drop all rows and weights. The column layout (stream schema) is
    /// retained, so the next batch from the same stream refills without
    /// re-creating columns.
    void clear();

    // -- column access (columnar stages) ------------------------------------

    std::size_t num_columns() const noexcept { return columns_.size(); }
    const std::vector<Column>& columns() const noexcept { return columns_; }
    const Column& column_at(std::size_t i) const noexcept { return columns_[i]; }

    /// Column index for \a attribute, or -1.
    std::int32_t column_index(id_t attribute) const noexcept {
        if (attribute >= col_of_attr_.size())
            return -1;
        const std::uint32_t v = col_of_attr_[attribute];
        return v == 0 ? -1 : static_cast<std::int32_t>(v - 1);
    }

    /// Number of logical entries in \a row (including appended ones) —
    /// the aggregation stage falls back to record-at-a-time processing for
    /// rows beyond SnapshotRecord::max_entries, where truncation applies.
    std::uint32_t entries_in_row(std::size_t row) const noexcept {
        return nentries_[row];
    }

    bool is_overflow(std::size_t row) const noexcept {
        return row < overflow_of_row_.size() && overflow_of_row_[row] != 0;
    }
    const IdRecord& overflow_record(std::size_t row) const noexcept {
        return overflow_[overflow_of_row_[row] - 1];
    }
    IdRecord& overflow_record(std::size_t row) noexcept {
        return overflow_[overflow_of_row_[row] - 1];
    }

    // -- post-build writes (LET targets, joined globals) --------------------

    /// Get-or-create the column for \a attribute and mark it as an append
    /// target: rows that do not already carry the field record set values
    /// as logically appended at end-of-record. Only valid between rows
    /// (after the batch is built). Returns the column index — creation may
    /// reallocate columns(), so hold indices, not references.
    std::size_t append_target(id_t attribute);

    /// Record `set` semantics on a conforming row: overwrite the existing
    /// field in place, or append at end-of-record. \a col must be an
    /// append target.
    void set_row_value(std::size_t col, std::size_t row, const Variant& v) {
        Column& c = columns_[col];
        assert(c.is_append_target);
        if (c.valid[row]) {
            c.values[row] = v;
            return;
        }
        c.values[row]   = v;
        c.valid[row]    = 1;
        c.appended[row] = 1;
        ++nentries_[row];
    }

    /// Reconstruct \a row in exact record entry order.
    void materialize(std::size_t row, IdRecord& out) const;

private:
    std::size_t column_for(id_t attribute) {
        if (attribute < col_of_attr_.size()) {
            const std::uint32_t v = col_of_attr_[attribute];
            if (v != 0)
                return v - 1;
        }
        return create_column(attribute);
    }

    std::size_t create_column(id_t attribute);
    void demote_current_row();

    std::vector<Column> columns_;
    std::vector<std::uint32_t> col_of_attr_;     ///< attr id -> column + 1
    std::vector<std::uint32_t> nentries_;        ///< per-row entry count
    std::vector<std::uint32_t> overflow_of_row_; ///< row -> overflow_ + 1
    std::vector<IdRecord> overflow_;
    std::vector<std::uint32_t> append_targets_;  ///< columns in append order
    std::size_t rows_ = 0;

    // current-row build state
    bool in_row_                = false;
    bool cur_overflow_          = false;
    std::int64_t cur_last_col_  = -1;
    std::uint32_t cur_entries_  = 0;
    IdRecord* cur_rec_          = nullptr;
    std::vector<std::uint32_t> cur_written_; ///< columns written this row

    std::vector<std::uint64_t> weights_; ///< per-row weight; rows past the end weigh 1
};

} // namespace calib
