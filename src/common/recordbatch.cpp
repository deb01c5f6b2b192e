#include "recordbatch.hpp"

namespace calib {

std::size_t RecordBatch::create_column(id_t attribute) {
    if (attribute >= col_of_attr_.size())
        col_of_attr_.resize(attribute + 1, 0);
    const std::size_t ci = columns_.size();
    columns_.emplace_back();
    Column& c   = columns_.back();
    c.attribute = attribute;
    // pad history: rows built before this column existed lack the field
    c.values.resize(rows_);
    c.valid.assign(rows_, 0);
    col_of_attr_[attribute] = static_cast<std::uint32_t>(ci + 1);
    return ci;
}

void RecordBatch::demote_current_row() {
    // roll the fields pushed so far (in order) back out of the columns and
    // into a fresh overflow record
    overflow_.emplace_back();
    IdRecord& rec = overflow_.back();
    for (const std::uint32_t ci : cur_written_) {
        Column& c = columns_[ci];
        rec.append(c.attribute, c.values.back());
        c.values.pop_back();
        c.valid.pop_back();
    }
    cur_written_.clear();
    cur_overflow_ = true;
    cur_rec_      = &rec;
}

std::size_t RecordBatch::end_row() {
    assert(in_row_);
    in_row_ = false;
    const std::size_t row = rows_++;
    if (cur_overflow_) {
        if (overflow_of_row_.size() < rows_)
            overflow_of_row_.resize(rows_, 0);
        overflow_of_row_[row] = static_cast<std::uint32_t>(overflow_.size());
        cur_rec_              = nullptr;
    } else {
        cur_written_.clear();
    }
    // pad every column the row did not touch — all of them for an overflow
    // row (demote rolled its fields back out), so row slots stay aligned
    for (Column& c : columns_) {
        if (c.values.size() < rows_) {
            c.values.resize(rows_);
            c.valid.push_back(0);
        }
    }
    nentries_.push_back(cur_entries_);
    return cur_entries_;
}

void RecordBatch::append_record(const IdRecord& rec) {
    begin_row();
    for (const Entry& e : rec)
        append(e.attribute, e.value);
    end_row();
}

void RecordBatch::clear() {
    for (Column& c : columns_) {
        c.values.clear();
        c.valid.clear();
        c.appended.clear();
        c.is_append_target = false;
    }
    nentries_.clear();
    overflow_of_row_.clear();
    overflow_.clear();
    append_targets_.clear();
    weights_.clear();
    rows_         = 0;
    in_row_       = false;
    cur_overflow_ = false;
    cur_rec_      = nullptr;
    cur_written_.clear();
}

void RecordBatch::set_weight(std::size_t row, std::uint64_t weight) {
    assert(row < rows_ && weight >= 1);
    if (weights_.size() <= row) {
        if (weight == 1)
            return;
        weights_.resize(row + 1, 1);
    }
    weights_[row] = weight;
}

std::uint64_t RecordBatch::total_weight() const noexcept {
    std::uint64_t n = rows_ - weights_.size();
    for (const std::uint64_t w : weights_)
        n += w;
    return n;
}

std::uint64_t
RecordBatch::total_weight(std::span<const std::uint32_t> selection) const noexcept {
    if (weights_.empty())
        return selection.size();
    std::uint64_t n = 0;
    for (const std::uint32_t r : selection)
        n += weight(r);
    return n;
}

std::size_t RecordBatch::append_target(id_t attribute) {
    assert(!in_row_);
    std::size_t ci;
    if (attribute < col_of_attr_.size() && col_of_attr_[attribute] != 0)
        ci = col_of_attr_[attribute] - 1;
    else
        ci = create_column(attribute);
    Column& c = columns_[ci];
    if (!c.is_append_target) {
        c.appended.assign(rows_, 0);
        c.is_append_target = true;
        append_targets_.push_back(static_cast<std::uint32_t>(ci));
    }
    return ci;
}

void RecordBatch::materialize(std::size_t row, IdRecord& out) const {
    out.clear();
    if (is_overflow(row)) {
        for (const Entry& e : overflow_record(row))
            out.append(e.attribute, e.value);
        return;
    }
    // pass 1: original fields in column (= stream field) order
    for (const Column& c : columns_) {
        if (!c.valid[row])
            continue;
        if (c.is_append_target && c.appended[row])
            continue;
        out.append(c.attribute, c.values[row]);
    }
    // pass 2: logically appended fields, in the order the append-target
    // stages ran (globals join, then LET targets in declaration order)
    for (const std::uint32_t ci : append_targets_) {
        const Column& c = columns_[ci];
        if (c.valid[row] && c.appended[row])
            out.append(c.attribute, c.values[row]);
    }
}

} // namespace calib
