#include "filter.hpp"

#include "../obs/metrics.hpp"

namespace calib {

namespace {

obs::Counter filter_checked("filter.checked");
obs::Counter filter_passed("filter.passed");

/// Compare a record value against a filter value, coercing across
/// numeric/string representations (so `loop.iteration=4` matches whether
/// the stored value is the integer 4 or the string "4").
int coerced_compare(const Variant& record_value, const Variant& filter_value) {
    const bool rn = record_value.is_numeric() || record_value.is_bool();
    const bool fn = filter_value.is_numeric() || filter_value.is_bool();
    if (rn == fn)
        return record_value.compare(filter_value);
    // mixed: compare textual forms
    return record_value.to_string().compare(filter_value.to_string());
}

bool apply_op(FilterSpec::Op op, bool present, const Variant& value,
              const Variant& filter_value) {
    switch (op) {
    case FilterSpec::Op::Exist:
        return present;
    case FilterSpec::Op::NotExist:
        return !present;
    default:
        break;
    }
    if (!present)
        return false;
    const int c = coerced_compare(value, filter_value);
    switch (op) {
    case FilterSpec::Op::Eq: return c == 0;
    case FilterSpec::Op::Ne: return c != 0;
    case FilterSpec::Op::Lt: return c < 0;
    case FilterSpec::Op::Le: return c <= 0;
    case FilterSpec::Op::Gt: return c > 0;
    case FilterSpec::Op::Ge: return c >= 0;
    default:                 return false;
    }
}

} // namespace

SnapshotFilter::SnapshotFilter(std::vector<FilterSpec> filters,
                               AttributeRegistry* registry)
    : filters_(std::move(filters)), registry_(registry) {
    ids_.assign(filters_.size(), invalid_id);
}

void SnapshotFilter::resolve() {
    const std::size_t gen = registry_->generation();
    if (fully_resolved_ || gen == resolved_generation_)
        return;
    resolved_generation_ = gen;
    bool all             = true;
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        if (ids_[i] == invalid_id) {
            Attribute a = registry_->find(filters_[i].attribute);
            if (a.valid())
                ids_[i] = a.id();
            else
                all = false;
        }
    }
    fully_resolved_ = all;
}

void SnapshotFilter::matches(const RecordBatch& batch,
                             std::vector<std::uint32_t>& selection) {
    resolve();
    const std::size_t n = batch.rows();
    filter_checked.add(n);
    selection.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        selection[r] = static_cast<std::uint32_t>(r);
    static const Variant no_value;
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        const FilterSpec& f    = filters_[i];
        const id_t id          = ids_[i];
        const std::int32_t ci  = id == invalid_id ? -1 : batch.column_index(id);
        const RecordBatch::Column* col =
            ci >= 0 ? &batch.column_at(static_cast<std::size_t>(ci)) : nullptr;
        std::size_t out = 0;
        for (std::size_t k = 0; k < selection.size(); ++k) {
            const std::uint32_t r = selection[k];
            bool ok;
            if (batch.is_overflow(r)) {
                // record-at-a-time fallback: first matching entry wins
                const Entry* e = nullptr;
                if (id != invalid_id)
                    for (const Entry& cand : batch.overflow_record(r))
                        if (cand.attribute == id) {
                            e = &cand;
                            break;
                        }
                ok = apply_op(f.op, e != nullptr, e ? e->value : no_value,
                              f.value);
            } else {
                const bool present = col != nullptr && col->valid[r] != 0;
                ok = apply_op(f.op, present, present ? col->values[r] : no_value,
                              f.value);
            }
            if (ok)
                selection[out++] = r;
        }
        selection.resize(out);
    }
    filter_passed.add(selection.size());
}

bool SnapshotFilter::matches(std::span<const Entry> record) {
    resolve();
    filter_checked.add();
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        const Entry* e = nullptr;
        if (ids_[i] != invalid_id)
            for (const Entry& candidate : record)
                if (candidate.attribute == ids_[i]) {
                    e = &candidate;
                    break;
                }
        if (!apply_op(filters_[i].op, e != nullptr, e ? e->value : Variant(),
                      filters_[i].value))
            return false;
    }
    filter_passed.add();
    return true;
}

} // namespace calib
