// IdRecord: the id-based offline record representation — attribute *ids*
// mapped to values, like SnapshotRecord, but growable (offline records are
// built on the heap, not inside a signal handler, so a fixed capacity would
// only lose data).
//
// Readers resolve attribute names against a query's AttributeRegistry once
// per distinct name and fill RecordBatches, whose rows materialize into
// IdRecords (and which keep rows they cannot store column-wise as
// IdRecords), so everything downstream of the reader boundary — LET
// evaluation, WHERE filtering, aggregation — works on integer compares.
// Names reappear only at the result boundary (AggregationDB::flush /
// QueryProcessor::result), where row counts are small. docs/RECORDS.md
// describes the contract.
#pragma once

#include "attribute.hpp"
#include "recordmap.hpp"
#include "snapshot.hpp"

#include <span>
#include <vector>

namespace calib {

class IdRecord {
public:
    using value_type = Entry;

    IdRecord() = default;

    void append(id_t attribute, const Variant& value) {
        entries_.emplace_back(attribute, value);
    }
    void append(const Entry& e) { entries_.push_back(e); }

    /// Overwrite the first entry for \a attribute, or append.
    void set(id_t attribute, const Variant& value) {
        for (Entry& e : entries_)
            if (e.attribute == attribute) {
                e.value = value;
                return;
            }
        entries_.emplace_back(attribute, value);
    }

    /// First entry for \a attribute, or nullptr (one scan for
    /// presence + value).
    const Entry* find(id_t attribute) const noexcept {
        for (const Entry& e : entries_)
            if (e.attribute == attribute)
                return &e;
        return nullptr;
    }

    /// First value for \a attribute, or an empty Variant.
    Variant get(id_t attribute) const noexcept {
        const Entry* e = find(attribute);
        return e ? e->value : Variant();
    }

    bool contains(id_t attribute) const noexcept { return find(attribute) != nullptr; }

    std::size_t size() const noexcept { return entries_.size(); }
    bool empty() const noexcept { return entries_.empty(); }
    void clear() noexcept { entries_.clear(); }
    void reserve(std::size_t n) { entries_.reserve(n); }

    auto begin() const noexcept { return entries_.begin(); }
    auto end() const noexcept { return entries_.end(); }
    const Entry& operator[](std::size_t i) const noexcept { return entries_[i]; }

    /// Entry view for span-based consumers (filters, AggregationDB).
    std::span<const Entry> span() const noexcept {
        return {entries_.data(), entries_.size()};
    }

private:
    std::vector<Entry> entries_;
};

/// Convert back to the name-based representation (result boundary,
/// name-based readers). Entries whose attribute is unknown to \a registry
/// are dropped.
inline RecordMap to_recordmap(const IdRecord& record, const AttributeRegistry& registry) {
    RecordMap out;
    out.reserve(record.size());
    for (const Entry& e : record) {
        const Attribute a = registry.get(e.attribute);
        if (a.valid())
            out.append(a.name(), e.value);
    }
    return out;
}

} // namespace calib
