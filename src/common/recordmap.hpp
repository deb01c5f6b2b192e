// RecordMap: the offline representation of a record — attribute *names*
// mapped to values. File readers, the query engine, and report formatters
// operate on RecordMaps so that data from different runs (with different
// attribute-id assignments) can be processed uniformly.
#pragma once

#include "variant.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace calib {

class RecordMap {
public:
    /// Attribute names are interned `const char*` so copies stay cheap.
    using value_type = std::pair<const char*, Variant>;

    RecordMap() = default;

    void append(std::string_view name, const Variant& value) {
        entries_.emplace_back(intern(name), value);
    }
    void append(const char* interned_name, const Variant& value) {
        entries_.emplace_back(interned_name, value);
    }

    /// Overwrite the first entry for \a name, or append.
    void set(std::string_view name, const Variant& value) {
        const char* n = intern(name);
        for (auto& [en, ev] : entries_)
            if (en == n) {
                ev = value;
                return;
            }
        entries_.emplace_back(n, value);
    }

    /// First entry for \a name, or nullptr (one scan for presence + value).
    const Variant* find(std::string_view name) const {
        for (const auto& [en, ev] : entries_)
            if (name_equal(name, en))
                return &ev;
        return nullptr;
    }

    /// First value for \a name, or an empty Variant.
    Variant get(std::string_view name) const {
        const Variant* v = find(name);
        return v ? *v : Variant();
    }

    bool contains(std::string_view name) const { return find(name) != nullptr; }

    void remove(std::string_view name) {
        std::erase_if(entries_,
                      [&](const value_type& e) { return name_equal(name, e.first); });
    }

    std::size_t size() const noexcept { return entries_.size(); }
    bool empty() const noexcept { return entries_.empty(); }
    void clear() noexcept { entries_.clear(); }
    void reserve(std::size_t n) { entries_.reserve(n); }

    std::span<const value_type> fields() const noexcept { return entries_; }
    auto begin() const noexcept { return entries_.begin(); }
    auto end() const noexcept { return entries_.end(); }
    auto begin() noexcept { return entries_.begin(); }
    auto end() noexcept { return entries_.end(); }
    const value_type& operator[](std::size_t i) const noexcept { return entries_[i]; }

    /// Equal when both rows hold the same (name, value) fields in any
    /// order: each field matches one field of \a rhs not matched before,
    /// so a name that repeats must repeat as often on both sides.
    bool operator==(const RecordMap& rhs) const {
        if (entries_.size() != rhs.entries_.size())
            return false;
        std::vector<bool> matched(rhs.entries_.size());
        for (const auto& [n, v] : entries_) {
            std::size_t j = 0;
            while (j < matched.size() &&
                   (matched[j] || !name_equal(n, rhs.entries_[j].first) ||
                    !(rhs.entries_[j].second == v)))
                ++j;
            if (j == matched.size())
                return false;
            matched[j] = true;
        }
        return true;
    }

private:
    /// Stored names are interned, so a lookup name that is itself an
    /// interned pointer (the common case: attribute names flow around as
    /// `const char*`) matches on pointer identity without touching the
    /// characters. Same data pointer + NUL at name.size() ⇔ same content.
    static bool name_equal(std::string_view name, const char* interned) noexcept {
        return name.data() == interned ? interned[name.size()] == '\0'
                                       : name == interned;
    }

    std::vector<value_type> entries_;
};

/// Result rows in one flat arena: every row's fields (interned name,
/// value) back to back, plus the index one past each row's last field.
/// AggregationDB emits its groups here; the query layer orders row
/// indices over the arena and builds RecordMaps only for the rows it
/// returns.
class RowArena {
public:
    using Field = RecordMap::value_type;

    /// Append a field to the row being built.
    void append(const char* interned_name, const Variant& value) {
        fields_.emplace_back(interned_name, value);
    }
    /// Close the row being built (it may be empty).
    void end_row() { ends_.push_back(static_cast<std::uint32_t>(fields_.size())); }
    void reserve(std::size_t rows, std::size_t fields) {
        ends_.reserve(rows);
        fields_.reserve(fields);
    }

    std::size_t rows() const noexcept { return ends_.size(); }
    /// Index of row \a r's first field in fields().
    std::uint32_t row_begin(std::size_t r) const noexcept { return r ? ends_[r - 1] : 0; }
    std::span<const Field> row(std::size_t r) const noexcept {
        return std::span<const Field>(fields_).subspan(row_begin(r),
                                                       ends_[r] - row_begin(r));
    }
    const std::vector<Field>& fields() const noexcept { return fields_; }

    RecordMap record(std::size_t r) const {
        RecordMap out;
        out.reserve(ends_[r] - row_begin(r));
        for (const Field& f : row(r))
            out.append(f.first, f.second);
        return out;
    }
    std::vector<RecordMap> records() const {
        std::vector<RecordMap> out;
        out.reserve(rows());
        for (std::size_t r = 0; r < rows(); ++r)
            out.push_back(record(r));
        return out;
    }

private:
    std::vector<Field> fields_;
    std::vector<std::uint32_t> ends_;
};

} // namespace calib
