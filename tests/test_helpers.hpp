// Shared helpers for the calib test suites.
#pragma once

#include "common/attribute.hpp"
#include "common/recordbatch.hpp"
#include "common/recordmap.hpp"
#include "common/variant.hpp"

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <initializer_list>
#include <string>
#include <vector>

namespace calib::test {

/// Build a RecordMap from (name, value) pairs.
inline RecordMap record(
    std::initializer_list<std::pair<const char*, Variant>> entries) {
    RecordMap r;
    for (const auto& [name, value] : entries)
        r.append(name, value);
    return r;
}

/// Append \a r as one row of \a batch, resolving names through \a registry
/// (created on first use). \a reversed appends the fields back to front:
/// after a forward row of a record with two or more fields, that order
/// breaks column order and demotes the row to an overflow record.
inline void append_row(RecordBatch& batch, AttributeRegistry& registry,
                       const RecordMap& r, bool reversed = false) {
    batch.begin_row();
    for (std::size_t i = 0; i < r.size(); ++i) {
        const auto& [name, value] = r[reversed ? r.size() - 1 - i : i];
        batch.append(registry.create(name, value.type()).id(), value);
    }
    batch.end_row();
}

/// Find the single record in \a records whose \a key attribute equals
/// \a value; returns an empty RecordMap when absent or ambiguous.
inline RecordMap find_record(const std::vector<RecordMap>& records,
                             const std::string& key, const Variant& value) {
    RecordMap out;
    int hits = 0;
    for (const RecordMap& r : records)
        if (r.get(key) == value) {
            out = r;
            ++hits;
        }
    return hits == 1 ? out : RecordMap();
}

/// Temporary directory wiped on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& tag) {
        path_ = std::filesystem::temp_directory_path() /
                ("calib-test-" + tag + "-" + std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

    std::string str() const { return path_.string(); }
    std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    std::filesystem::path path_;
};

} // namespace calib::test
