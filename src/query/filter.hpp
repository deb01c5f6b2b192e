// Record filtering (WHERE clause evaluation) with resolved attribute ids,
// for offline record batches and online snapshot records.
#pragma once

#include "queryspec.hpp"

#include "../common/attribute.hpp"
#include "../common/recordbatch.hpp"
#include "../common/snapshot.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace calib {

/// Filter with id-resolved conditions: conditions compile to attribute ids
/// against one registry (lazily, so late-created attributes still bind),
/// and evaluation is id compares — no string scans. Serves both the online
/// snapshot path and the offline batch pipeline.
class SnapshotFilter {
public:
    SnapshotFilter(std::vector<FilterSpec> filters, AttributeRegistry* registry);

    /// True when all conditions hold for \a record.
    bool matches(std::span<const Entry> record);
    bool matches(const SnapshotRecord& record) {
        return matches(std::span<const Entry>(record.begin(), record.size()));
    }

    /// Columnar stage: fill \a selection with the (ascending) indices of
    /// the rows of \a batch that pass every condition. Each condition is a
    /// tight in-place compaction loop over one column; per-row outcomes
    /// and the filter.checked/passed counter totals are identical to
    /// calling matches() per materialized row.
    void matches(const RecordBatch& batch, std::vector<std::uint32_t>& selection);

    bool empty() const noexcept { return filters_.empty(); }

private:
    void resolve();

    std::vector<FilterSpec> filters_;
    AttributeRegistry* registry_;
    std::vector<id_t> ids_;
    std::size_t resolved_generation_ = static_cast<std::size_t>(-1);
    bool fully_resolved_             = false;
};

} // namespace calib
