// WindowedAggregator: a ring of mergeable pane sub-aggregates backing
// CalQL WINDOW/SLIDE queries.
//
// Every pane is a full AggregationDB covering one slide-width of the time
// axis (see window.hpp for the pane arithmetic). Records route into the
// pane their timestamp falls in; the *watermark* (largest pane index seen)
// defines the live range — the trailing ceil(W/S) panes — and anything
// older retires. The window result is a fold of the live panes in
// ascending pane order, so no kernel needs subtractable state, and the
// fold shape is a pure function of the pane set: replaying a static file
// yields byte-identical results for every thread count, merge strategy,
// and batch size (the engine merges windowed partials pane-by-pane, and
// per-pane states inherit the non-windowed byte-identity guarantee).
//
// Retirement is monotone-safe under parallel merges: a pane expired
// against one partial's watermark is expired against the merged (maximum)
// watermark too, so early retirement in a worker never changes the final
// live set.
#pragma once

#include "aggregation_db.hpp"
#include "window.hpp"

#include "../common/attribute.hpp"
#include "../common/recordbatch.hpp"
#include "../common/recordmap.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

namespace calib {

class WindowedAggregator {
public:
    /// \param config the aggregation scheme each pane runs
    /// \param window duration / slide / time attribute (must be enabled())
    /// \param registry attribute dictionary; must outlive the aggregator
    WindowedAggregator(AggregationConfig config, WindowSpec window,
                       AttributeRegistry* registry);

    WindowedAggregator(WindowedAggregator&&) noexcept            = default;
    WindowedAggregator& operator=(WindowedAggregator&&) noexcept = default;

    /// Fold the selected rows of \a batch into their panes, in selection
    /// order. Consecutive rows of one pane form a run that goes to that
    /// pane's AggregationDB::process_batch() before the next pane is
    /// looked up, so the watermark advances and panes retire at the same
    /// rows as they would one row at a time. Rows without a usable
    /// timestamp are counted in dropped_no_time(); rows whose pane has
    /// already retired are counted in dropped_late() (a row of weight n
    /// counts n).
    void process_batch(const RecordBatch& batch,
                       std::span<const std::uint32_t> selection);

    /// Total aggregation entries across live panes (early-flush watermark).
    std::size_t entries() const noexcept;
    bool empty() const noexcept { return panes_.empty(); }
    std::size_t pane_count() const noexcept { return panes_.size(); }

    /// Bound each pane's in-memory group table (see AggregationDB).
    void set_memory_budget(std::size_t bytes);

    /// Pane-wise destructive merge of another aggregator running the same
    /// (config, window) over the same registry; watermarks combine as max.
    void merge(WindowedAggregator&& other);

    /// Pane-wise serialized state: watermark + drop counters + one
    /// AggregationDB buffer per live pane (meaningful across registries).
    std::vector<std::byte> serialize() const;
    void merge_serialized(std::span<const std::byte> data);

    /// Total entry count recorded in a serialize() buffer (the windowed
    /// counterpart of AggregationDB::serialized_entry_count; the engine's
    /// adaptive merge selector sizes early-flushed partials with it).
    static std::size_t serialized_entry_count(std::span<const std::byte> data);

    /// Drop all pane contents and the drop counters (they travel inside
    /// serialize() buffers, like AggregationDB's record count). The
    /// watermark stays: records older than an already-retired pane must
    /// keep dropping after an early flush.
    void clear();

    /// Fold the live panes (ascending pane index) into one result set,
    /// emitted by AggregationDB::flush_rows(). Non-destructive; the fold
    /// shape is fixed, so it is deterministic.
    RowArena flush_rows() const;

    const WindowSpec& window() const noexcept { return window_; }
    const AggregationConfig& config() const noexcept { return config_; }
    AttributeRegistry* registry() const noexcept { return registry_; }

    std::optional<std::int64_t> watermark() const noexcept { return watermark_; }
    std::uint64_t dropped_late() const noexcept { return dropped_late_; }
    std::uint64_t dropped_no_time() const noexcept { return dropped_no_time_; }

private:
    /// Smallest live pane index, given the current watermark.
    std::int64_t live_floor() const noexcept;
    /// The database of pane \a pane, created on demand and advancing the
    /// watermark; nullptr when the pane has already retired.
    AggregationDB* pane_for(std::int64_t pane);
    void retire_expired();

    AggregationConfig config_;
    WindowSpec window_;
    AttributeRegistry* registry_;

    // lazily resolved time-attribute id (name-resolution caching in the
    // same style as AggregationDB)
    id_t time_id_                    = invalid_id;
    std::size_t resolved_generation_ = static_cast<std::size_t>(-1);

    std::map<std::int64_t, AggregationDB> panes_; ///< ascending pane index
    std::optional<std::int64_t> watermark_;
    std::size_t memory_budget_    = 0;
    std::uint64_t dropped_late_   = 0;
    std::uint64_t dropped_no_time_ = 0;
    std::vector<std::uint32_t> run_; ///< process_batch pane-run scratch
};

} // namespace calib
