// The aggregation database (paper §IV-B, Figure 2).
//
// An AggregationDB keeps one aggregation entry per unique combination of
// key-attribute values. Incoming snapshot records are folded in with
// streaming reduction: extract the key entries, hash them, look up (or
// insert) the aggregation entry, and update the operator states in place.
//
// Databases are mergeable (for cross-thread flushes and the cross-process
// tree reduction) and serializable (for sending partial results between
// ranks). The same class backs the online aggregation service and the
// offline query engine.
//
// Thread-safety: none by design — the runtime keeps one DB per monitored
// thread (paper §IV-B: "this design avoids the use of thread locks").
//
// Two optional capabilities for the columnar offline pipeline:
//
//   - process_batch() folds a whole RecordBatch in one call: key columns
//     and op inputs resolve to column indices once per batch, the probe
//     loop runs over precomputed row hashes (with a last-key memo for
//     clustered streams), and kernel updates read column vectors directly.
//     Byte-identical to calling process() per selected row.
//
//   - set_memory_budget() bounds the in-memory group table: when the live
//     entry count reaches the budget-derived limit, the current entries
//     are sorted by key and appended to a temp spill file as one run, and
//     the table restarts empty. flush()/serialize() then merge groups
//     across runs (plus the live table) with one cursor per run. The
//     spill trigger is a deterministic entry-count threshold, so runs
//     with any batch size spill at identical record boundaries.
#pragma once

#include "kernel.hpp"
#include "ops.hpp"

#include "../common/attribute.hpp"
#include "../common/idrecord.hpp"
#include "../common/recordbatch.hpp"
#include "../common/recordmap.hpp"
#include "../common/snapshot.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace calib {

class AggregationDB {
public:
    /// \param config the aggregation scheme (ops + key)
    /// \param registry attribute dictionary used to resolve labels; must
    ///        outlive the database
    AggregationDB(AggregationConfig config, AttributeRegistry* registry);

    AggregationDB(AggregationDB&&) noexcept;
    AggregationDB& operator=(AggregationDB&&) noexcept;
    AggregationDB(const AggregationDB&)            = delete;
    AggregationDB& operator=(const AggregationDB&) = delete;
    ~AggregationDB();

    /// Preallocate room for \a entries aggregation entries (keeps the
    /// snapshot-processing path free of reallocations until exceeded).
    void reserve(std::size_t entries);

    /// Fold one record — a flat sequence of (attribute-id, value) entries —
    /// into the database (streaming reduction). Entries beyond
    /// SnapshotRecord::max_entries are ignored (mirroring snapshot
    /// capacity, so the online and offline paths agree). \a copies (>= 1)
    /// folds that many identical records with one probe, exactly as that
    /// many calls would.
    void process(std::span<const Entry> record, std::uint64_t copies = 1);

    /// Fold one snapshot record into the database.
    void process(const SnapshotRecord& record) {
        process(std::span<const Entry>(record.begin(), record.size()));
    }

    /// Fold one id-based record (a daemon fold, a batch overflow row).
    void process(const IdRecord& record) { process(record.span()); }

    /// Fold the selected rows of a record batch (columnar hot path): key
    /// and op attributes resolve to columns once, then a tight probe +
    /// per-column update loop runs over the selection vector. Overflow
    /// rows and rows beyond SnapshotRecord::max_entries fall back to
    /// process(). Byte-identical to calling process() per selected row,
    /// a row of weight n as n times: it is probed once and its kernels
    /// take n copies through kernel::state_update_n().
    void process_batch(const RecordBatch& batch,
                       std::span<const std::uint32_t> selection);

    /// Bound live key+state memory to roughly \a bytes: beyond a
    /// budget-derived entry count, sorted runs of partial aggregates spill
    /// to a temp file and merge again at flush()/serialize(). 0 (default)
    /// = unbounded. The threshold is deterministic in (config, budget),
    /// never allocator state, so equal inputs spill identically.
    void set_memory_budget(std::size_t bytes);
    std::size_t memory_budget() const noexcept { return memory_budget_; }

    /// True once at least one run has spilled. Flush emission switches
    /// from insertion order to key-sorted merge order (callers that need
    /// a canonical order sort rows anyway).
    bool spilled() const noexcept { return spill_ != nullptr; }

    /// Number of aggregation entries (unique keys seen).
    std::size_t size() const noexcept { return entries_.size(); }
    bool empty() const noexcept { return entries_.empty(); }

    /// Number of records processed so far (including merged-in ones).
    std::uint64_t num_processed() const noexcept { return processed_; }

    /// Approximate memory footprint of keys + states + table, in bytes.
    std::size_t bytes() const noexcept;

    /// Emit one row per aggregation entry: the (non-empty) key attributes
    /// followed by the operator results, each op's result label interned
    /// once per call. Live entries come out in insertion order, the groups
    /// of a spilled database in spill-key order.
    RowArena flush_rows() const;

    /// The flush_rows() rows as RecordMaps, one by one or collected.
    void flush(const std::function<void(RecordMap&&)>& sink) const;
    std::vector<RecordMap> flush() const;

    /// Merge all entries of \a other into this database. Both databases
    /// must use the same AggregationConfig and the same registry.
    void merge(const AggregationDB& other);

    /// Destructive merge: like merge(const&), but an empty destination
    /// steals \a other's arenas wholesale instead of copying them — the
    /// common case in a pairwise reduction tree, where half the merges at
    /// every level target a freshly-drained database. \a other is empty
    /// afterwards.
    void merge(AggregationDB&& other);

    /// Split the live entries into 2^bits databases by the top \a bits of
    /// each entry's key hash (the radix merge's partition function). Key
    /// and state blocks are copied verbatim — no kernel calls, so states
    /// are bitwise-preserved. This database is left empty (processed count
    /// and stats stay). bits must be in [1, 8]; must not have spilled.
    std::vector<AggregationDB> extract_partitions(unsigned bits);

    /// Append every entry of \a other, whose keys are disjoint from this
    /// database's by contract (radix partitions): key/state blocks copy
    /// verbatim and table slots probe to the first empty slot with no key
    /// comparisons or kernel calls. Much cheaper than merge() for the
    /// radix concatenation step. \a other is empty afterwards.
    void absorb_disjoint(AggregationDB&& other);

    /// Partition-filtered variant of merge_serialized(): folds in only the
    /// entries whose key hash lands in \a partition (top \a bits), so each
    /// radix partition task can replay early-flush buffers independently.
    /// The buffer's record count is credited only when partition == 0, so
    /// replaying every partition of one buffer counts it exactly once.
    void merge_serialized(std::span<const std::byte> data, unsigned bits,
                          std::size_t partition);

    /// Entry count recorded in a serialize() buffer header (used by the
    /// engine's adaptive merge selector to size early-flushed partials
    /// without re-parsing the buffer).
    static std::size_t serialized_entry_count(std::span<const std::byte> data);

    /// Serialize all entries (attribute labels by name, so the buffer is
    /// meaningful across registries).
    std::vector<std::byte> serialize() const;

    /// Merge a buffer produced by serialize() into this database.
    void merge_serialized(std::span<const std::byte> data);

    /// Drop all entries (config stays).
    void clear();

    const AggregationConfig& config() const noexcept { return config_; }
    AttributeRegistry* registry() const noexcept { return registry_; }

    /// Statistics for the overhead study.
    struct Stats {
        std::uint64_t lookups    = 0;
        std::uint64_t collisions = 0; ///< probe steps beyond the first slot
        std::uint64_t inserts    = 0;
        std::uint64_t spill_runs  = 0; ///< sorted runs written to the spill file
        std::uint64_t spill_bytes = 0; ///< bytes written to the spill file
    };
    const Stats& stats() const noexcept { return stats_; }

private:
    struct EntryRec {
        std::uint64_t hash;
        std::uint32_t key_offset; ///< index into key_arena_
        std::uint32_t key_len;    ///< number of key entries
        std::uint32_t state_offset; ///< index into state_arena_ (u64 words)
    };

    struct SpillFile; ///< temp file + run directory (aggregation_db.cpp)

    /// Per-row key location in the batch scratch arena; len == UINT32_MAX
    /// marks a row that fell back to record-at-a-time process().
    struct RowKey {
        std::uint64_t hash;
        std::uint32_t offset;
        std::uint32_t len;
    };

    void resolve_ids();
    bool skip_in_implicit_key(id_t attr);
    std::size_t find_or_insert(const Entry* key, std::size_t key_len, std::uint64_t hash);
    void grow_table(std::size_t min_slots);
    /// Copy one entry's key/state blocks from \a src verbatim and insert
    /// its table slot without key comparisons (caller guarantees the key
    /// is not present).
    void append_entry_unchecked(const AggregationDB& src, const EntryRec& rec);
    void merge_serialized_impl(std::span<const std::byte> data, unsigned bits,
                               std::size_t partition);
    void update_ops(std::size_t entry_index, std::span<const Entry> record,
                    std::uint64_t copies);
    void update_ops_cols(std::size_t entry_index, const RecordBatch& batch,
                         std::size_t row, std::uint64_t copies);
    std::uint64_t* entry_state(std::size_t entry_index, std::size_t op_index);
    const std::uint64_t* entry_state(std::size_t entry_index, std::size_t op_index) const;

    /// percent_total denominators, one per op (0 for other ops).
    std::vector<double> percent_denominators() const;
    void maybe_spill();
    void spill_current_run();
    /// Visit every group merged across all spill runs and the live table,
    /// in spill-key order; \a fn receives the key entries and the merged
    /// state block (state_stride_ words, op_state_offsets_ layout).
    void for_each_merged_group(
        const std::function<void(const Entry*, std::size_t, const std::uint64_t*)>& fn)
        const;

    AggregationConfig config_;
    AttributeRegistry* registry_;

    // lazily resolved attribute ids (invalid_id until the attribute exists)
    std::vector<id_t> key_ids_;
    std::vector<id_t> op_ids_;          // targets
    std::vector<id_t> op_fallback_ids_; // result-label fallbacks (re-aggregation)
    std::size_t resolved_generation_ = static_cast<std::size_t>(-1);
    bool fully_resolved_             = false;

    // per-attribute-id flag cache for implicit ("group by everything") keys
    std::vector<std::uint8_t> implicit_skip_;

    std::vector<std::size_t> op_state_offsets_; // u64 words within an entry block
    std::size_t state_stride_ = 0;              // u64 words per entry

    std::vector<Entry> key_arena_;
    std::vector<std::uint64_t> state_arena_;
    std::vector<EntryRec> entries_;
    std::vector<std::uint32_t> table_; // open addressing; 0 = empty, else index+1

    // spill state (set_memory_budget)
    std::size_t memory_budget_ = 0; ///< bytes; 0 = unbounded
    std::size_t spill_limit_   = 0; ///< live-entry threshold; 0 = unbounded
    std::unique_ptr<SpillFile> spill_;

    // reused process_batch scratch
    std::vector<std::uint32_t> key_plan_;       ///< implicit-key column indices
    std::vector<std::int32_t> key_cols_;        ///< explicit-key column per key id
    std::vector<std::int32_t> op_cols_;         ///< op input column per op
    std::vector<std::int32_t> op_fallback_cols_;
    std::vector<Entry> scratch_keys_;           ///< per-batch key arena
    std::vector<RowKey> row_keys_;
    std::vector<std::uint64_t> hash_scratch_;   ///< distinct-key estimate
    IdRecord fallback_rec_;                     ///< oversized-row materialize

    std::uint64_t processed_ = 0;
    Stats stats_;
};

} // namespace calib
