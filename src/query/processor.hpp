// QueryProcessor: the offline record-processing pipeline
// (paper §IV-C, local stage): filter -> aggregate -> sort -> limit -> format.
//
// Records are streamed in as RecordBatches with add_batch(), the one place
// LET, WHERE and aggregation run on offline records; callers holding
// name-based records go through RecordMapFeeder. The aggregation is a
// streaming reduction, so memory use is proportional to the number of
// unique keys, not the number of input records.
#pragma once

#include "calql.hpp"
#include "filter.hpp"
#include "formatter.hpp"
#include "let.hpp"
#include "queryspec.hpp"

#include "../aggregate/aggregation_db.hpp"
#include "../aggregate/windowed_db.hpp"
#include "../common/attribute.hpp"
#include "../common/idrecord.hpp"
#include "../common/recordmap.hpp"

#include <memory>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <vector>

namespace calib {

class QueryProcessor {
public:
    explicit QueryProcessor(QuerySpec spec);

    /// Processor over an external (shared) attribute registry. Processors
    /// sharing one registry agree on attribute ids, so their partial
    /// aggregations merge by id without serialization (parallel engine,
    /// phase 2). \a registry must outlive the processor.
    QueryProcessor(QuerySpec spec, AttributeRegistry* registry);

    QueryProcessor(QueryProcessor&&) noexcept = default;

    /// Stream a whole record batch through the pipeline: LET writes column
    /// vectors, WHERE compacts a selection vector, and the aggregation
    /// probes the hash table per batch (a windowed aggregation assigns
    /// panes per run of rows). The batch's attribute ids must come from
    /// registry(); it is consumed as working storage and left in an
    /// unspecified state. Output does not depend on where batches are cut.
    /// A row of weight n counts, aggregates and emits as n copies, but
    /// aggregates with one probe and n-fold kernel updates.
    void add_batch(RecordBatch& batch);

    /// One record as a one-row batch (attribute ids from registry()).
    void add(IdRecord&& record);

    /// Name-based records, through a RecordMapFeeder.
    void add(const std::vector<RecordMap>& records);

    /// Bound the aggregation's in-memory group table: beyond roughly
    /// \a bytes of key+state storage, sorted runs of partial aggregates
    /// spill to a temp file and merge at flush (see AggregationDB).
    /// 0 = unbounded. No-op without aggregation.
    void set_aggregation_memory_budget(std::size_t bytes);

    /// Merge the partial aggregation state of another processor running the
    /// same query (cross-process reduction, paper §IV-C). Without
    /// aggregation, appends the other processor's records.
    void merge(QueryProcessor& other);

    /// Destructive merge: id-based (no serialization round-trip) when both
    /// processors share one registry; record buffers are moved, not copied.
    void merge(QueryProcessor&& other);

    /// Serialized partial state for tree-based reduction across ranks.
    std::vector<std::byte> serialize_partial() const;
    void merge_serialized(std::span<const std::byte> data);

    /// Number of aggregation entries held (0 without aggregation). The
    /// parallel engine's early-flush check watches this.
    std::size_t aggregation_entries() const noexcept;

    /// Direct access to the aggregation database (nullptr without
    /// aggregation, and nullptr for windowed queries — the pane ring is
    /// not one monolithic table, so the radix merge demotes to tree). The
    /// parallel engine's radix merge extracts hash partitions from worker
    /// partials and absorbs the folded partitions into the root through
    /// this.
    AggregationDB* aggregation_db() noexcept { return db_ ? &*db_ : nullptr; }
    const AggregationDB* aggregation_db() const noexcept {
        return db_ ? &*db_ : nullptr;
    }

    /// The pane ring backing a windowed aggregation (nullptr otherwise).
    WindowedAggregator* windowed_db() noexcept { return wdb_ ? &*wdb_ : nullptr; }
    const WindowedAggregator* windowed_db() const noexcept {
        return wdb_ ? &*wdb_ : nullptr;
    }

    /// Early flush: serialize the partial aggregation state and clear it,
    /// bounding worker memory on high-cardinality keys. Returns an empty
    /// buffer when there is no aggregation (or nothing to flush); record
    /// counts stay on the processor.
    std::vector<std::byte> take_partial();

    /// Finish the query and return its rows. Idempotent. Aggregated rows
    /// are ordered by the ORDER BY values, then canonically: by their
    /// name-sorted (name, value) field sequences, with compare() ties
    /// broken by identity_compare(). That order is total on distinct rows
    /// and a function of row contents alone, so any thread count, merge
    /// strategy or spill gives the same rows. The row indices are sorted
    /// over the flushed group arena (partially, when LIMIT is below the
    /// row count), and only the rows returned become RecordMaps; a LIMIT k
    /// answer is the first k rows of the unlimited one. Passthrough rows
    /// are ordered by ORDER BY with input order breaking ties. An ORDER BY
    /// term reads the column of that name, or else the column a SELECT
    /// alias of that name renames.
    const std::vector<RecordMap>& result();

    /// Finish and render with the spec's formatter.
    void write(std::ostream& os);

    const QuerySpec& spec() const noexcept { return spec_; }

    /// The attribute dictionary this processor's batches are resolved
    /// against. Readers feeding add_batch() must resolve names through
    /// this registry.
    AttributeRegistry* registry() const noexcept { return registry_; }

    /// Number of records seen (pre-filter) and kept (post-filter).
    std::uint64_t num_records_in() const noexcept { return in_; }
    std::uint64_t num_records_kept() const noexcept { return kept_; }

private:
    /// Aggregated rows in result order, LIMIT applied (see result()).
    std::vector<RecordMap> top_rows(const RowArena& rows) const;
    /// Passthrough rows: a stable ORDER BY (keeping only the first LIMIT
    /// rows when LIMIT is set).
    void sort_records(std::vector<RecordMap>& records) const;
    /// Time-attribute value of a record in windowed passthrough mode
    /// (lazily resolves the attribute id, AggregationDB-style).
    Variant passthrough_timestamp(const IdRecord& record);
    /// Append a passthrough row; in windowed mode assigns its pane (rows
    /// without a usable timestamp are dropped and counted).
    void add_passthrough(RecordMap&& row, const Variant& timestamp);

    QuerySpec spec_;
    std::unique_ptr<AttributeRegistry> owned_registry_;
    AttributeRegistry* registry_;
    SnapshotFilter id_filter_; ///< id-compiled WHERE (shares registry_)
    CompiledLets id_lets_;     ///< id-compiled LET (shares registry_)
    std::optional<AggregationDB> db_;
    std::optional<WindowedAggregator> wdb_; ///< windowed aggregation mode
    std::vector<RecordMap> passthrough_;
    /// Windowed passthrough mode: pane index per passthrough row, plus the
    /// watermark the live range anchors to at result() time.
    std::vector<std::int64_t> passthrough_panes_;
    std::optional<std::int64_t> pass_watermark_;
    std::uint64_t pass_dropped_ = 0;
    id_t pass_time_id_          = invalid_id;
    std::size_t pass_time_gen_  = static_cast<std::size_t>(-1);
    std::optional<std::vector<RecordMap>> result_;
    std::vector<std::uint32_t> sel_; ///< reused selection-vector scratch
    IdRecord rec_scratch_;           ///< reused row-materialize scratch
    RecordBatch one_;                ///< add(IdRecord&&) one-row batch
    std::uint64_t in_   = 0;
    std::uint64_t kept_ = 0;
};

/// The one adapter from name-based records into the batch pipeline: each
/// RecordMap becomes a row of a reused RecordBatch, every distinct
/// (interned) attribute name resolves against the processor's registry
/// once per feeder, and the batch goes to add_batch() every
/// RecordBatch::default_rows rows. It never holds more than one batch.
/// Call flush() after the last record.
class RecordMapFeeder {
public:
    explicit RecordMapFeeder(QueryProcessor& proc) : proc_(proc) {}

    /// Append one row holding \a record with weight \a copies: the
    /// processor's answer equals that of \a copies separate rows, but an
    /// aggregation folds the row once (none for 0 copies).
    void add(const RecordMap& record, std::uint64_t copies = 1);

    /// Hand the pending rows (if any) to the processor.
    void flush();

private:
    QueryProcessor& proc_;
    RecordBatch batch_;
    IdRecord row_;
    std::unordered_map<const char*, id_t> ids_; ///< interned name -> id
};

/// Diagnose silently-inert query clauses: returns one warning message per
/// attribute referenced in WHERE / GROUP BY / AGGREGATE / ORDER BY that
/// never appeared in the input (\a registry is the registry the input was
/// resolved against — call after the run). Names the query itself produces
/// (LET targets, aggregation result labels and aliases) are exempt. An
/// unknown WHERE attribute silently drops every record and an unknown
/// GROUP BY key silently collapses to one group, so these are warnings,
/// not errors.
std::vector<std::string> unknown_query_attributes(const QuerySpec& spec,
                                                  const AttributeRegistry& registry);

/// One-shot helper: run \a query over \a records and return the output.
std::vector<RecordMap> run_query(std::string_view query,
                                 const std::vector<RecordMap>& records);

/// One-shot helper: run \a query over \a records and render to \a os.
void run_query(std::string_view query, const std::vector<RecordMap>& records,
               std::ostream& os);

} // namespace calib
