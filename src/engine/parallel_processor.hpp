// The parallel query engine: morsel-driven, two-phase execution of one
// QuerySpec over a set of input files.
//
//   phase 1  workers pull morsels and run the full record pipeline
//            (read -> LET -> filter -> aggregate) into thread-local
//            partial QueryProcessors sharing one attribute registry;
//   phase 2  partials are combined by one of two merge strategies —
//            pairwise (serial) or radix (partition-parallel) — picked per
//            query by an adaptive cardinality selector (see
//            merge_strategy.hpp), then the driver finishes: canonical
//            order -> ORDER BY -> LIMIT -> FORMAT.
//
// Output bytes are identical for every thread count and every merge
// strategy: the morsel split and the per-key reduction DAG depend only on
// the input set (so every configuration executes the same floating-point
// arithmetic), and aggregated rows are re-sorted canonically before
// formatting (see QueryProcessor::result()). docs/ENGINE.md and
// docs/CORRECTNESS.md have the full argument.
//
// Each morsel yields exactly one partial, and phase 2 folds each partial
// once. Workers never spill; the aggregation memory budget applies to the
// root, whose sort-spill bounds the merged group table.
#pragma once

#include "merge_strategy.hpp"
#include "morsel.hpp"

#include "../common/attribute.hpp"
#include "../query/processor.hpp"
#include "../query/queryspec.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace calib::engine {

struct EngineOptions {
    /// Worker threads; 0 = hardware concurrency. 1 executes the same
    /// morsel/merge DAG on a one-worker pool (single-morsel inputs skip
    /// the pool entirely), so floating-point results are byte-identical
    /// for every thread count.
    std::size_t threads = 0;
    bool json_input     = false;
    /// Join each file's globals (e.g. mpi.rank) onto its records.
    bool with_globals = false;
    /// Target input bytes per morsel, i.e. per phase-1 partial: consecutive
    /// whole files pack into one morsel until it holds at least this many
    /// bytes, and a lone .cali file splits into byte-range chunks of about
    /// this size (see make_morsels). 0 gives one morsel per file and never
    /// splits. The plan depends only on the input set and this target.
    std::size_t bytes_per_morsel = default_bytes_per_morsel;
    /// Rows per RecordBatch; 0 = default_batch_size() (CALIB_BATCH_SIZE or
    /// 1024). Clamped to [1, 1<<20]. Output bytes are identical for every
    /// batch size; the fuzz differential runner guards it.
    std::size_t batch_size = 0;
    /// Aggregation memory budget in bytes applied to the root processor
    /// (partial aggregates sort-spill to a temp file beyond it; 0 =
    /// unbounded). The sentinel SIZE_MAX resolves to
    /// default_agg_memory_budget() (CALIB_AGG_MEM or unbounded).
    std::size_t agg_memory_budget = static_cast<std::size_t>(-1);
    /// Phase-2 merge strategy: Adaptive lets select_merge_strategy choose
    /// from what phase 1 observed; Pairwise or Radix forces one (tests and
    /// bench_groupby use this to hold every strategy to the same bytes).
    /// Radix demotes to Pairwise on a query without a plain group table.
    MergeStrategy merge_strategy = MergeStrategy::Adaptive;
};

/// Process-wide default rows-per-batch: the last set_default_batch_size()
/// value, else CALIB_BATCH_SIZE, else RecordBatch::default_rows (1024).
/// Always in [1, 1<<20].
std::size_t default_batch_size();
/// Override the process-wide default (0 restores the env/1024 fallback).
void set_default_batch_size(std::size_t rows);

/// Process-wide default aggregation memory budget in bytes (0 = unbounded):
/// the last set_default_agg_memory_budget() value, else CALIB_AGG_MEM.
std::size_t default_agg_memory_budget();
void set_default_agg_memory_budget(std::size_t bytes);

struct EngineStats {
    std::size_t threads           = 0; ///< workers actually used
    std::size_t morsels           = 0;
    /// Always 0: the engine has no early flush (each morsel yields one
    /// partial, folded once). Kept only because perfbench/src/offline.cpp
    /// still reads it.
    std::size_t early_flushes     = 0;
    /// Phase-2 strategy actually executed: Pairwise or Radix, or Adaptive
    /// when no merge phase ran (the single-morsel serial path).
    MergeStrategy merge_strategy = MergeStrategy::Adaptive;
    /// Entries the selector saw across the partials' group tables (0 when
    /// no merge phase ran, and for passthrough and windowed queries, which
    /// always merge pairwise).
    std::size_t merge_entries = 0;
    /// Radix partition count (0 unless the radix strategy ran).
    std::size_t merge_partitions = 0;
    /// Phase-2 merge wall time in nanoseconds (0 on the serial path).
    std::uint64_t merge_ns = 0;
};

class ParallelQueryProcessor {
public:
    explicit ParallelQueryProcessor(QuerySpec spec, EngineOptions opts = {});

    /// Execute the query over \a files (single-shot). Returns the root
    /// processor, ready for result() / write().
    QueryProcessor& run(const std::vector<std::string>& files);

    QueryProcessor& processor() noexcept { return root_; }
    const EngineStats& stats() const noexcept { return stats_; }

private:
    void run_serial(const Morsel& morsel);
    void run_parallel(const std::vector<Morsel>& morsels, std::size_t threads);

    EngineOptions opts_;
    AttributeRegistry registry_; // shared by all partials; before root_
    QueryProcessor root_;
    EngineStats stats_;
};

} // namespace calib::engine
