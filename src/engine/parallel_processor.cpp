#include "parallel_processor.hpp"

#include "thread_pool.hpp"

#include "../common/util.hpp"
#include "../io/calireader.hpp"
#include "../io/jsonreader.hpp"
#include "../obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

namespace calib::engine {

namespace {

// records per morsel, from each morsel's partial after phase 1 (the
// planned bytes are engine.morsel_bytes, recorded by make_morsels)
obs::Histogram engine_morsel_records("engine.morsel_records");
// last run's phase-2 profile: strategy code (0 none, 1 pairwise, 3 radix),
// the entry total the selector saw, radix partition count, and merge wall
// time in milliseconds
obs::Gauge engine_merge_strategy("engine.merge_strategy");
obs::Gauge engine_merge_entries("engine.merge_entries");
obs::Gauge engine_merge_partitions("engine.merge_partitions");
obs::Gauge engine_merge_ms("engine.merge_ms");
// per-partition fold spans (radix): visible in --stats and as --trace-json
// timeline events
obs::Timer merge_partition_time("merge.partition");

constexpr std::size_t max_batch_rows = std::size_t(1) << 20;

// the radix merge splits into 2^4 = 16 partitions
constexpr unsigned radix_bits = 4;

std::size_t clamp_batch_size(std::size_t rows) {
    return rows == 0 ? 1 : std::min(rows, max_batch_rows);
}

std::size_t g_default_batch_size = 0; // 0 = unset; fall back to env / 1024
std::size_t g_default_agg_budget = static_cast<std::size_t>(-1); // unset

/// Join file-scoped globals onto every row of \a batch: conforming rows
/// take each global through an append-target column (record `append`
/// semantics — rows already carrying the attribute keep their value),
/// overflow rows get it appended to their record.
void join_globals(RecordBatch& batch, const IdRecord& globals) {
    for (const Entry& g : globals) {
        const std::size_t col = batch.append_target(g.attribute);
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            if (batch.is_overflow(r)) {
                IdRecord& rec = batch.overflow_record(r);
                if (!rec.contains(g.attribute))
                    rec.append(g);
            } else if (!batch.column_at(col).valid[r]) {
                batch.set_row_value(col, r, g.value);
            }
        }
    }
}

/// Read one whole .cali file in batches. With \a with_globals, the file's
/// globals — which may appear anywhere in the stream — are joined onto
/// every row, so the batches wait for the end of the scan.
void read_cali_file(const std::string& path, AttributeRegistry& registry,
                    std::size_t batch_size, bool with_globals,
                    const CaliReader::BatchSink& sink) {
    if (!with_globals) {
        CaliReader::read_file_batches(path, registry, batch_size, sink);
        return;
    }
    IdRecord globals;
    std::vector<RecordBatch> batches;
    CaliReader::read_file_batches(
        path, registry, batch_size,
        [&batches](RecordBatch& b) { batches.push_back(std::move(b)); }, &globals);
    for (RecordBatch& b : batches) {
        join_globals(b, globals);
        sink(b);
    }
}

/// Feed every record of morsel \a m to \a feed: its whole files one after
/// another, each with its own parser (and, with \a with_globals, its own
/// globals), or its byte-range chunk with the split file's globals
/// \a source_globals joined on.
void read_morsel(const Morsel& m, AttributeRegistry& registry, std::size_t batch_size,
                 bool with_globals, const IdRecord& source_globals,
                 const CaliReader::BatchSink& feed) {
    if (m.kind == Morsel::Kind::CaliBytes) {
        // the shared source is already mapped and planned; this worker
        // parses only its own byte span (plus the tiny attribute-definition
        // prefix)
        if (!with_globals) {
            m.source->read_chunk_batches(m.chunk, registry, batch_size, feed);
            return;
        }
        m.source->read_chunk_batches(m.chunk, registry, batch_size,
                                     [&](RecordBatch& b) {
                                         join_globals(b, source_globals);
                                         feed(b);
                                     });
        return;
    }
    for (const std::string& path : m.paths) {
        if (m.kind == Morsel::Kind::JsonFiles)
            read_json_file_batches(path, registry, batch_size, feed);
        else
            read_cali_file(path, registry, batch_size, with_globals, feed);
    }
}

} // namespace

std::size_t default_batch_size() {
    if (g_default_batch_size != 0)
        return g_default_batch_size;
    // util::env_size warns on a set-but-unparsable value — the same
    // validation the CLI flag applies, minus the hard error
    static const std::size_t env = clamp_batch_size(
        util::env_size("CALIB_BATCH_SIZE", RecordBatch::default_rows));
    return env;
}

void set_default_batch_size(std::size_t rows) {
    g_default_batch_size = rows == 0 ? 0 : clamp_batch_size(rows);
}

std::size_t default_agg_memory_budget() {
    if (g_default_agg_budget != static_cast<std::size_t>(-1))
        return g_default_agg_budget;
    static const std::size_t env = util::env_size("CALIB_AGG_MEM", 0);
    return env;
}

void set_default_agg_memory_budget(std::size_t bytes) {
    g_default_agg_budget = bytes;
}

ParallelQueryProcessor::ParallelQueryProcessor(QuerySpec spec, EngineOptions opts)
    : opts_(opts), root_(std::move(spec), &registry_) {
    opts_.batch_size = opts_.batch_size == 0 ? default_batch_size()
                                             : clamp_batch_size(opts_.batch_size);
    if (opts_.agg_memory_budget == static_cast<std::size_t>(-1))
        opts_.agg_memory_budget = default_agg_memory_budget();
    // the budget lives on the root processor: worker partials drain into it
    // unspilled, and the root's sort-spill bounds the merged group table
    if (opts_.agg_memory_budget != 0)
        root_.set_aggregation_memory_budget(opts_.agg_memory_budget);
}

QueryProcessor& ParallelQueryProcessor::run(const std::vector<std::string>& files) {
    const std::size_t threads =
        opts_.threads > 0 ? opts_.threads : ThreadPool::default_threads();

    std::optional<std::vector<Morsel>> planned;
    {
        obs::Phase plan_phase("plan");
        planned = make_morsels(files, {opts_.json_input, opts_.bytes_per_morsel});
    }
    const std::vector<Morsel>& morsels = *planned;
    stats_.morsels = morsels.size();
    if (morsels.size() <= 1) {
        stats_.threads = 1;
        if (!morsels.empty())
            run_serial(morsels.front());
        return root_;
    }

    // -t1 runs the same per-morsel partial + merge-tree DAG as any other
    // thread count (on a one-worker pool) rather than a single left-fold
    // over all records. Floating-point reduction is not associative, so
    // executing the *identical* arithmetic DAG — whose shape depends only
    // on the morsel list — is what makes output byte-identical for every
    // thread count even on adversarial doubles (catastrophic cancellation,
    // huge exponent spreads). docs/CORRECTNESS.md has the argument.
    stats_.threads = threads < morsels.size() ? threads : morsels.size();
    run_parallel(morsels, stats_.threads);
    return root_;
}

void ParallelQueryProcessor::run_serial(const Morsel& morsel) {
    obs::Phase process_phase("process"); // phase 1, as on the parallel path
    read_morsel(morsel, registry_, opts_.batch_size, opts_.with_globals, IdRecord(),
                [this](RecordBatch& b) { root_.add_batch(b); });
    engine_morsel_records.record(root_.num_records_in());
}

void ParallelQueryProcessor::run_parallel(const std::vector<Morsel>& morsels,
                                          std::size_t threads) {
    const std::size_t n = morsels.size();
    std::vector<std::unique_ptr<QueryProcessor>> partials(n);
    for (std::unique_ptr<QueryProcessor>& p : partials)
        p = std::make_unique<QueryProcessor>(root_.spec(), &registry_);

    // byte-range chunks only see their own span, so file-scoped globals are
    // resolved once up front (from the planning scan's metadata index) and
    // joined onto records on the fly — no per-worker record buffering
    IdRecord source_globals;
    if (opts_.with_globals) {
        for (const Morsel& m : morsels) {
            if (m.kind == Morsel::Kind::CaliBytes) {
                source_globals = m.source->read_globals(registry_);
                break; // chunk morsels always share one source (one file)
            }
        }
    }

    // the pool is declared after the state its tasks reference, so its
    // destructor (which joins the workers) runs first
    ThreadPool pool(threads);

    // phase 1: one task per morsel, each filling its own partial
    std::optional<obs::Phase> process_phase;
    process_phase.emplace("process");
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(pool.submit([this, &m = morsels[i], &proc = *partials[i],
                                       &source_globals] {
            read_morsel(m, registry_, opts_.batch_size, opts_.with_globals,
                        source_globals,
                        [&proc](RecordBatch& b) { proc.add_batch(b); });
        }));
    }
    wait_all(futures);
    process_phase.reset();

    // what phase 1 observed, for the stats and the strategy selector (only
    // a plain group table's entries count: nothing else can go radix)
    MergeObservation mobs;
    mobs.has_aggregation = root_.aggregation_db() != nullptr;
    for (const std::unique_ptr<QueryProcessor>& p : partials) {
        engine_morsel_records.record(p->num_records_in());
        if (mobs.has_aggregation)
            mobs.total_entries += p->aggregation_db()->size();
    }

    // phase 2: pick a merge strategy from what phase 1 observed, then fold
    // the partials into the root. Both strategies realize the same per-key
    // reduction DAG — fold_stride_doubling over morsel indices, which keeps
    // passthrough records in morsel order and depends only on the morsel
    // count, never the thread count — so output bytes are identical across
    // strategies; only the schedule differs.
    MergeStrategy strategy = opts_.merge_strategy == MergeStrategy::Adaptive
                                 ? select_merge_strategy(mobs)
                                 : opts_.merge_strategy;
    if (!mobs.has_aggregation)
        strategy = MergeStrategy::Pairwise; // passthrough rows and windowed
                                            // pane rings: no monolithic table
                                            // to hash-partition
    stats_.merge_entries = mobs.total_entries;

    obs::Phase merge_phase("merge");
    const std::uint64_t merge_t0 = obs::now_ns();

    if (strategy == MergeStrategy::Radix) {
        const std::size_t nparts = std::size_t(1) << radix_bits;
        stats_.merge_partitions  = nparts;

        // split every partial's group table into hash partitions (verbatim
        // state copies — no kernel arithmetic), one pool task per partial
        std::vector<std::vector<AggregationDB>> pieces(n);
        {
            std::vector<std::future<void>> extract;
            extract.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                extract.push_back(pool.submit([&pc = pieces[i], &p = *partials[i]] {
                    pc = p.aggregation_db()->extract_partitions(radix_bits);
                }));
            }
            wait_all(extract);
        }
        // the databases are now empty, so these merges only fold record
        // counts (in/kept/processed) into the root
        for (std::unique_ptr<QueryProcessor>& p : partials)
            root_.merge(std::move(*p));

        // one pool task per partition: fold its pieces through the same
        // stride-doubling schedule as pairwise (identical per-key
        // arithmetic). Partition tables are ~1/P the monolithic size, so
        // the fold stays cache-resident at high cardinality.
        std::vector<std::future<void>> tasks;
        tasks.reserve(nparts);
        for (std::size_t part = 0; part < nparts; ++part) {
            tasks.push_back(pool.submit([&pieces, part, n] {
                obs::SpanTimer span(merge_partition_time);
                fold_stride_doubling(n, [&pieces, part](std::size_t into,
                                                        std::size_t from) {
                    pieces[into][part].merge(std::move(pieces[from][part]));
                });
            }));
        }
        wait_all(tasks);

        // concatenate the disjoint partition results in partition order —
        // deterministic, and byte-invisible anyway (flush denominators and
        // row order are canonicalized downstream). Sizing the root once up
        // front avoids log(P) incremental rehashes of the full table.
        AggregationDB* rootdb = root_.aggregation_db();
        std::size_t total = 0;
        for (std::size_t part = 0; part < nparts; ++part)
            total += pieces[0][part].size();
        for (std::size_t part = 0; part < nparts; ++part) {
            rootdb->absorb_disjoint(std::move(pieces[0][part]));
            // the first non-empty absorb steals that partition's arenas;
            // size for the full concatenation right after it (skipped when
            // a spill budget caps the live table anyway)
            if (opts_.agg_memory_budget == 0 && rootdb->size() != 0 &&
                total != 0) {
                rootdb->reserve(total);
                total = 0;
            }
        }
    } else {
        fold_stride_doubling(n, [&partials](std::size_t into, std::size_t from) {
            partials[into]->merge(std::move(*partials[from]));
        });
        root_.merge(std::move(*partials[0]));
    }

    stats_.merge_strategy = strategy;
    stats_.merge_ns       = obs::now_ns() - merge_t0;
    engine_merge_strategy.set(merge_strategy_code(strategy));
    engine_merge_entries.set(static_cast<std::int64_t>(stats_.merge_entries));
    engine_merge_partitions.set(static_cast<std::int64_t>(stats_.merge_partitions));
    engine_merge_ms.set(static_cast<std::int64_t>(stats_.merge_ns / 1000000));
}

} // namespace calib::engine
