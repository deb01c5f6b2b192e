// Tests for the parallel query engine: thread pool semantics, morsel
// splitting, and — most importantly — byte-identity of the parallel and
// serial paths for every output format and thread count.
#include "engine/morsel.hpp"
#include "engine/parallel_processor.hpp"
#include "engine/thread_pool.hpp"

#include "io/calireader.hpp"
#include "io/caliwriter.hpp"
#include "io/filebuffer.hpp"
#include "obs/metrics.hpp"
#include "query/calql.hpp"

#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace calib;
using namespace calib::engine;
using calib::test::TempDir;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ExecutesSubmittedTasks) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    wait_all(futures);
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
    ThreadPool pool(2);
    std::future<void> ok   = pool.submit([] {});
    std::future<void> boom = pool.submit([] {
        throw std::runtime_error("task failed");
    });
    EXPECT_NO_THROW(ok.get());
    EXPECT_THROW(boom.get(), std::runtime_error);
}

TEST(ThreadPool, WaitAllRethrowsFirstFailureAfterAllComplete) {
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("boom");
            ++completed;
        }));
    EXPECT_THROW(wait_all(futures), std::runtime_error);
    // every non-throwing task still ran to completion
    EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
        // no explicit wait: the destructor must run every queued task
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne) {
    EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, OccupancyGaugesAndWaitIdle) {
    calib::obs::set_enabled(true);
    auto& mreg                = calib::obs::MetricsRegistry::instance();
    const std::int64_t tasks0 = mreg.value("pool.tasks");

    {
        ThreadPool pool(2);

        // park both workers on a gate so occupancy is deterministic
        // (condition checks, not sleeps)
        std::promise<void> release;
        std::shared_future<void> gate(release.get_future());
        std::atomic<int> started{0};
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 2; ++i)
            futures.push_back(pool.submit([&started, gate] {
                ++started;
                gate.wait();
            }));
        while (started.load() < 2)
            std::this_thread::yield();
        EXPECT_EQ(pool.active_workers(), 2u);
        EXPECT_EQ(mreg.value("pool.active_workers"), 2);

        // with every worker parked, further submissions must queue up
        for (int i = 0; i < 3; ++i)
            futures.push_back(pool.submit([] {}));
        EXPECT_EQ(pool.queue_depth(), 3u);
        EXPECT_EQ(mreg.value("pool.queue_depth"), 3);

        release.set_value();
        pool.wait_idle();
        EXPECT_EQ(pool.queue_depth(), 0u);
        EXPECT_EQ(pool.active_workers(), 0u);
        EXPECT_EQ(mreg.value("pool.queue_depth"), 0);
        EXPECT_EQ(mreg.value("pool.active_workers"), 0);
        EXPECT_EQ(mreg.value("pool.tasks") - tasks0, 5);
        wait_all(futures);
    }
    calib::obs::set_enabled(false);
}

TEST(ThreadPool, WaitIdleReturnsImmediatelyWhenIdle) {
    ThreadPool pool(2);
    pool.wait_idle(); // nothing submitted: must not block
    EXPECT_EQ(pool.queue_depth(), 0u);
    EXPECT_EQ(pool.active_workers(), 0u);
}

// ------------------------------------------------------------------- Morsels

namespace {

/// Write a .cali file with \a nrecords records over four kernels, an
/// integer metric, and a unique per-record id.
void write_cali(const std::string& path, int nrecords, int offset = 0,
                const char* rank = nullptr) {
    static const char* kernels[] = {"advec", "pdv", "accel", "flux"};
    std::ofstream os(path);
    CaliWriter w(os);
    if (rank)
        w.write_global("mpi.rank", Variant(rank));
    for (int i = 0; i < nrecords; ++i) {
        RecordMap r;
        r.append("kernel", Variant(kernels[i % 4]));
        r.append("count", Variant(static_cast<long long>(i % 7 + 1)));
        r.append("id", Variant(static_cast<long long>(offset + i)));
        w.write_record(r);
    }
}

std::string run_engine(const std::string& query,
                       const std::vector<std::string>& files, EngineOptions opts,
                       EngineStats* stats = nullptr) {
    ParallelQueryProcessor eng(parse_calql(query), opts);
    std::ostringstream os;
    eng.run(files).write(os);
    if (stats)
        *stats = eng.stats();
    return os.str();
}

} // namespace

TEST(Morsel, OneMorselPerFileForMultiFileInput) {
    TempDir dir("morsel-multi");
    write_cali(dir.file("a.cali"), 10);
    write_cali(dir.file("b.cali"), 10);

    auto morsels = make_morsels({dir.file("a.cali"), dir.file("b.cali")}, {});
    ASSERT_EQ(morsels.size(), 2u);
    EXPECT_EQ(morsels[0].kind, Morsel::Kind::CaliFile);
    EXPECT_EQ(morsels[0].path, dir.file("a.cali"));
    EXPECT_EQ(morsels[1].path, dir.file("b.cali"));
}

TEST(Morsel, SingleLargeFileSplitsIntoByteRanges) {
    TempDir dir("morsel-range");
    write_cali(dir.file("big.cali"), 1000);

    MorselOptions opts;
    opts.bytes_per_morsel = 4096;
    auto morsels          = make_morsels({dir.file("big.cali")}, opts);
    ASSERT_GE(morsels.size(), 2u);
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < morsels.size(); ++i) {
        const Morsel& m = morsels[i];
        EXPECT_EQ(m.kind, Morsel::Kind::CaliBytes);
        EXPECT_EQ(m.chunk, i);
        ASSERT_TRUE(m.source);
        // all chunk morsels share one mapped source
        EXPECT_EQ(m.source.get(), morsels[0].source.get());
        records += m.source->chunks()[i].records;
    }
    EXPECT_EQ(records, 1000u);
    EXPECT_EQ(morsels[0].source->num_records(), 1000u);

    // chunks tile the file with line-aligned splits
    const auto& chunks = morsels[0].source->chunks();
    EXPECT_EQ(chunks.front().begin, 0u);
    EXPECT_EQ(chunks.back().end, morsels[0].source->size_bytes());
    for (std::size_t i = 1; i < chunks.size(); ++i)
        EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);
}

TEST(Morsel, SmallSingleFileStaysWhole) {
    TempDir dir("morsel-small");
    write_cali(dir.file("small.cali"), 10);
    auto morsels = make_morsels({dir.file("small.cali")}, {});
    ASSERT_EQ(morsels.size(), 1u);
    EXPECT_EQ(morsels[0].kind, Morsel::Kind::CaliFile);
}

TEST(Morsel, CountRecords) {
    TempDir dir("morsel-count");
    write_cali(dir.file("n.cali"), 137);
    EXPECT_EQ(CaliFileSource(dir.file("n.cali"), 1024).num_records(), 137u);
}

TEST(Morsel, GlobalsAnywhereInFileAreJoined) {
    // a global written after the last record still joins every record:
    // whole-file morsels, a single unsplit file, and byte-range chunks
    TempDir dir("morsel-globals");
    const auto write_late_global = [](const std::string& path, int n,
                                      const char* rank) {
        std::ofstream os(path);
        CaliWriter w(os);
        for (int i = 0; i < n; ++i) {
            RecordMap r;
            r.append("kernel", Variant("advec"));
            r.append("id", Variant(static_cast<long long>(i)));
            w.write_record(r);
        }
        w.write_global("mpi.rank", Variant(rank));
    };
    write_late_global(dir.file("a.cali"), 20, "7");
    write_late_global(dir.file("b.cali"), 300, "8");

    const auto counts_by_rank = [](const std::vector<std::string>& files,
                                   EngineOptions opts) {
        opts.with_globals = true;
        ParallelQueryProcessor eng(parse_calql("AGGREGATE count GROUP BY mpi.rank"),
                                   opts);
        std::map<std::string, std::uint64_t> out;
        for (const RecordMap& r : eng.run(files).result())
            out[r.get("mpi.rank").to_string()] = r.get("count").to_uint();
        return out;
    };
    EngineOptions opts;
    opts.threads = 2;
    const std::map<std::string, std::uint64_t> both = {{"7", 20}, {"8", 300}};
    EXPECT_EQ(counts_by_rank({dir.file("a.cali"), dir.file("b.cali")}, opts), both);

    const std::map<std::string, std::uint64_t> b_only = {{"8", 300}};
    opts.bytes_per_morsel = 0; // one unsplit morsel: the serial path
    EXPECT_EQ(counts_by_rank({dir.file("b.cali")}, opts), b_only);
    opts.bytes_per_morsel = 512;
    ParallelQueryProcessor probe(parse_calql("FORMAT csv"), opts);
    probe.run({dir.file("b.cali")});
    ASSERT_GE(probe.stats().morsels, 2u) << "byte-range chunks expected";
    EXPECT_EQ(counts_by_rank({dir.file("b.cali")}, opts), b_only);
}

// ------------------------------------------ parallel == serial (byte-exact)

namespace {

const char* const kFormats[] = {"table", "csv", "json", "expand", "tree"};
const std::size_t kThreadCounts[] = {2, 4, 8};

/// Assert that \a query over \a files renders identically at 1/2/4/8
/// threads, and return the serial rendering.
std::string expect_identical(const std::string& query,
                             const std::vector<std::string>& files,
                             EngineOptions opts = {}) {
    opts.threads             = 1;
    const std::string serial = run_engine(query, files, opts);
    for (std::size_t t : kThreadCounts) {
        opts.threads = t;
        EXPECT_EQ(serial, run_engine(query, files, opts))
            << "output differs at " << t << " threads for: " << query;
    }
    return serial;
}

} // namespace

TEST(ParallelDifferential, AggregationAcrossFilesAllFormats) {
    TempDir dir("par-agg");
    std::vector<std::string> files;
    for (int f = 0; f < 5; ++f) {
        files.push_back(dir.file("r" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 200, f * 200);
    }
    for (const char* fmt : kFormats) {
        const std::string out = expect_identical(
            "AGGREGATE sum(count),count GROUP BY kernel FORMAT " +
                std::string(fmt),
            files);
        EXPECT_NE(out.find("advec"), std::string::npos) << fmt;
    }
}

TEST(ParallelDifferential, SingleFileByteMorselsAllFormats) {
    TempDir dir("par-range");
    write_cali(dir.file("big.cali"), 1200);

    EngineOptions opts;
    opts.bytes_per_morsel = 2048; // ~a dozen byte-range morsels
    for (const char* fmt : kFormats)
        expect_identical("AGGREGATE sum(count),min(id),max(id) GROUP BY kernel "
                         "ORDER BY kernel FORMAT " +
                             std::string(fmt),
                         {dir.file("big.cali")}, opts);
}

TEST(ParallelDifferential, EmptyInput) {
    TempDir dir("par-empty");
    write_cali(dir.file("e0.cali"), 0);
    write_cali(dir.file("e1.cali"), 0);
    for (const char* fmt : kFormats)
        expect_identical("AGGREGATE sum(count) GROUP BY kernel FORMAT " +
                             std::string(fmt),
                         {dir.file("e0.cali"), dir.file("e1.cali")});
}

TEST(ParallelDifferential, SingleRecordInput) {
    TempDir dir("par-one");
    write_cali(dir.file("one.cali"), 1);
    write_cali(dir.file("zero.cali"), 0);
    for (const char* fmt : kFormats)
        expect_identical("AGGREGATE sum(count) GROUP BY kernel FORMAT " +
                             std::string(fmt),
                         {dir.file("one.cali"), dir.file("zero.cali")});
}

TEST(ParallelDifferential, HighCardinalityGroupByStar) {
    TempDir dir("par-star");
    std::vector<std::string> files;
    for (int f = 0; f < 4; ++f) {
        files.push_back(dir.file("s" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 250, f * 250); // every record a unique group
    }
    const std::string out =
        expect_identical("AGGREGATE sum(count) GROUP BY * FORMAT csv", files);
    // 4 x 250 unique ids -> 1000 output rows + header
    EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 1001);
}

TEST(ParallelDifferential, PassthroughKeepsInputOrder) {
    TempDir dir("par-pass");
    std::vector<std::string> files;
    for (int f = 0; f < 4; ++f) {
        files.push_back(dir.file("p" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 50, f * 50);
    }
    // no aggregation: records must come out in input (morsel) order
    expect_identical("SELECT kernel,count,id FORMAT csv", files);
    expect_identical("SELECT kernel,id WHERE count>3 FORMAT csv", files);
}

TEST(ParallelDifferential, LetFilterOrderLimit) {
    TempDir dir("par-calql");
    std::vector<std::string> files;
    for (int f = 0; f < 3; ++f) {
        files.push_back(dir.file("q" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 120, f * 120);
    }
    expect_identical("LET c2=scale(count,2) AGGREGATE sum(c2),avg(count) "
                     "WHERE count>1 GROUP BY kernel ORDER BY kernel DESC "
                     "FORMAT csv LIMIT 3",
                     files);
}

TEST(ParallelDifferential, WithGlobalsJoin) {
    TempDir dir("par-glob");
    std::vector<std::string> files;
    for (int f = 0; f < 3; ++f) {
        files.push_back(dir.file("g" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 60, f * 60, std::to_string(f).c_str());
    }
    EngineOptions opts;
    opts.with_globals = true;
    const std::string out = expect_identical(
        "AGGREGATE sum(count) GROUP BY mpi.rank ORDER BY mpi.rank FORMAT csv",
        files, opts);
    // one group per file-global rank + header
    EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 4);
}

TEST(ParallelDifferential, WithGlobalsJoinSingleFileByteMorsels) {
    TempDir dir("par-glob-1f");
    write_cali(dir.file("big.cali"), 600, 0, "3");

    // byte-range workers only see their own span; the engine resolves the
    // file-scoped globals from the planning index and joins them on the fly
    EngineOptions opts;
    opts.with_globals     = true;
    opts.bytes_per_morsel = 2048;
    const std::string out = expect_identical(
        "AGGREGATE sum(count) GROUP BY mpi.rank FORMAT csv",
        {dir.file("big.cali")}, opts);
    EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 2);
    EXPECT_NE(out.find("3,"), std::string::npos);
}

TEST(ParallelDifferential, ByteMorselsFallbackBufferPath) {
    TempDir dir("par-nommap");
    write_cali(dir.file("big.cali"), 800);

    // force the read()-into-buffer fallback: results must not change
    FileBuffer::set_mmap_enabled(false);
    EngineOptions opts;
    opts.bytes_per_morsel = 2048;
    expect_identical("AGGREGATE sum(count),max(id) GROUP BY kernel "
                     "ORDER BY kernel FORMAT csv",
                     {dir.file("big.cali")}, opts);
    FileBuffer::set_mmap_enabled(true);
}

TEST(ParallelDifferential, JsonInput) {
    TempDir dir("par-json");
    std::vector<std::string> files;
    for (int f = 0; f < 2; ++f) {
        files.push_back(dir.file("j" + std::to_string(f) + ".json"));
        std::ofstream os(files.back());
        os << "[";
        for (int i = 0; i < 40; ++i)
            os << (i ? "," : "") << "{\"kernel\":\"k" << i % 3
               << "\",\"count\":" << i % 5 + 1 << "}";
        os << "]";
    }
    EngineOptions opts;
    opts.json_input = true;
    expect_identical("AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel "
                     "FORMAT csv",
                     files, opts);
}

// ---------------------------------------------------------------- early flush

TEST(EarlyFlush, BoundsPartialsWithoutChangingResults) {
    TempDir dir("early-flush");
    std::vector<std::string> files;
    for (int f = 0; f < 4; ++f) {
        files.push_back(dir.file("h" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 300, f * 300); // unique ids: high cardinality
    }
    const std::string query = "AGGREGATE sum(count) GROUP BY * FORMAT csv";

    EngineOptions plain;
    plain.threads            = 1;
    const std::string serial = run_engine(query, files, plain);

    EngineOptions flushing;
    flushing.threads             = 4;
    flushing.max_partial_entries = 16; // force many flushes
    EngineStats stats;
    const std::string flushed = run_engine(query, files, flushing, &stats);

    EXPECT_EQ(serial, flushed);
    EXPECT_GT(stats.early_flushes, 0u);
    EXPECT_GT(stats.early_flush_bytes, 0u);
}

TEST(EarlyFlush, RecordCountsSurviveFlushing) {
    TempDir dir("early-counts");
    std::vector<std::string> files;
    for (int f = 0; f < 2; ++f) {
        files.push_back(dir.file("c" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 200, f * 200);
    }
    EngineOptions opts;
    opts.threads             = 2;
    opts.max_partial_entries = 8;
    ParallelQueryProcessor eng(
        parse_calql("AGGREGATE count GROUP BY * FORMAT csv"), opts);
    QueryProcessor& proc = eng.run(files);
    EXPECT_EQ(proc.num_records_in(), 400u);
    EXPECT_EQ(proc.num_records_kept(), 400u);
    EXPECT_EQ(proc.result().size(), 400u); // unique ids -> 1 row per record
}

// ------------------------------------------------------------- engine stats

TEST(EngineStats, ReportsThreadsAndMorsels) {
    TempDir dir("stats");
    std::vector<std::string> files;
    for (int f = 0; f < 3; ++f) {
        files.push_back(dir.file("m" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 20, f * 20);
    }
    EngineOptions opts;
    opts.threads = 8;
    EngineStats stats;
    run_engine("AGGREGATE sum(count) GROUP BY kernel FORMAT csv", files, opts,
               &stats);
    EXPECT_EQ(stats.morsels, 3u);
    EXPECT_EQ(stats.threads, 3u); // clamped to the morsel count
}

TEST(EngineStats, WorkerErrorsPropagateToCaller) {
    TempDir dir("err");
    write_cali(dir.file("ok.cali"), 10);
    EngineOptions opts;
    opts.threads = 2;
    ParallelQueryProcessor eng(parse_calql("FORMAT csv"), opts);
    EXPECT_THROW(eng.run({dir.file("ok.cali"), dir.file("missing.cali")}),
                 std::runtime_error);
}

// ------------------------------------------------- batched execution + spill

TEST(BatchedExecution, OneRowBatchesMatchEveryBatchSize) {
    TempDir dir("batch");
    std::vector<std::string> files;
    for (int f = 0; f < 3; ++f) {
        files.push_back(dir.file("b" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 150, f * 150);
    }
    const std::string query =
        "LET squared=scale(count,2) AGGREGATE sum(squared),count "
        "GROUP BY kernel ORDER BY kernel FORMAT csv";

    EngineOptions opts;
    opts.threads    = 1;
    opts.batch_size = 1;
    const std::string one_row = run_engine(query, files, opts);

    for (std::size_t bs : {std::size_t(7), std::size_t(1024)}) {
        opts.batch_size = bs;
        EXPECT_EQ(one_row, run_engine(query, files, opts))
            << "batch size " << bs << " differs from one-row batches";
    }
}

TEST(BatchedExecution, ByteMorselsMatchOneRowBatches) {
    TempDir dir("batch-range");
    write_cali(dir.file("big.cali"), 1200);
    EngineOptions opts;
    opts.threads          = 4;
    opts.bytes_per_morsel = 2048;
    opts.batch_size       = 1;
    const std::string one_row = run_engine(
        "AGGREGATE sum(count),max(id) GROUP BY kernel FORMAT table",
        {dir.file("big.cali")}, opts);
    opts.batch_size = 7;
    EXPECT_EQ(one_row,
              run_engine("AGGREGATE sum(count),max(id) GROUP BY kernel FORMAT table",
                         {dir.file("big.cali")}, opts));
}

TEST(BatchedExecution, WithGlobalsMatchesOneRowBatches) {
    TempDir dir("batch-globals");
    std::vector<std::string> files;
    for (int f = 0; f < 2; ++f) {
        files.push_back(dir.file("r" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 40, f * 40, f == 0 ? "0" : "1");
    }
    const std::string query =
        "AGGREGATE sum(count) GROUP BY kernel,mpi.rank ORDER BY mpi.rank,kernel "
        "FORMAT csv";
    EngineOptions opts;
    opts.with_globals = true;
    opts.threads      = 1;
    opts.batch_size   = 1;
    const std::string one_row = run_engine(query, files, opts);
    opts.batch_size = 0; // default
    EXPECT_EQ(one_row, run_engine(query, files, opts));
    EXPECT_NE(one_row.find("advec"), std::string::npos);
}

TEST(BatchedExecution, DefaultBatchSizeSetter) {
    const std::size_t before = default_batch_size();
    set_default_batch_size(7);
    EXPECT_EQ(default_batch_size(), 7u);
    set_default_batch_size(std::size_t(1) << 30); // clamped to the cap
    EXPECT_EQ(default_batch_size(), std::size_t(1) << 20);
    set_default_batch_size(0); // back to env / built-in default
    EXPECT_EQ(default_batch_size(), before);
}

TEST(SpillBudget, BoundedAggregationMatchesUnbounded) {
    // integer metrics only: exact sums make spilled output byte-identical
    TempDir dir("spill");
    write_cali(dir.file("many.cali"), 500); // 500 unique ids -> 500 groups
    const std::string query =
        "AGGREGATE sum(count),count GROUP BY id ORDER BY id FORMAT csv";

    EngineOptions opts;
    opts.threads = 1;
    const std::string unbounded = run_engine(query, {dir.file("many.cali")}, opts);

    opts.agg_memory_budget = 1; // clamps to the 16-entry floor -> many runs
    const std::string spilled = run_engine(query, {dir.file("many.cali")}, opts);
    EXPECT_EQ(unbounded, spilled);

    // parallel: worker partials drain unspilled into the budgeted root
    opts.threads          = 4;
    opts.bytes_per_morsel = 2048;
    EXPECT_EQ(unbounded, run_engine(query, {dir.file("many.cali")}, opts));
}

TEST(SpillBudget, DefaultBudgetSetterAppliesToEngine) {
    TempDir dir("spill-default");
    write_cali(dir.file("many.cali"), 300);
    const std::string query = "AGGREGATE count GROUP BY id ORDER BY id FORMAT csv";

    EngineOptions opts;
    opts.threads = 1;
    const std::string unbounded = run_engine(query, {dir.file("many.cali")}, opts);

    set_default_agg_memory_budget(1);
    // sentinel options pick up the process-wide default
    const std::string spilled = run_engine(query, {dir.file("many.cali")}, opts);
    set_default_agg_memory_budget(static_cast<std::size_t>(-1)); // restore
    EXPECT_EQ(unbounded, spilled);
}

// --------------------------------------------------- phase-2 merge strategies

namespace {

const MergeStrategy kStrategies[] = {MergeStrategy::Pairwise,
                                     MergeStrategy::Tree, MergeStrategy::Radix,
                                     MergeStrategy::Adaptive};

/// High-cardinality multi-file input: 4 files x 250 unique ids, plus the
/// shared low-cardinality kernel key and fractional averages so the radix
/// partition assembly is exercised on floating-point states too.
std::vector<std::string> write_strategy_input(TempDir& dir) {
    std::vector<std::string> files;
    for (int f = 0; f < 4; ++f) {
        files.push_back(dir.file("s" + std::to_string(f) + ".cali"));
        write_cali(files.back(), 250, f * 250);
    }
    return files;
}

} // namespace

TEST(MergeStrategies, AllStrategiesByteIdenticalAcrossThreadCounts) {
    TempDir dir("merge-strat");
    const std::vector<std::string> files = write_strategy_input(dir);
    const char* const queries[]          = {
        "AGGREGATE sum(count),count GROUP BY id ORDER BY id FORMAT csv",
        "AGGREGATE avg(count),percent_total(count) GROUP BY kernel "
                 "ORDER BY kernel FORMAT csv",
        "AGGREGATE min(id),max(id) GROUP BY * FORMAT csv",
    };
    for (const char* query : queries) {
        EngineOptions base;
        base.threads             = 1;
        base.merge_strategy      = MergeStrategy::Pairwise;
        const std::string serial = run_engine(query, files, base);
        for (MergeStrategy s : kStrategies) {
            EngineOptions opts;
            opts.merge_strategy = s;
            for (std::size_t t : {std::size_t(1), std::size_t(2),
                                  std::size_t(4), std::size_t(8)}) {
                opts.threads = t;
                EXPECT_EQ(serial, run_engine(query, files, opts))
                    << merge_strategy_name(s) << " t" << t << ": " << query;
            }
        }
    }
}

TEST(MergeStrategies, EarlyFlushByteIdenticalForEveryStrategy) {
    TempDir dir("merge-flush");
    const std::vector<std::string> files = write_strategy_input(dir);
    const std::string query =
        "AGGREGATE sum(count),count GROUP BY id ORDER BY id FORMAT csv";

    EngineOptions base;
    base.threads             = 1;
    base.merge_strategy      = MergeStrategy::Pairwise;
    const std::string serial = run_engine(query, files, base);

    for (MergeStrategy s : kStrategies) {
        EngineOptions opts;
        opts.merge_strategy      = s;
        opts.max_partial_entries = 64; // force many flush buffers
        for (std::size_t t : {std::size_t(2), std::size_t(4)}) {
            opts.threads = t;
            EngineStats stats;
            EXPECT_EQ(serial, run_engine(query, files, opts, &stats))
                << merge_strategy_name(s) << " t" << t << " with early flush";
            EXPECT_GT(stats.early_flushes, 0u) << merge_strategy_name(s);
        }
    }
}

TEST(MergeStrategies, StatsReportExecutedStrategyAndPartitions) {
    TempDir dir("merge-stats");
    const std::vector<std::string> files = write_strategy_input(dir);
    const std::string query = "AGGREGATE sum(count) GROUP BY id FORMAT csv";

    EngineOptions opts;
    opts.threads = 4;
    EngineStats stats;

    opts.merge_strategy = MergeStrategy::Pairwise;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Pairwise);
    EXPECT_EQ(stats.merge_partitions, 0u);

    opts.merge_strategy = MergeStrategy::Tree;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Tree);

    opts.merge_strategy = MergeStrategy::Radix;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Radix);
    EXPECT_EQ(stats.merge_partitions, 16u); // default 4 bits
    EXPECT_GT(stats.merge_ns, 0u);

    opts.merge_radix_bits = 3;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_partitions, 8u);
}

TEST(MergeStrategies, AdaptiveSelectorPicksByCardinality) {
    TempDir dir("merge-adaptive");
    const std::vector<std::string> files = write_strategy_input(dir);
    const std::string query = "AGGREGATE sum(count) GROUP BY id FORMAT csv";

    // 1000 groups: above a tiny radix threshold -> radix
    EngineOptions opts;
    opts.threads             = 4;
    opts.merge_strategy      = MergeStrategy::Adaptive;
    opts.merge_small_entries = 16; // 1000 groups is not "small"
    opts.merge_radix_entries = 64;
    EngineStats stats;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Radix);

    // below the small-query threshold -> pairwise (4 groups << 4096)
    opts.merge_small_entries = 0; // back to default tuning
    opts.merge_radix_entries = 0;
    run_engine("AGGREGATE sum(count) GROUP BY kernel FORMAT csv", files, opts,
               &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Pairwise);

    // mid-band cardinality with raised thresholds -> tree
    opts.merge_small_entries = 16;
    opts.merge_radix_entries = 1u << 20;
    run_engine(query, files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Tree);

    // the selector observes the input set, never the thread count: the
    // choice is identical at every thread count (thread-count identity
    // depends on this when a spill budget is set)
    for (std::size_t t : kThreadCounts) {
        opts.threads = t;
        run_engine(query, files, opts, &stats);
        EXPECT_EQ(stats.merge_strategy, MergeStrategy::Tree) << "t" << t;
    }
}

TEST(MergeStrategies, NonAggregationQueriesNeverUseRadix) {
    TempDir dir("merge-passthru");
    const std::vector<std::string> files = write_strategy_input(dir);
    EngineOptions opts;
    opts.threads        = 4;
    opts.merge_strategy = MergeStrategy::Radix; // demoted: no aggregation DB
    EngineStats stats;
    const std::string out =
        run_engine("SELECT kernel,id FORMAT csv", files, opts, &stats);
    EXPECT_EQ(stats.merge_strategy, MergeStrategy::Tree);
    EXPECT_NE(out.find("advec"), std::string::npos);

    opts.merge_strategy = MergeStrategy::Pairwise;
    EXPECT_EQ(out, run_engine("SELECT kernel,id FORMAT csv", files, opts));
}

TEST(MergeStrategies, SpillBudgetStaysThreadCountDeterministic) {
    // with a budget each strategy must still be identical across thread
    // counts (strategy-to-strategy identity is not promised under spill)
    TempDir dir("merge-spill");
    const std::vector<std::string> files = write_strategy_input(dir);
    const std::string query =
        "AGGREGATE sum(count),count GROUP BY id ORDER BY id FORMAT csv";
    for (MergeStrategy s :
         {MergeStrategy::Pairwise, MergeStrategy::Tree, MergeStrategy::Radix}) {
        EngineOptions opts;
        opts.merge_strategy    = s;
        opts.agg_memory_budget = 1; // clamps to the 16-entry floor
        opts.threads           = 1;
        const std::string t1 = run_engine(query, files, opts);
        for (std::size_t t : kThreadCounts) {
            opts.threads = t;
            EXPECT_EQ(t1, run_engine(query, files, opts))
                << merge_strategy_name(s) << " t" << t << " under spill";
        }
    }
}

TEST(MergeStrategies, SignedZeroAndNaNKeysKeepOneRowOrder) {
    // a GROUP BY key taking 0, -0 and NaN: compare() ranks 0 and -0 equal,
    // but they are distinct groups, so the canonical row order must break
    // that tie itself — otherwise the rows keep the hash table's flush
    // order, which the radix merge changes (fuzz seed 2815)
    TempDir dir("merge-zero");
    const std::string path = dir.file("zero.cali");
    std::ofstream(path) << R"(#calib-stream v1
A,0,x,uint,0
A,1,a-b,double,0
R,0=880,1=-0
A,2,region,double,0
A,3,time.duration,uint,0
R,2=-5e-324,0=880,3=18446744073709551614,1=nan
R,2=-5e-324,0=880,3=18446744073709551614,1=nan
R,0=804,3=415,1=nan
R,2=-5e-324,0=9223372036854775807,3=18446744073709551614,1=0
R,0=9223372036854775807,3=18446744073709551614,1=-0
R,2=-5e-324,0=804,3=9223372036854775807,1=-5e-324
R,2=-5e-324,0=804
R,2=-5e-324,0=880,3=415,1=0
R,2=-5e-324
R,2=-5e-324,3=415,1=nan
R,2=-5e-324,0=804,3=18446744073709551614
R,2=-5e-324,0=804,3=18446744073709551614
R,2=-5e-324,0=880,3=9223372036854775807,1=nan
R,2=-5e-324,0=9223372036854775807,3=18446744073709551614
R,2=-5e-324,3=18446744073709551614,1=nan
R,2=-5e-324,0=880,3=18446744073709551614,1=0
R,0=9223372036854775807,3=9223372036854775807,1=nan
R,2=-5e-324,0=9223372036854775807,3=9223372036854775807,1=0
R,2=-5e-324,0=804,1=nan
R,2=-5e-324,0=880,1=-5e-324
R,2=-5e-324,0=880,1=-0
R,2=-5e-324,0=804,3=9223372036854775807,1=-0
R,2=-5e-324,0=9223372036854775807,3=18446744073709551614,1=-0
R,2=-5e-324,0=804,3=9223372036854775807,1=0
)";
    const std::string query =
        "AGGREGATE sum(a-b) GROUP BY region,a-b FORMAT expand";
    EngineOptions base;
    base.threads          = 1;
    base.bytes_per_morsel = 1024;
    base.merge_strategy   = MergeStrategy::Pairwise;
    const std::string serial = run_engine(query, {path}, base);
    EXPECT_NE(serial.find("a-b=-0"), std::string::npos);
    EXPECT_NE(serial.find("a-b=nan"), std::string::npos);
    for (MergeStrategy s : kStrategies) {
        EngineOptions opts = base;
        opts.merge_strategy = s;
        for (std::size_t t : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
            opts.threads = t;
            EXPECT_EQ(serial, run_engine(query, {path}, opts))
                << merge_strategy_name(s) << " t" << t;
        }
    }
}

TEST(MergeStrategies, ParseAndDefaultRoundTrip) {
    MergeStrategy s = MergeStrategy::Default;
    EXPECT_TRUE(parse_merge_strategy("radix", s));
    EXPECT_EQ(s, MergeStrategy::Radix);
    EXPECT_TRUE(parse_merge_strategy("auto", s));
    EXPECT_EQ(s, MergeStrategy::Adaptive);
    EXPECT_TRUE(parse_merge_strategy("serial", s));
    EXPECT_EQ(s, MergeStrategy::Pairwise);
    EXPECT_FALSE(parse_merge_strategy("bogus", s));

    const MergeStrategy before = default_merge_strategy();
    set_default_merge_strategy(MergeStrategy::Tree);
    EXPECT_EQ(default_merge_strategy(), MergeStrategy::Tree);
    set_default_merge_strategy(MergeStrategy::Default); // back to env/adaptive
    EXPECT_EQ(default_merge_strategy(), before);

    EXPECT_EQ(merge_strategy_code(MergeStrategy::Default), 0);
    EXPECT_EQ(merge_strategy_code(MergeStrategy::Pairwise), 1);
    EXPECT_EQ(merge_strategy_code(MergeStrategy::Tree), 2);
    EXPECT_EQ(merge_strategy_code(MergeStrategy::Radix), 3);
}
