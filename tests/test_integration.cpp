// End-to-end integration tests across the whole stack:
// instrumented app -> online aggregation / tracing -> .cali files ->
// offline queries -> cross-process aggregation.
//
// Verifies the paper's central equivalence (§VI-F): online and offline
// aggregation paths yield the same results, and the work can be shifted
// between stages freely.
#include "apps/cleverleaf/driver.hpp"
#include "calib.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/treereduce.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>

using namespace calib;
using calib::test::find_record;

namespace {

clever::CleverConfig small_config() {
    clever::CleverConfig config;
    config.nx    = 64;
    config.ny    = 32;
    config.steps = 6;
    return config;
}

/// Run the mini-app on `nprocs` ranks with the given profile; the recorder
/// writes one file per rank into `dir`.
std::vector<std::string> run_app(const test::TempDir& dir, const std::string& name,
                                 const std::string& services,
                                 const std::string& extra_config, int nprocs) {
    Caliper& c = Caliper::instance();
    RuntimeConfig cfg = RuntimeConfig::from_string(
        "services.enable=" + services + "\n" +
        "recorder.filename=" + name + "-%r.cali\n" +
        "recorder.directory=" + dir.str() + "\n" + extra_config);
    Channel* channel = c.create_channel(name, cfg);

    const clever::CleverConfig app = small_config();
    simmpi::run(nprocs, [&](simmpi::Comm& comm) {
        clever::run_rank(comm, app);
        c.flush_thread(channel);
    });
    c.close_channel(channel);

    std::vector<std::string> paths;
    for (int r = 0; r < nprocs; ++r)
        paths.push_back(dir.file(name + "-" + std::to_string(r) + ".cali"));
    for (const std::string& p : paths)
        EXPECT_TRUE(std::filesystem::exists(p)) << p;
    return paths;
}

std::vector<RecordMap> query_files(const std::string& query,
                                   const std::vector<std::string>& files) {
    QueryProcessor proc(parse_calql(query));
    for (const std::string& f : files)
        proc.add(CaliReader::read_file(f));
    return proc.result();
}

} // namespace

TEST(Integration, ProfileRunProducesPerRankFiles) {
    test::TempDir dir("int-profile");
    auto files = run_app(dir, "prof", "event,timer,aggregate,recorder",
                         "aggregate.key=*\n", 2);
    for (const std::string& f : files) {
        auto records = CaliReader::read_file(f);
        EXPECT_GT(records.size(), 10u);
    }
}

TEST(Integration, OnlineAggregationEqualsOfflineTraceAggregation) {
    // the same run instrumented twice would be nondeterministic in timing;
    // instead run ONE configuration with trace+recorder, then compare the
    // offline aggregation of the trace against online aggregation of a
    // second channel fed by the same events in the same process run.
    test::TempDir dir("int-equiv");
    Caliper& c = Caliper::instance();

    Channel* online = c.create_channel(
        "equiv-online", RuntimeConfig{{"services.enable", "event,aggregate"},
                                      {"aggregate.key", "kernel,mpi.rank"},
                                      {"aggregate.ops", "count"}});
    Channel* tracing = c.create_channel(
        "equiv-trace", RuntimeConfig{{"services.enable", "event,trace,recorder"},
                                     {"recorder.filename", "trace-%r.cali"},
                                     {"recorder.directory", dir.str()}});

    const clever::CleverConfig app = small_config();
    std::mutex m;
    std::vector<RecordMap> online_records;
    simmpi::run(2, [&](simmpi::Comm& comm) {
        clever::run_rank(comm, app);
        c.flush_thread(tracing); // write the trace file
        std::vector<RecordMap> mine;
        c.flush_thread(online,
                       [&mine](RecordMap&& r) { mine.push_back(std::move(r)); });
        std::lock_guard<std::mutex> lock(m);
        for (RecordMap& r : mine)
            online_records.push_back(std::move(r));
    });
    c.close_channel(online);
    c.close_channel(tracing);

    // offline: aggregate the traces with the same scheme
    auto offline = query_files("AGGREGATE count GROUP BY kernel,mpi.rank",
                               {dir.file("trace-0.cali"), dir.file("trace-1.cali")});

    // compare per-(kernel, rank) counts
    for (const RecordMap& off : offline) {
        if (!off.contains("kernel"))
            continue;
        double online_count = 0;
        for (const RecordMap& on : online_records)
            if (on.get("kernel") == off.get("kernel") &&
                on.get("mpi.rank") == off.get("mpi.rank"))
                online_count += on.get("count").to_double();
        EXPECT_EQ(online_count, off.get("count").to_double())
            << "kernel " << off.get("kernel").to_string() << " rank "
            << off.get("mpi.rank").to_string();
    }
}

TEST(Integration, TwoStageAggregationMatchesParallelQuery) {
    test::TempDir dir("int-2stage");
    auto files = run_app(dir, "stage", "event,timer,aggregate,recorder",
                         "aggregate.key=*\n", 2);

    const std::string query =
        "AGGREGATE sum(count),sum(time.duration) GROUP BY kernel";
    auto serial = query_files(query, files);

    std::vector<RecordMap> parallel;
    simmpi::parallel_query(parse_calql(query), files, 2, &parallel);

    ASSERT_EQ(serial.size(), parallel.size());
    for (const RecordMap& r : serial) {
        RecordMap match = find_record(parallel, "kernel", r.get("kernel"));
        EXPECT_EQ(match.get("sum#count"), r.get("sum#count"));
        EXPECT_NEAR(match.get("sum#time.duration").to_double(),
                    r.get("sum#time.duration").to_double(), 1e-6);
    }
}

TEST(Integration, AmrLevelAnalysisExcludingMpi) {
    // the paper's §VI-E analysis: time per AMR level, excluding MPI time
    test::TempDir dir("int-amr");
    auto files = run_app(dir, "amr", "event,timer,aggregate,recorder",
                         "aggregate.key=*\n", 2);

    auto per_level = query_files("AGGREGATE sum(time.duration) "
                                 "WHERE not(mpi.function) GROUP BY amr.level "
                                 "ORDER BY amr.level",
                                 files);
    // levels 0..2 all have nonzero computation time
    int levels_seen = 0;
    for (const RecordMap& r : per_level) {
        if (!r.contains("amr.level"))
            continue;
        ++levels_seen;
        EXPECT_GT(r.get("sum#time.duration").to_double(), 0.0);
    }
    EXPECT_EQ(levels_seen, 3);

    // and the MPI exclusion matters: total with MPI >= total without
    auto with_mpi = query_files(
        "AGGREGATE sum(time.duration) GROUP BY amr.level ORDER BY amr.level", files);
    double t_without = 0, t_with = 0;
    for (const RecordMap& r : per_level)
        t_without += r.get("sum#time.duration").to_double();
    for (const RecordMap& r : with_mpi)
        t_with += r.get("sum#time.duration").to_double();
    EXPECT_GE(t_with, t_without);
}

TEST(Integration, LoadBalanceQueryHasPerRankRows) {
    test::TempDir dir("int-lb");
    auto files = run_app(dir, "lb", "event,timer,aggregate,recorder",
                         "aggregate.key=*\n", 3);
    auto rows = query_files(
        "AGGREGATE sum(time.duration) GROUP BY kernel,mpi.rank", files);
    // every rank contributes rows for the main kernels
    for (int rank = 0; rank < 3; ++rank) {
        bool found = false;
        for (const RecordMap& r : rows)
            if (r.get("mpi.rank") == Variant(rank) &&
                r.get("kernel") == Variant("advec-cell"))
                found = true;
        EXPECT_TRUE(found) << "rank " << rank;
    }
}

TEST(Integration, SchemeChoiceTradesRecordsForDetail) {
    // Table I's core relationship: |scheme B| <= |scheme A| << |scheme C|
    test::TempDir dir("int-schemes");
    Caliper& c = Caliper::instance();

    Channel* scheme_a = c.create_channel(
        "tri-a", RuntimeConfig{{"services.enable", "event,timer,aggregate"},
                               {"aggregate.key",
                                "function,annotation,kernel,amr.level,"
                                "mpi.rank,mpi.function"}});
    Channel* scheme_b = c.create_channel(
        "tri-b", RuntimeConfig{{"services.enable", "event,timer,aggregate"},
                               {"aggregate.key", "kernel,mpi.function"}});
    Channel* scheme_c = c.create_channel(
        "tri-c", RuntimeConfig{{"services.enable", "event,timer,aggregate"},
                               {"aggregate.key", "*"}});

    const clever::CleverConfig app = small_config();
    std::mutex m;
    std::size_t na = 0, nb = 0, nc = 0;
    simmpi::run(2, [&](simmpi::Comm& comm) {
        clever::run_rank(comm, app);
        std::size_t a = 0, b = 0, ccount = 0;
        c.flush_thread(scheme_a, [&a](RecordMap&&) { ++a; });
        c.flush_thread(scheme_b, [&b](RecordMap&&) { ++b; });
        c.flush_thread(scheme_c, [&ccount](RecordMap&&) { ++ccount; });
        std::lock_guard<std::mutex> lock(m);
        na += a;
        nb += b;
        nc += ccount;
    });
    c.close_channel(scheme_a);
    c.close_channel(scheme_b);
    c.close_channel(scheme_c);

    EXPECT_LE(nb, na);
    EXPECT_LT(na, nc) << "per-iteration keys (scheme C) produce far more records";
    EXPECT_GT(nc, 4 * na) << "iteration dimension multiplies the record count";
}
