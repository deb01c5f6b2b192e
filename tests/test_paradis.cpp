// ParaDiS-sim dataset generator tests: the published dataset statistics
// (paper §V-C) and determinism.
#include "apps/paradis/generator.hpp"

#include "io/calireader.hpp"
#include "query/processor.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace calib;
using namespace calib::paradis;

TEST(Paradis, NameListsAreUniqueAndSized) {
    auto kernels = kernel_names(60);
    auto mpis    = mpi_function_names(24);
    EXPECT_EQ(kernels.size(), 60u);
    EXPECT_EQ(mpis.size(), 24u);
    EXPECT_EQ(std::set<std::string>(kernels.begin(), kernels.end()).size(), 60u);
    EXPECT_EQ(std::set<std::string>(mpis.begin(), mpis.end()).size(), 24u);
    for (const std::string& m : mpis)
        EXPECT_EQ(m.rfind("MPI_", 0), 0u) << m;
}

TEST(Paradis, FileHasPaperRecordCount) {
    test::TempDir dir("paradis");
    ParadisConfig cfg; // defaults match the paper: 2174 records/file
    EXPECT_EQ(write_rank_file(dir.file("r0.cali"), 0, cfg), 2174u);
    auto records = CaliReader::read_file(dir.file("r0.cali"));
    EXPECT_EQ(records.size(), 2174u);
}

TEST(Paradis, EvaluationQueryYields85Records) {
    // the paper's query: total CPU time in kernels and MPI functions,
    // "producing 85 output records"
    test::TempDir dir("paradis-85");
    auto paths = generate_dataset(dir.str(), 4, ParadisConfig{});

    QueryProcessor proc(parse_calql(
        "AGGREGATE sum(time.inclusive.duration) GROUP BY kernel,mpi.function"));
    for (const auto& p : paths)
        proc.add(CaliReader::read_file(p));
    EXPECT_EQ(proc.result().size(), 85u);
}

TEST(Paradis, RecordsCarryTimeSeriesDimensions) {
    test::TempDir dir("paradis-dims");
    ParadisConfig cfg;
    write_rank_file(dir.file("r3.cali"), 3, cfg);
    auto records = CaliReader::read_file(dir.file("r3.cali"));

    std::set<long long> iterations;
    for (const RecordMap& r : records) {
        EXPECT_EQ(r.get("mpi.rank").to_int(), 3);
        EXPECT_TRUE(r.contains("iteration#mainloop"));
        EXPECT_TRUE(r.contains("count"));
        EXPECT_TRUE(r.contains("sum#time.duration"));
        EXPECT_GT(r.get("sum#time.inclusive.duration").to_double(), 0.0);
        EXPECT_GE(r.get("sum#time.inclusive.duration").to_double(),
                  r.get("sum#time.duration").to_double());
        iterations.insert(r.get("iteration#mainloop").to_int());
    }
    EXPECT_EQ(iterations.size(), static_cast<std::size_t>(cfg.iterations));
}

TEST(Paradis, DeterministicPerRankAndSeed) {
    test::TempDir dir("paradis-det");
    ParadisConfig cfg;
    write_rank_file(dir.file("a.cali"), 5, cfg);
    write_rank_file(dir.file("b.cali"), 5, cfg);
    std::ifstream a(dir.file("a.cali")), b(dir.file("b.cali"));
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(Paradis, DifferentRanksDiffer) {
    test::TempDir dir("paradis-ranks");
    ParadisConfig cfg;
    write_rank_file(dir.file("a.cali"), 0, cfg);
    write_rank_file(dir.file("b.cali"), 1, cfg);
    auto a = CaliReader::read_file(dir.file("a.cali"));
    auto b = CaliReader::read_file(dir.file("b.cali"));
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i]))
            any_diff = true;
    EXPECT_TRUE(any_diff) << "per-rank value streams must differ";
}

TEST(Paradis, GlobalsIdentifyRank) {
    test::TempDir dir("paradis-globals");
    ParadisConfig cfg;
    cfg.records_per_file = 85;
    write_rank_file(dir.file("r9.cali"), 9, cfg);
    RecordMap globals;
    CaliReader::read_file(dir.file("r9.cali"), [](RecordMap&&) {}, &globals);
    EXPECT_EQ(globals.get("paradis.rank").to_int(), 9);
}

TEST(Paradis, CustomDimensions) {
    test::TempDir dir("paradis-custom");
    ParadisConfig cfg;
    cfg.num_kernels       = 10;
    cfg.num_mpi_functions = 5;
    cfg.records_per_file  = 64;
    write_rank_file(dir.file("c.cali"), 0, cfg);
    auto records = CaliReader::read_file(dir.file("c.cali"));
    EXPECT_EQ(records.size(), 64u);

    QueryProcessor proc(parse_calql("AGGREGATE count GROUP BY kernel,mpi.function"));
    proc.add(records);
    EXPECT_EQ(proc.result().size(), 16u); // 10 + 5 + 1
}
