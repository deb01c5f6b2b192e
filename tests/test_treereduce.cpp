// Cross-process aggregation tests (paper §IV-C): the parallel tree-reduced
// query must equal the serial query for any rank count, and the modeled
// (discrete-event) mode must produce the same aggregation result.
#include "mpisim/treereduce.hpp"

#include "apps/paradis/generator.hpp"
#include "io/caliwriter.hpp"
#include "io/calireader.hpp"
#include "query/processor.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <fstream>

using namespace calib;
using namespace calib::simmpi;
using calib::test::find_record;

namespace {

/// Write small deterministic per-rank files and return their paths.
std::vector<std::string> make_files(const test::TempDir& dir, int nfiles) {
    std::vector<std::string> paths;
    for (int f = 0; f < nfiles; ++f) {
        const std::string path = dir.file("in-" + std::to_string(f) + ".cali");
        std::ofstream os(path);
        CaliWriter writer(os);
        for (int i = 0; i < 50; ++i) {
            RecordMap r;
            r.append("kernel", Variant("k-" + std::to_string(i % 7)));
            r.append("file", Variant(f));
            r.append("t", Variant(static_cast<double>((f * 50 + i) % 13)));
            writer.write_record(r);
        }
        paths.push_back(path);
    }
    return paths;
}

std::vector<RecordMap> serial_reference(const QuerySpec& spec,
                                        const std::vector<std::string>& files) {
    QueryProcessor proc(spec);
    for (const std::string& f : files)
        proc.add(CaliReader::read_file(f));
    return proc.result();
}

bool same_records(std::vector<RecordMap> a, std::vector<RecordMap> b) {
    if (a.size() != b.size())
        return false;
    for (const RecordMap& r : a) {
        auto it = std::find(b.begin(), b.end(), r);
        if (it == b.end())
            return false;
        b.erase(it);
    }
    return true;
}

} // namespace

class TreeReduceRanks : public ::testing::TestWithParam<int> {};

TEST_P(TreeReduceRanks, ParallelEqualsSerial) {
    const int nprocs = GetParam();
    test::TempDir dir("treereduce");
    const auto files = make_files(dir, 12);
    const QuerySpec spec =
        parse_calql("AGGREGATE count,sum(t),min(t),max(t) GROUP BY kernel");

    std::vector<RecordMap> parallel_result;
    const QueryTimes times = parallel_query(spec, files, nprocs, &parallel_result);

    EXPECT_TRUE(same_records(serial_reference(spec, files), parallel_result));
    EXPECT_EQ(times.input_records, 12u * 50u);
    EXPECT_EQ(times.output_records, 7u);
    EXPECT_GT(times.total_s, 0.0);
    EXPECT_GE(times.total_s, times.reduce_s);
}

TEST_P(TreeReduceRanks, ParallelQueryWithFilters) {
    const int nprocs = GetParam();
    test::TempDir dir("treereduce-f");
    const auto files = make_files(dir, 6);
    const QuerySpec spec =
        parse_calql("AGGREGATE sum(t) WHERE kernel=k-1 GROUP BY file");

    std::vector<RecordMap> result;
    parallel_query(spec, files, nprocs, &result);
    EXPECT_TRUE(same_records(serial_reference(spec, files), result));
    EXPECT_EQ(result.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TreeReduceRanks,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

TEST(TreeReduce, MoreRanksThanFiles) {
    test::TempDir dir("treereduce-mr");
    const auto files = make_files(dir, 3);
    const QuerySpec spec = parse_calql("AGGREGATE count GROUP BY kernel");
    std::vector<RecordMap> result;
    parallel_query(spec, files, 8, &result);
    EXPECT_TRUE(same_records(serial_reference(spec, files), result));
}

TEST(TreeReduce, BytesMoveUpTheTree) {
    test::TempDir dir("treereduce-b");
    const auto files = make_files(dir, 8);
    const QuerySpec spec = parse_calql("AGGREGATE count GROUP BY kernel");
    const QueryTimes times = parallel_query(spec, files, 8, nullptr);
    EXPECT_GT(times.bytes_reduced, 0u);
    EXPECT_EQ(times.nprocs, 8);
}

TEST(ModeledQuery, MatchesParallelAggregationTotals) {
    test::TempDir dir("modeled");
    paradis::ParadisConfig cfg;
    cfg.records_per_file = 340; // 4 iterations x 85 keys
    const auto paths = paradis::generate_dataset(dir.str(), 1, cfg);

    const QuerySpec spec = parse_calql(
        "AGGREGATE sum(time.inclusive.duration),sum(count) GROUP BY kernel,mpi.function");

    constexpr int P = 16;
    std::vector<RecordMap> modeled;
    const QueryTimes times = modeled_query(spec, paths[0], P, NetModel{}, 1, &modeled);

    // weak-scaling model: every rank holds a copy of the same file, so the
    // modeled result equals the serial result of P copies of that file
    std::vector<std::string> copies(P, paths[0]);
    const auto reference = serial_reference(spec, copies);

    ASSERT_EQ(modeled.size(), reference.size());
    for (const RecordMap& r : reference) {
        RecordMap m = find_record(modeled, "kernel", r.get("kernel"));
        if (m.empty())
            m = find_record(modeled, "mpi.function", r.get("mpi.function"));
        if (m.empty())
            continue;
        EXPECT_NEAR(m.get("sum#count").to_double(), r.get("sum#count").to_double(),
                    1e-9);
    }
    EXPECT_EQ(times.input_records, 340u * P);
    EXPECT_GT(times.reduce_s, 0.0);
    EXPECT_GT(times.local_s, 0.0);
}

TEST(ModeledQuery, ReductionGrowsLogarithmically) {
    test::TempDir dir("modeled-log");
    paradis::ParadisConfig cfg;
    cfg.records_per_file = 170;
    const auto paths = paradis::generate_dataset(dir.str(), 1, cfg);
    const QuerySpec spec = parse_calql("AGGREGATE sum(count) GROUP BY kernel");

    NetModel slow_net;
    slow_net.latency_us = 1000.0; // make the per-hop cost dominate

    // the fastest of five runs: a minimum strips scheduler preemption from
    // the measured serialize + merge time (bytes are deterministic)
    const auto fastest = [&](int nprocs) {
        QueryTimes best = modeled_query(spec, paths[0], nprocs, slow_net);
        for (int rep = 1; rep < 5; ++rep) {
            const QueryTimes t = modeled_query(spec, paths[0], nprocs, slow_net);
            if (t.reduce_s < best.reduce_s)
                best = t;
        }
        return best;
    };
    const QueryTimes q16   = fastest(16);
    const QueryTimes q256  = fastest(256);
    const QueryTimes q4096 = fastest(4096);
    const double r16       = q16.reduce_s;
    const double r256      = q256.reduce_s;
    const double r4096     = q4096.reduce_s;

    // binomial tree: levels = log2(P); with per-hop latency dominating,
    // reduce time grows by the same increment per 16x rank increase
    const double d1 = r256 - r16;
    const double d2 = r4096 - r256;
    EXPECT_GT(d1, 0.0);
    EXPECT_GT(d2, 0.0);
    EXPECT_NEAR(d2 / d1, 1.0, 0.35) << "logarithmic, not linear, growth";
    EXPECT_LT(r4096, 16.0 * r16) << "far below linear scaling";
    // the partial buffers are fixed-width, so every tree level moves the
    // same bytes and each 16x rank step adds four levels
    EXPECT_GT(q256.bytes_reduced, q16.bytes_reduced);
    EXPECT_EQ(q256.bytes_reduced - q16.bytes_reduced,
              q4096.bytes_reduced - q256.bytes_reduced);
}

TEST(ModeledQuery, SingleRankHasNoReduction) {
    test::TempDir dir("modeled-1");
    paradis::ParadisConfig cfg;
    cfg.records_per_file = 85;
    const auto paths = paradis::generate_dataset(dir.str(), 1, cfg);
    const QuerySpec spec = parse_calql("AGGREGATE count GROUP BY kernel");
    const QueryTimes times = modeled_query(spec, paths[0], 1, NetModel{});
    EXPECT_EQ(times.reduce_s, 0.0);
    EXPECT_EQ(times.bytes_reduced, 0u);
}

TEST(ModeledQueryKary, SameResultAnyFanout) {
    test::TempDir dir("modeled-kary");
    paradis::ParadisConfig cfg;
    cfg.records_per_file = 170;
    const auto paths     = paradis::generate_dataset(dir.str(), 1, cfg);
    const QuerySpec spec = parse_calql("AGGREGATE sum(count) GROUP BY kernel");

    // all fan-outs must reduce the same number of contributions; with
    // P = fanout^levels exactly, totals match the binary tree's
    std::vector<RecordMap> binary, kary;
    modeled_query(spec, paths[0], 64, NetModel{}, 1, &binary);
    modeled_query(spec, paths[0], 64, NetModel{}, 1, &kary, 4);
    ASSERT_EQ(binary.size(), kary.size());
    for (const RecordMap& b : binary) {
        const RecordMap k = find_record(kary, "kernel", b.get("kernel"));
        EXPECT_EQ(k.get("sum#count").to_uint(), b.get("sum#count").to_uint());
    }
}

TEST(ModeledQueryKary, HigherFanoutFewerLevelsMoreMerges) {
    test::TempDir dir("modeled-kary2");
    paradis::ParadisConfig cfg;
    cfg.records_per_file = 170;
    const auto paths     = paradis::generate_dataset(dir.str(), 1, cfg);
    const QuerySpec spec = parse_calql("AGGREGATE sum(count) GROUP BY kernel");

    const auto t2  = modeled_query(spec, paths[0], 4096, NetModel{}, 1, nullptr, 2);
    const auto t64 = modeled_query(spec, paths[0], 4096, NetModel{}, 1, nullptr, 64);
    // 64-ary: 2 levels x 63 merges = 126 sequential merges at the root
    // path vs binary's 12 — more bytes move through each inner node
    EXPECT_GT(t64.bytes_reduced, t2.bytes_reduced);
    EXPECT_GT(t2.reduce_s, 0.0);
    EXPECT_GT(t64.reduce_s, 0.0);
}
