// Ablation: reduction-tree fan-out (design choice behind Fig. 4's
// binomial tree). The paper's cross-process reduction uses a binary
// (binomial) tree; this bench models the same reduction over k-ary trees:
// fewer levels, but (k-1) sequential merges per node and level. With
// merge costs comparable to network hops, the binary tree's log2(P)
// critical path wins — quantified here at the paper's 4096-rank scale.
#include "apps/paradis/generator.hpp"
#include "bench_common.hpp"
#include "mpisim/treereduce.hpp"

#include <filesystem>

using namespace calib;
using namespace calib::bench;

int main() {
    const int nprocs = env_int("CALIB_BENCH_FANOUT_PROCS", 4096);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "calib-fanout-data").string();

    paradis::ParadisConfig cfg; // 2174 records, 85-key evaluation query
    const auto files = paradis::generate_dataset(dir, 1, cfg);
    const QuerySpec spec = parse_calql(
        "AGGREGATE sum(time.inclusive.duration) GROUP BY kernel,mpi.function");

    std::printf("# Ablation: reduction-tree fan-out at %d ranks "
                "(modeled, OmniPath-class network)\n",
                nprocs);
    std::printf("%8s %8s %14s %14s %8s\n", "fanout", "levels", "reduce (s)",
                "bytes moved", "out");

    for (int fanout : {2, 4, 8, 16, 64}) {
        // best of 5: the modeled cost is deterministic; min removes noise
        simmpi::QueryTimes best{};
        for (int rep = 0; rep < 5; ++rep) {
            const simmpi::QueryTimes t = simmpi::modeled_query(
                spec, files[0], nprocs, simmpi::NetModel{}, 1, nullptr, fanout);
            if (rep == 0 || t.reduce_s < best.reduce_s)
                best = t;
        }
        int levels = 0;
        for (long covered = 1; covered < nprocs; covered *= fanout)
            ++levels;
        std::printf("%8d %8d %14.6f %14llu %8zu\n", fanout, levels, best.reduce_s,
                    static_cast<unsigned long long>(best.bytes_reduced),
                    best.output_records);
    }

    std::printf("\n# expected: fan-out 2 (the paper's binomial tree) has the\n"
                "# shortest critical path once per-node merge time matters\n");
    std::filesystem::remove_all(dir);
    return 0;
}
