// Phase-2 merge-strategy study: GROUP BY key-cardinality sweep across the
// pairwise / radix / adaptive merge strategies (src/engine/
// merge_strategy.hpp). For each key distribution (uniform, zipfian s=1.1,
// heavy-hitter) and nominal cardinality the bench runs the full engine at a
// fixed thread count and records the phase-2 merge wall time
// (EngineStats::merge_ns) per strategy, plus its speedup over the pairwise
// baseline, and the time of QueryProcessor::result() alone (the query has
// no ORDER BY or LIMIT, so that is the full canonical sort of every group).
// Each time is its own minimum over the reps. Output bytes are asserted
// identical across strategies — the byte-identity contract is what makes
// the strategy a pure performance choice. Each strategy is forced through
// EngineOptions::merge_strategy.
//
// The interesting read is the crossover: pairwise wins at low cardinality
// (partition setup cost dominates), radix wins once the monolithic group
// table outgrows cache (~the adaptive selector's radix threshold). The
// "adaptive" rows record which strategy the selector actually picked.
//
// Emits BENCH_groupby.json (perf trajectory; bench/ci_gate_overrides.txt
// has the matching gate series).
//
// Environment knobs:
//   CALIB_BENCH_GB_FILES     input files                (default 16)
//   CALIB_BENCH_GB_RECORDS   records per file           (default 75000;
//                            raised per point so n >= 4x cardinality)
//   CALIB_BENCH_GB_THREADS   engine threads             (default 4)
//   CALIB_BENCH_GB_REPS      repetitions (each time's   (default 2)
//                            minimum is kept)
//   CALIB_BENCH_GB_KEYS      comma-separated cardinality sweep
//                            (default 1000,16000,160000,640000)
#include "bench_common.hpp"
#include "engine/parallel_processor.hpp"
#include "io/caliwriter.hpp"
#include "query/calql.hpp"
#include "runtime/clock.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace calib;
using namespace calib::bench;

namespace {

/// Deterministic xorshift64* — the sweep must generate identical datasets
/// on every run and host.
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t next() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1DULL;
    }
    double uniform01() {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }
};

/// Zipfian rank sampler: cumulative inverse-power table + binary search.
struct Zipf {
    std::vector<double> cdf;
    Zipf(std::size_t n, double s) : cdf(n) {
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i)
            cdf[i] = sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        for (double& c : cdf)
            c /= sum;
    }
    std::size_t sample(double u) const {
        return static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    }
};

/// Key id for record \a i under the named distribution over \a nkeys.
std::size_t key_for(const std::string& dist, std::size_t i, std::size_t nkeys,
                    const Zipf* zipf, Rng& rng) {
    if (dist == "uniform")
        return (i * 0x9E3779B97F4A7C15ULL) % nkeys; // permuted round-robin
    if (dist == "zipf")
        return zipf->sample(rng.uniform01());
    // heavy-hitter: 90% of records land on one key, the tail is uniform
    return rng.uniform01() < 0.9 ? 0 : rng.next() % nkeys;
}

std::vector<std::string> generate(const std::string& dir, const std::string& dist,
                                  int nfiles, int per_file, std::size_t nkeys) {
    std::filesystem::create_directories(dir);
    const Zipf zipf_table(dist == "zipf" ? nkeys : 1, 1.1);
    Rng rng(0xC0FFEEULL ^ nkeys);
    std::vector<std::string> files;
    for (int f = 0; f < nfiles; ++f) {
        files.push_back(dir + "/" + dist + "-" + std::to_string(f) + ".cali");
        std::ofstream os(files.back());
        CaliWriter w(os);
        for (int i = 0; i < per_file; ++i) {
            const std::size_t global = static_cast<std::size_t>(f) *
                                           static_cast<std::size_t>(per_file) +
                                       static_cast<std::size_t>(i);
            RecordMap r;
            r.append("id", Variant(static_cast<long long>(
                               key_for(dist, global, nkeys, &zipf_table, rng))));
            r.append("count", Variant(static_cast<long long>(global % 13 + 1)));
            w.write_record(r);
        }
    }
    return files;
}

struct Measured {
    double merge_ms  = 0;
    double result_ms = 0;
    double wall_s    = 0;
    std::size_t groups = 0;
    engine::MergeStrategy executed = engine::MergeStrategy::Adaptive;
    std::string output;
};

Measured run_strategy(const QuerySpec& spec, const std::vector<std::string>& files,
                      engine::MergeStrategy strategy, std::size_t threads,
                      int reps) {
    Measured best;
    for (int rep = 0; rep < reps; ++rep) {
        engine::EngineOptions opts;
        opts.threads        = threads;
        opts.merge_strategy = strategy;
        // one morsel per file: the ~1.2 MB files would pack in pairs at the
        // default target, and the groupby/* gates measure the 16-morsel DAG
        opts.bytes_per_morsel = 0;
        engine::ParallelQueryProcessor eng(spec, opts);
        const std::uint64_t t0 = now_ns();
        QueryProcessor& proc   = eng.run(files);
        const std::uint64_t t1 = now_ns();
        const std::size_t rows = proc.result().size();
        const std::uint64_t t2 = now_ns();
        const double wall_s    = static_cast<double>(t2 - t0) * 1e-9;
        const double merge_ms =
            static_cast<double>(eng.stats().merge_ns) * 1e-6;
        const double result_ms = static_cast<double>(t2 - t1) * 1e-6;
        // each metric keeps its own minimum over the reps
        best.merge_ms  = rep == 0 ? merge_ms : std::min(best.merge_ms, merge_ms);
        best.result_ms = rep == 0 ? result_ms : std::min(best.result_ms, result_ms);
        best.wall_s    = rep == 0 ? wall_s : std::min(best.wall_s, wall_s);
        if (rep == 0) {
            best.groups   = rows;
            best.executed = eng.stats().merge_strategy;
            std::ostringstream os;
            proc.write(os);
            best.output = os.str();
        }
    }
    return best;
}

} // namespace

int main() {
    // 16 files → 16 morsels (bytes_per_morsel = 0, see run_strategy) → a
    // 4-level merge DAG; phase-2 strategy choice
    // only matters when each key is merged several times, so the default
    // config keeps key multiplicity ≥4 (see cfg_per_file below)
    const int nfiles   = env_int("CALIB_BENCH_GB_FILES", 16);
    const int per_file = env_int("CALIB_BENCH_GB_RECORDS", 75000);
    const std::size_t threads =
        static_cast<std::size_t>(env_int("CALIB_BENCH_GB_THREADS", 4));
    const int reps = env_int("CALIB_BENCH_GB_REPS", 2);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "calib-bench-gb-data").string();

    const QuerySpec spec =
        parse_calql("AGGREGATE sum(count),count GROUP BY id FORMAT csv");
    const char* const dists[] = {"uniform", "zipf", "heavy"};
    std::vector<std::size_t> cardinalities;
    {
        std::string list = "1000,16000,160000,640000";
        if (const char* env = std::getenv("CALIB_BENCH_GB_KEYS"); env && *env)
            list = env;
        std::istringstream is(list);
        for (std::string tok; std::getline(is, tok, ',');)
            if (!tok.empty())
                cardinalities.push_back(
                    static_cast<std::size_t>(std::stoull(tok)));
    }
    const engine::MergeStrategy strategies[] = {engine::MergeStrategy::Pairwise,
                                                engine::MergeStrategy::Radix,
                                                engine::MergeStrategy::Adaptive};

    std::printf("# groupby merge-strategy sweep: %d files x %d records, "
                "%zu threads, %d reps\n",
                nfiles, per_file, threads, reps);
    std::printf("%8s %8s %8s %10s %10s %10s %10s %10s %6s\n", "dist", "keys",
                "groups", "strategy", "merge_ms", "result_ms", "wall_s", "speedup",
                "ident");

    std::ostringstream json;
    json << "{\n  \"bench\": \"groupby\",\n  " << meta_json() << ",\n"
         << "  \"threads\": " << threads << ",\n  \"files\": " << nfiles
         << ",\n  \"records_per_file\": " << per_file << ",\n  \"results\": [";

    bool first = true;
    int not_identical = 0;
    for (const char* dist : dists) {
        for (std::size_t nkeys : cardinalities) {
            // keep at least ~4 records per nominal key so the uniform sweep
            // realizes the cardinality AND every key is merged across
            // several partials — multiplicity is what phase 2 reduces
            const int cfg_per_file = std::max(
                per_file, static_cast<int>(4 * nkeys /
                                           static_cast<std::size_t>(nfiles)));
            const std::vector<std::string> files =
                generate(dir, dist, nfiles, cfg_per_file, nkeys);
            double pairwise_ms = 0;
            std::string reference;
            for (engine::MergeStrategy s : strategies) {
                const Measured m = run_strategy(spec, files, s, threads, reps);
                if (s == engine::MergeStrategy::Pairwise) {
                    pairwise_ms = m.merge_ms;
                    reference   = m.output;
                }
                const bool identical = m.output == reference;
                not_identical += identical ? 0 : 1;
                const double speedup =
                    m.merge_ms > 0 ? pairwise_ms / m.merge_ms : 1.0;
                std::string label = merge_strategy_name(s);
                if (s == engine::MergeStrategy::Adaptive)
                    label += std::string(":") +
                             merge_strategy_name(m.executed); // what it picked
                std::printf("%8s %8zu %8zu %10s %10.3f %10.3f %10.3f %10.2f %6s\n",
                            dist, nkeys, m.groups, label.c_str(), m.merge_ms,
                            m.result_ms, m.wall_s, speedup,
                            identical ? "yes" : "NO");
                json << (first ? "" : ",") << "\n    {\"name\": \"" << dist
                     << "-k" << nkeys << "-" << merge_strategy_name(s)
                     << "\", \"groups\": " << m.groups
                     << ", \"merge_ms\": " << m.merge_ms
                     << ", \"result_ms\": " << m.result_ms
                     << ", \"wall_s\": " << m.wall_s
                     << ", \"speedup_vs_pairwise\": " << speedup
                     << ", \"identical_output\": "
                     << (identical ? "true" : "false") << "}";
                first = false;
            }
            std::filesystem::remove_all(dir);
        }
    }
    json << "\n  ],\n  \"identity_violations\": " << not_identical << "\n}\n";

    std::printf("\n%s", json.str().c_str());
    std::ofstream("BENCH_groupby.json") << json.str();
    std::printf("# wrote BENCH_groupby.json\n");
    return not_identical == 0 ? 0 : 1;
}
