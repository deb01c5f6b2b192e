// calib-fuzz: deterministic differential fuzzer for the query pipeline.
//
// Each seed is a complete, reproducible test case: a generated corpus plus
// a batch of generated queries, checked through the full engine matrix
// against the naive oracle (see differential.hpp). A failing seed number
// IS the bug report — rerun with --seed N to replay it, and pass --out to
// dump minimized reproducers (input.cali / query.calql / multiplicities.txt
// / failure.txt).
//
// Usage:
//   calib-fuzz [--seed-range A:B] [--seed N] [--queries N] [--out DIR] [-v]
//   calib-fuzz --frames [--seed-range A:B] [--seed N] [-v]
//
// --frames switches to the proxyd wire-protocol fuzzer (framefuzz.hpp):
// seeded frame streams — valid, directed-violation, and byte-mutated —
// fed chunk-wise into the daemon's ingest session.
//
// Defaults to --seed-range 0:200. Exits 1 when any seed fails.
#include "differential.hpp"
#include "framefuzz.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: calib-fuzz [--seed-range A:B] [--seed N] [--queries N]\n"
                 "                  [--out DIR] [--work DIR] [--frames] [-v]\n"
                 "\n"
                 "  --seed-range A:B  run seeds A (inclusive) to B (exclusive); "
                 "default 0:200\n"
                 "  --seed N          run exactly one seed\n"
                 "  --queries N       queries per seed (default 3)\n"
                 "  --out DIR         dump minimized reproducers for failures\n"
                 "  --work DIR        scratch directory for inputs (default /tmp)\n"
                 "  --frames          fuzz the proxyd frame protocol instead of\n"
                 "                    the query pipeline\n"
                 "  -v                print every seed as it runs\n");
}

bool parse_u64(const char* s, std::uint64_t* out) {
    if (!s || !*s)
        return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        return false;
    *out = v;
    return true;
}

} // namespace

int main(int argc, char** argv) {
    std::uint64_t seed_begin = 0, seed_end = 200;
    bool frames = false;
    calib::fuzz::DiffOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--frames") {
            frames = true;
        } else if (arg == "--seed-range" && i + 1 < argc) {
            const std::string range = argv[++i];
            const std::size_t colon = range.find(':');
            if (colon == std::string::npos ||
                !parse_u64(range.substr(0, colon).c_str(), &seed_begin) ||
                !parse_u64(range.substr(colon + 1).c_str(), &seed_end)) {
                std::fprintf(stderr, "calib-fuzz: bad --seed-range '%s'\n",
                             range.c_str());
                return 2;
            }
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parse_u64(argv[++i], &seed_begin)) {
                std::fprintf(stderr, "calib-fuzz: bad --seed\n");
                return 2;
            }
            seed_end = seed_begin + 1;
        } else if (arg == "--queries" && i + 1 < argc) {
            std::uint64_t n = 0;
            if (!parse_u64(argv[++i], &n) || n == 0) {
                std::fprintf(stderr, "calib-fuzz: bad --queries\n");
                return 2;
            }
            opts.queries_per_seed = static_cast<int>(n);
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out_dir = argv[++i];
        } else if (arg == "--work" && i + 1 < argc) {
            opts.work_dir = argv[++i];
        } else if (arg == "-v" || arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "calib-fuzz: unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (seed_end < seed_begin) {
        std::fprintf(stderr, "calib-fuzz: empty seed range\n");
        return 2;
    }

    std::uint64_t failed_seeds = 0, total_failures = 0;
    for (std::uint64_t seed = seed_begin; seed < seed_end; ++seed) {
        std::vector<std::string> failures;
        if (frames) {
            failures = calib::fuzz::run_frame_seed(seed, opts.verbose).failures;
        } else {
            failures = calib::fuzz::run_seed(seed, opts).failures;
        }
        const calib::fuzz::SeedOutcome outcome{seed, std::move(failures)};
        if (outcome.ok()) {
            if (opts.verbose)
                std::fprintf(stderr, "seed %llu ok\n",
                             static_cast<unsigned long long>(seed));
            continue;
        }
        ++failed_seeds;
        total_failures += outcome.failures.size();
        std::fprintf(stderr, "seed %llu FAILED (%zu checks):\n",
                     static_cast<unsigned long long>(seed),
                     outcome.failures.size());
        for (const std::string& f : outcome.failures)
            std::fprintf(stderr, "  %s\n", f.c_str());
    }

    const std::uint64_t n_seeds = seed_end - seed_begin;
    if (failed_seeds == 0) {
        std::fprintf(stderr, "calib-fuzz: %llu seeds ok\n",
                     static_cast<unsigned long long>(n_seeds));
        return 0;
    }
    std::fprintf(stderr,
                 "calib-fuzz: %llu of %llu seeds failed (%llu checks)%s\n",
                 static_cast<unsigned long long>(failed_seeds),
                 static_cast<unsigned long long>(n_seeds),
                 static_cast<unsigned long long>(total_failures),
                 opts.out_dir.empty() ? "" : "; reproducers dumped");
    return 1;
}
