// Differential runner: one seed in, a verdict out.
//
// For each seed the runner generates a corpus and a batch of queries,
// executes every query through the full engine matrix — serial
// QueryProcessor (RecordMap input through RecordMapFeeder),
// ParallelQueryProcessor at 1/2/4 threads, mmap and read()-fallback I/O,
// both merge strategies, the default batch size plus forced tiny batch
// sizes 1/2/7 (one-row batches at 1 and 2 threads), a forced-spill family
// under a 1-byte aggregation memory budget, and a weighted family
// (RecordMapFeeder rows of seeded multiplicity vs the same rows expanded
// copy by copy, with and without that budget) — and checks three
// independent properties:
//
//   1. engine-family determinism: every parallel configuration sharing a
//      morsel plan produces byte-identical formatted output — including
//      one-row batches vs any batch size (each morsel yields one partial,
//      so the reduction DAG depends on the plan alone); the forced-spill
//      family is byte-compared within itself (spilled merges may regroup
//      floating-point additions, so spill-on vs spill-off is checked
//      through the tolerant oracle instead); a weighted row answers
//      byte-identically to its copies, record counts included;
//   2. oracle agreement: engine (unspilled and spilled) and serial
//      results match the naive exact oracle (exactly for
//      counts/min/max/histograms/integer sums, within a forward error
//      bound for floating-point reductions);
//   3. round trips: the corpus and the query results survive
//      write -> read re-parsing value-intact (.cali always, JSON when the
//      query formats to JSON).
//
// Malformed (mutated) corpora skip the oracle and only require the
// engines to agree with each other (same rejection or same output).
// Failures shrink to a minimal reproducer (record ddmin + clause
// dropping) and can be dumped to disk.
#pragma once

#include "corpus.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace calib::fuzz {

struct DiffOptions {
    /// Directory for minimized reproducers; empty disables dumping.
    std::string out_dir;
    /// Scratch directory for the generated input files.
    std::string work_dir = "/tmp";
    int queries_per_seed = 3;
    bool verbose         = false;
};

struct SeedOutcome {
    std::uint64_t seed = 0;
    /// One entry per failed check, already shrunk when possible.
    std::vector<std::string> failures;
    bool ok() const { return failures.empty(); }
};

/// Run the full differential check for one seed.
SeedOutcome run_seed(std::uint64_t seed, const DiffOptions& opts);

/// Run one explicit (corpus, query) pair; exposed for tests and for
/// replaying dumped reproducers. Returns mismatch descriptions.
std::vector<std::string> check_case(const Corpus& corpus, const std::string& query,
                                    std::uint64_t case_salt,
                                    const DiffOptions& opts);

} // namespace calib::fuzz
