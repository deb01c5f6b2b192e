// Scalable cross-process aggregation (paper §IV-C, Figure 4).
//
// The parallel query runs one QueryProcessor per rank over that rank's
// input files, then performs a binomial-tree reduction of the serialized
// partial aggregation databases: at step k, ranks with bit k set send
// their partial to (rank - 2^k), which merges it; after ceil(log2 P)
// steps the root holds the global result.
//
// Two modes:
//   parallel_query  — executes for real on simmpi rank-threads
//   modeled_query   — discrete-event mode for large P: local processing
//                     and every per-level merge are executed and *timed*
//                     for real, while message hops are charged from a
//                     NetModel; reproduces the logarithmic reduction
//                     scaling without P physical threads. Models the
//                     binomial tree (fanout 2) or any k-ary tree.
#pragma once

#include "netmodel.hpp"
#include "runtime.hpp"

#include "../query/processor.hpp"
#include "../query/queryspec.hpp"

#include <string>
#include <vector>

namespace calib::simmpi {

struct QueryTimes {
    double total_s  = 0; ///< wall-clock on rank 0, including input I/O
    double local_s  = 0; ///< reading + processing process-local input
    double reduce_s = 0; ///< cross-process tree reduction
    std::size_t output_records = 0;
    std::uint64_t input_records  = 0;
    std::uint64_t bytes_reduced  = 0; ///< total payload moved in the reduction
    int nprocs = 0;
};

/// Run \a spec over \a files distributed round-robin across \a nprocs
/// rank-threads; the root's merged result lands in \a result (optional).
/// \a threads > 1 runs each rank's local stage on the parallel query
/// engine (engine::ParallelQueryProcessor) with that many workers.
QueryTimes parallel_query(const QuerySpec& spec, const std::vector<std::string>& files,
                          int nprocs, std::vector<RecordMap>* result = nullptr,
                          int threads = 1);

/// Discrete-event weak-scaling model: every rank processes
/// `files_per_rank` copies of \a representative_file; tree merges are
/// executed on real aggregation databases and timed, network hops are
/// charged from \a net. Suitable for P up to 2^20.
///
/// \a fanout picks the tree: 2 (the default) is the paper's binomial tree;
/// a k-ary tree (the fan-out ablation) has each inner node receive and
/// merge (fanout-1) sibling partials per level, levels =
/// ceil(log_fanout(P)) — fewer levels but more sequential merges per node,
/// the classic reduction-tree tradeoff. Values below 2 mean 2.
QueryTimes modeled_query(const QuerySpec& spec, const std::string& representative_file,
                         int nprocs, const NetModel& net, int files_per_rank = 1,
                         std::vector<RecordMap>* result = nullptr, int fanout = 2);

} // namespace calib::simmpi
