// Phase-2 merge strategies for the parallel query engine.
//
// Phase 1 produces exactly one partial QueryProcessor per morsel; phase 2
// folds each of them into the root once. Both strategies realize the
// *same* per-key floating-point reduction DAG (fold_stride_doubling over
// morsel indices), so their output bytes are identical — they differ only
// in how the work is scheduled:
//
//   pairwise  the stride merges run serially on the driver thread. No
//             task overhead; best for small group counts.
//   radix     every partial is split by key-hash radix into 16 fixed
//             partitions; the partition folds are independent pool tasks
//             (each folding its pieces in the same stride-doubling order),
//             and the driver concatenates the disjoint partition results
//             in partition order. Each partition's hash table is ~1/16 the
//             size — cache-resident at high cardinality where a monolithic
//             table thrashes.
//
// The adaptive selector picks one per query from cardinality observed at
// the end of phase 1. Its input (the partials' entry count) is a function
// of the input set only — never the thread count — so the choice, like
// the strategies themselves, cannot perturb output bytes.
// docs/ENGINE.md has the full determinism argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace calib::engine {

enum class MergeStrategy : std::uint8_t {
    /// Select per query from phase-1 cardinality (select_merge_strategy).
    /// As an EngineStats value: no merge phase ran.
    Adaptive = 0,
    Pairwise, ///< serial stride-doubling fold on the driver
    Radix,    ///< hash-partitioned parallel fold + ordered concatenation
};

/// The selector picks radix for an aggregation whose partials hold at
/// least this many entries in total.
constexpr std::size_t radix_min_entries = std::size_t(1) << 16;

/// The one phase-2 fold schedule: a stride-doubling tree over \a n
/// partials (at stride s, partial i+s merges into partial i, for
/// s = 1, 2, 4, ...). Every strategy folds through this function — the
/// pairwise strategy over whole partials, radix over each partition's
/// pieces — so every key sees the same sequence of merges.
template <class Merge>
void fold_stride_doubling(std::size_t n, Merge&& merge) {
    for (std::size_t stride = 1; stride < n; stride *= 2)
        for (std::size_t i = 0; i + stride < n; i += 2 * stride)
            merge(i, i + stride);
}

/// Lower-case name ("adaptive", "pairwise", "radix").
const char* merge_strategy_name(MergeStrategy s) noexcept;

/// Stable numeric code for the engine.merge_strategy gauge:
/// 0 none/serial, 1 pairwise, 3 radix (code 2 is retired).
int merge_strategy_code(MergeStrategy s) noexcept;

/// What phase 1 observed, fed to the adaptive selector. Every field is a
/// deterministic function of the input set (morsel plan + records), never
/// of the thread count — see the determinism note above.
struct MergeObservation {
    bool has_aggregation      = false; ///< a plain (unwindowed) group table
    std::size_t total_entries = 0;     ///< entries summed over the partials
};

/// The adaptive policy: radix when the query aggregates and its partials
/// hold at least radix_min_entries entries in total; pairwise otherwise.
/// Passthrough and windowed queries have no group table to partition, so
/// they always fold pairwise.
MergeStrategy select_merge_strategy(const MergeObservation& obs) noexcept;

/// Why select_merge_strategy() decides as it does on \a obs, as
/// `cali-query -s` prints it: "26,815 partial entries < 65,536" or
/// "passthrough or windowed query".
std::string merge_strategy_reason(const MergeObservation& obs);

} // namespace calib::engine
