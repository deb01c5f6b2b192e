// Seeded input generators for the four workloads. The seed is the only
// source of variation: the same seed gives byte-identical inputs, another
// seed gives different bytes with the same shape (file count, record
// count, and group count within a small margin).
#pragma once

#include "common/attribute.hpp"
#include "common/idrecord.hpp"
#include "common/recordmap.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

// -- offline_paradis: ParaDiS-sim per-rank files (paper §V-C) -------------

inline constexpr int kParadisFiles = 48;
inline constexpr int kParadisRecordsPerFile = 2174;
inline constexpr std::size_t kParadisGroups = 85;

/// The paper's evaluation query, with count added (85 output rows).
inline constexpr const char* kParadisQuery =
    "AGGREGATE sum(time.inclusive.duration),count GROUP BY kernel,mpi.function";

// -- offline_highcard: zipf-skewed call paths per rank and iteration -------

// Files are slices of one stream in which every rank and iteration
// appears. The merged table (~14k groups, a few MiB) outgrows a 2 MiB
// per-core L2, and the 48 per-file partials hold more than 2^16 entries
// together, so the engine's adaptive selector picks the radix merge.
inline constexpr int kHighcardFiles          = 48;
inline constexpr int kHighcardRecordsPerFile = 2000;
inline constexpr int kHighcardRanks          = 16;
inline constexpr int kHighcardPaths          = 256;
inline constexpr int kHighcardIterations     = 4;

/// Top-N over a few 10^4 groups: count/sum/min/max/avg per (call path, rank,
/// iteration), ordered by the sum alias.
inline constexpr const char* kHighcardQuery =
    "SELECT callpath,mpi.rank,iteration#mainloop,count,sum(time.ns) AS total_ns,"
    "min(time.ns),max(time.ns),avg(time.ns) "
    "GROUP BY callpath,mpi.rank,iteration#mainloop "
    "ORDER BY total_ns DESC LIMIT 100 FORMAT csv";
inline constexpr std::size_t kHighcardLimit = 100;

/// Ground-truth records of highcard file \a file, in file order.
void highcard_records(std::uint64_t seed, int file,
                      const std::function<void(calib::RecordMap&&)>& sink);

/// Write the workload's input files into \a dir (created). Returns paths.
std::vector<std::string> generate_offline(const std::string& workload,
                                          const std::string& dir,
                                          std::uint64_t seed);

/// Input file paths of an offline workload in \a dir (generation order).
std::vector<std::string> offline_files(const std::string& workload,
                                       const std::string& dir);

// -- live_exact: sampler-shaped record mix per pusher ----------------------

inline constexpr int kPushers          = 2;
inline constexpr int kLiveTemplates    = 1024; ///< distinct rows per pusher

struct LiveMix {
    calib::AttributeRegistry registry; ///< ids of the template records
    std::vector<calib::IdRecord> templates;
    std::vector<std::int64_t> weights; ///< sample.weight of each template
    std::vector<std::uint16_t> sequence; ///< template index per record sent
};

/// Pusher \a pusher's traffic: templates and a zipf-skewed sequence of
/// \a records template indices.
void make_live_mix(std::uint64_t seed, int pusher, std::size_t records,
                   LiveMix& mix);

// -- runtime_event: the annotated main loop's schedule ----------------------

inline constexpr int kLevels          = 3;
inline constexpr int kKernelsPerLevel = 6;
inline constexpr int kKernelNames     = 12;

struct Schedule {
    /// Kernel name index per (level, slot), and spin work per slot.
    std::vector<int> kernels;
    std::vector<int> work;
};

Schedule make_schedule(std::uint64_t seed);
const std::vector<std::string>& kernel_names();

/// Snapshots one main-loop iteration triggers in event mode.
std::uint64_t snapshots_per_iteration();

// -- shape and identity, for the seed self-test -----------------------------

struct InputSummary {
    std::size_t files   = 0; ///< files, pushers, or schedule slots
    std::uint64_t records = 0;
    std::size_t groups  = 0;
    std::uint64_t digest  = 0; ///< FNV-1a over the input bytes
};

/// Generate the inputs of \a workload for \a seed (files under \a dir for
/// the offline workloads) and summarize them.
InputSummary summarize(const std::string& workload, const std::string& dir,
                       std::uint64_t seed);

} // namespace pb
