// Morsel-driven input splitting for the parallel query engine.
//
// A morsel is one independently processable unit of query input. The split
// policy depends only on the input set (never on the worker count), so the
// phase-2 merge structure — and therefore the output bytes — are identical
// for every thread count:
//
//   - multi-file input: one morsel per file (parallel I/O + parse),
//   - a single dominating file: byte-range chunks over one shared
//     CaliFileSource mapping — a single cheap planning scan finds
//     line-boundary split points and indexes the rare attribute-definition
//     lines, so each worker replays that tiny prefix and parses only its
//     own byte span (total scan work is O(file), not O(file x workers)),
//   - JSON inputs: one morsel per file (the array parser cannot skip).
#pragma once

#include "../io/calireader.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace calib::engine {

struct Morsel {
    enum class Kind {
        CaliFile,  ///< a whole .cali stream file
        CaliBytes, ///< one byte-range chunk of a shared CaliFileSource
        JsonFile,  ///< a whole JSON record-array file
    };

    Kind kind = Kind::CaliFile;
    std::string path;
    std::size_t chunk = 0; ///< chunk index (CaliBytes)
    /// The shared mapped file (CaliBytes); all chunk morsels of one file
    /// point at the same source, so the file is mapped and planned once.
    std::shared_ptr<const CaliFileSource> source;
};

struct MorselOptions {
    bool json_input = false;
    /// Target bytes per chunk when a single file is split (0: never split).
    std::size_t bytes_per_morsel = std::size_t(4) << 20;
};

/// Split \a files into morsels. A single .cali file is mapped and planned
/// by CaliFileSource (one cheap line scan, no record-count pre-pass);
/// everything else maps 1:1.
std::vector<Morsel> make_morsels(const std::vector<std::string>& files,
                                 const MorselOptions& opts = {});

} // namespace calib::engine
