// Morsel-driven input splitting for the parallel query engine.
//
// A morsel is one independently processable unit of query input, sized by
// bytes. The split policy depends only on the input set (never on the
// worker count), so the phase-2 merge structure — and therefore the output
// bytes — are identical for every thread count:
//
//   - multi-file input: consecutive whole files are packed into one morsel,
//     in input order, until it holds at least bytes_per_morsel bytes. A
//     file at or above the target, or one whose size cannot be read (e.g.
//     '-' for stdin), gets a morsel of its own. .cali and JSON files pack
//     alike; target 0 gives one morsel per file,
//   - a single .cali file: byte-range chunks of ~bytes_per_morsel over one
//     shared CaliFileSource mapping — a single cheap planning scan finds
//     line-boundary split points and indexes the rare attribute-definition
//     lines, so each worker replays that tiny prefix and parses only its
//     own byte span (total scan work is O(file), not O(file x workers)),
//   - a single JSON file: one morsel (the array parser cannot skip).
#pragma once

#include "../io/calireader.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace calib::engine {

/// Default morsel target in bytes (EngineOptions::bytes_per_morsel); the
/// sweep in bench/bench_record_pipeline and docs/ENGINE.md ("Morsel
/// sizing") explain the choice.
inline constexpr std::size_t default_bytes_per_morsel = std::size_t(2) << 20;

struct Morsel {
    enum class Kind {
        CaliFiles, ///< whole .cali stream files, read one after another
        CaliBytes, ///< one byte-range chunk of a shared CaliFileSource
        JsonFiles, ///< whole JSON record-array files, read one after another
    };

    Kind kind = Kind::CaliFiles;
    /// The morsel's whole files in input order (CaliFiles, JsonFiles), or
    /// the one file a CaliBytes chunk belongs to.
    std::vector<std::string> paths;
    /// Planned input bytes: the files' sizes (0 for a file whose size
    /// cannot be read), or the chunk's byte span.
    std::uint64_t bytes = 0;
    std::size_t chunk = 0; ///< chunk index (CaliBytes)
    /// The shared mapped file (CaliBytes); all chunk morsels of one file
    /// point at the same source, so the file is mapped and planned once.
    std::shared_ptr<const CaliFileSource> source;
};

struct MorselOptions {
    bool json_input = false;
    /// Target bytes per morsel: whole files pack up to it, a lone .cali
    /// file splits into chunks of about it (0: one morsel per file, a lone
    /// file never splits).
    std::size_t bytes_per_morsel = default_bytes_per_morsel;
};

/// Split \a files into morsels. Multi-file input is packed by the files'
/// stat() sizes; a single .cali file is mapped and planned by
/// CaliFileSource (one cheap line scan, no record-count pre-pass). Files
/// are not opened here except that single .cali file, so a missing file
/// in a multi-file input throws when its morsel is read.
std::vector<Morsel> make_morsels(const std::vector<std::string>& files,
                                 const MorselOptions& opts = {});

} // namespace calib::engine
