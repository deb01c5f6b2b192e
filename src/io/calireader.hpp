// Reader for the calib stream format (see caliwriter.hpp).
//
// The parser resolves attribute names against a caller-provided
// AttributeRegistry *once per attribute definition* — a name that repeats
// across thousands of records costs one registry lookup total — and
// appends record fields straight into RecordBatch columns, the one shape
// in which records enter the query pipeline. The name-based RecordMap API
// remains as a wrapper over the same parser (it resolves through a private
// registry and converts each row back to names).
//
// File-based entry points are zero-copy: the file is mmap()ed (FileBuffer,
// with a read()-into-buffer fallback for pipes/stdin) and the parser walks
// string_view lines directly over the mapped bytes — no per-line
// std::string, a flat vector indexed by the stream-local attribute id, and
// reused batch columns, so steady-state record parsing performs no
// allocations. istream inputs are read into a buffer and parsed the same
// way.
//
// CaliFileSource supports parallel reads of one file: a single cheap
// chunking pass splits the mapped bytes into line-aligned ranges and
// indexes the (rare) 'A'/'G' metadata lines, so each worker replays only
// the attribute definitions preceding its range and then parses its own
// byte span — total scan work stays O(file), not O(file x workers).
// docs/FORMAT.md describes the split semantics.
//
// All entry points are stateless and safe to call concurrently from
// multiple threads (string interning and attribute registries synchronize
// internally), which the parallel query engine relies on.
#pragma once

#include "../common/attribute.hpp"
#include "../common/idrecord.hpp"
#include "../common/recordbatch.hpp"
#include "../common/recordmap.hpp"
#include "filebuffer.hpp"

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace calib {

class CaliReader {
public:
    using RecordSink = std::function<void(RecordMap&&)>;
    /// Batched sink: the batch is the reader's reusable scratch — consume
    /// it in place (the reader clears it after the call, retaining the
    /// column layout), or std::move() it away to keep it.
    using BatchSink  = std::function<void(RecordBatch&)>;

    // -- batched entry points (the query path) ------------------------------
    //
    // Record fields append straight into RecordBatch column vectors as they
    // parse; \a sink receives a batch every \a batch_size records (plus one
    // trailing partial batch). Attribute names resolve through \a registry
    // at their definition line; dataset globals (if any) accumulate into
    // \a globals. Throws std::runtime_error on a malformed stream.
    //
    // Read accounting (records, entries, name resolutions, bytes) feeds the
    // global "reader.*" instruments in the obs metrics registry; enable via
    // obs::set_enabled() / CALIB_METRICS and read with cali-query --stats.

    /// Zero-copy parse of in-memory stream text (no istream, no per-line
    /// copies). File readers map the file and call this.
    static void read_buffer_batches(std::string_view text,
                                    AttributeRegistry& registry,
                                    std::size_t batch_size, const BatchSink& sink,
                                    IdRecord* globals = nullptr);

    /// Mmap \a path ("-" = stdin, via the read() fallback) and parse it
    /// zero-copy.
    static void read_file_batches(const std::string& path,
                                  AttributeRegistry& registry,
                                  std::size_t batch_size, const BatchSink& sink,
                                  IdRecord* globals = nullptr);

    // -- name-based entry points --------------------------------------------

    static void read(std::istream& is, const RecordSink& sink,
                     RecordMap* globals = nullptr);

    static std::vector<RecordMap> read_all(std::istream& is,
                                           RecordMap* globals = nullptr);

    static std::vector<RecordMap> read_file(const std::string& path,
                                            RecordMap* globals = nullptr);

    /// Stream records from a file (avoids materializing the record vector).
    static void read_file(const std::string& path, const RecordSink& sink,
                          RecordMap* globals = nullptr);
};

/// A .cali file prepared for parallel byte-range reads: the file is mapped
/// once and split into line-aligned chunks by a single cheap scan that also
/// indexes every 'A' (attribute definition) and 'G' (globals) line. Workers
/// call read_chunk_batches() with disjoint chunk indices; each replays the
/// definitions preceding its range, then parses only its own bytes.
/// Immutable after construction — safe to share across threads.
class CaliFileSource {
public:
    /// One line-aligned byte range of the file.
    struct Chunk {
        std::size_t begin      = 0; ///< first byte (start of a line)
        std::size_t end        = 0; ///< one past the last byte
        std::size_t first_line = 1; ///< 1-based line number at begin
        std::uint64_t records  = 0; ///< 'R' lines within the range
    };

    /// Map (or slurp) \a path and plan chunks of ~\a target_chunk_bytes.
    /// Throws std::runtime_error when the file cannot be opened.
    CaliFileSource(std::string path, std::size_t target_chunk_bytes);

    const std::string& path() const noexcept { return path_; }
    std::size_t size_bytes() const noexcept { return buffer_.size(); }
    bool mapped() const noexcept { return buffer_.mapped(); }
    std::uint64_t num_records() const noexcept { return num_records_; }
    bool has_globals() const noexcept;

    /// Chunks tile [0, size_bytes()) in file order; empty for an empty file.
    const std::vector<Chunk>& chunks() const noexcept { return chunks_; }

    /// Parse the records of chunk \a index into batches for \a sink
    /// (thread-safe for distinct indices; see CaliReader::BatchSink). Error
    /// messages carry whole-file line numbers.
    void read_chunk_batches(std::size_t index, AttributeRegistry& registry,
                            std::size_t batch_size,
                            const CaliReader::BatchSink& sink) const;

    /// All dataset globals ('G' lines anywhere in the file), resolved
    /// against \a registry.
    IdRecord read_globals(AttributeRegistry& registry) const;

private:
    /// An 'A' or 'G' line, indexed by the planning scan.
    struct MetaLine {
        std::size_t offset = 0; ///< byte offset of the line start
        std::uint32_t size = 0; ///< line length (newline / CR stripped)
        std::size_t lineno = 0; ///< 1-based, for error messages
        char kind          = 0; ///< 'A' or 'G'
    };

    FileBuffer buffer_;
    std::string path_;
    std::vector<MetaLine> meta_;
    std::vector<Chunk> chunks_;
    std::uint64_t num_records_ = 0;
};

/// A loaded multi-file dataset (e.g. one file per MPI rank).
struct Dataset {
    std::vector<RecordMap> records;
    /// Per-file globals; each entry also gets a "cali.file" attribute.
    std::vector<RecordMap> globals;

    static Dataset load(const std::vector<std::string>& paths);
};

} // namespace calib
