// JSON record reader, the inverse of FORMAT json:
//
//   [ {"kernel": "advec", "count": 3, "t": 1.5}, ... ]
//
// Reads an array of flat objects with string / number / bool / null
// values (null drops the field; an array or object value is an error:
// records are flat). Lets query pipelines consume reports produced by
// other tools (or by calib itself). The grammar and the number typing
// are the shared strict parser's (json.hpp).
//
// The batched entry point resolves each distinct object key against the
// caller's AttributeRegistry once per stream (a per-parser dictionary
// caches the resolution) and appends records into RecordBatches for the
// query pipeline. The RecordMap API remains as a wrapper over the same
// parser.
#pragma once

#include "../common/attribute.hpp"
#include "../common/recordbatch.hpp"
#include "../common/recordmap.hpp"

#include <functional>
#include <istream>
#include <string_view>
#include <vector>

namespace calib {

/// Read a JSON record-array file; "-" reads standard input. The file is
/// mapped via FileBuffer (read() fallback for pipes) and parsed in place,
/// one object at a time: keys resolve through \a registry once per
/// distinct name, and parsed records accumulate into a RecordBatch handed
/// to \a sink every \a batch_size records (plus one trailing partial
/// batch). The batch is reusable scratch — consume it in place or
/// std::move() it away (see CaliReader::BatchSink). Read accounting feeds
/// the global "reader.*" instruments (see obs/metrics.hpp). Throws
/// std::runtime_error ("cannot open <path>", or a parse error with byte
/// position).
void read_json_file_batches(const std::string& path, AttributeRegistry& registry,
                            std::size_t batch_size,
                            const std::function<void(RecordBatch&)>& sink);

/// Parse a JSON array of flat objects into name-based records.
std::vector<RecordMap> read_json_records(std::string_view text);

/// Name-based variants over a stream: the whole stream is read into
/// memory, then parsed like text.
void read_json_records(std::istream& is,
                       const std::function<void(RecordMap&&)>& sink);
std::vector<RecordMap> read_json_records(std::istream& is);

} // namespace calib
