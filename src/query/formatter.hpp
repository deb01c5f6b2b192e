// Report formatters: render query results (offline records) as aligned
// tables, CSV, JSON, attribute=value lines, or an indented tree.
#pragma once

#include "queryspec.hpp"

#include "../common/recordmap.hpp"

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace calib {

/// Determine the output column order for a record set:
/// SELECT list if present; otherwise GROUP BY attributes, then aggregation
/// result labels, then remaining attributes in first-appearance order.
std::vector<std::string> output_columns(const std::vector<RecordMap>& records,
                                        const QuerySpec& spec);

/// \a s escaped for the inside of a JSON string literal: quote, backslash
/// and every control character are escaped; other bytes (UTF-8 included)
/// pass through. FORMAT json and calib-benchdiff's JSON report write
/// their strings through it.
std::string json_escape(std::string_view s);

/// Render \a records according to spec.format.
void format_records(std::ostream& os, const std::vector<RecordMap>& records,
                    const QuerySpec& spec);

// Individual formatters (used directly by tests and tools):
void format_table(std::ostream& os, const std::vector<RecordMap>& records,
                  const QuerySpec& spec);
void format_csv(std::ostream& os, const std::vector<RecordMap>& records,
                const QuerySpec& spec);
void format_json(std::ostream& os, const std::vector<RecordMap>& records,
                 const QuerySpec& spec);
void format_expand(std::ostream& os, const std::vector<RecordMap>& records,
                   const QuerySpec& spec);
/// Tree view: the first column is interpreted as a '/'-separated path
/// (e.g. a call path); rows are shown indented under their path prefix.
void format_tree(std::ostream& os, const std::vector<RecordMap>& records,
                 const QuerySpec& spec);

} // namespace calib
