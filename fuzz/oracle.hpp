// Naive reference aggregator for the differential fuzz harness.
//
// Replays a QuerySpec over ground-truth records with simple, obviously
// correct scalar code: one pass per group, exact integer sums in
// __int128, floating-point reference values in long double with Neumaier
// compensation, and a forward error bound per result so legitimate
// re-association differences (the engine reduces in a morsel tree) are
// accepted while real numeric bugs are not. Deliberately shares nothing
// with AggregationDB / kernel.cpp beyond the Variant value type.
#pragma once

#include "../src/common/recordmap.hpp"
#include "../src/query/queryspec.hpp"

#include <string>
#include <vector>

namespace calib::fuzz {

struct OracleOpResult {
    bool present = false;  ///< whether the op emits a column for this group
    /// Exact expected value (count, int sums, min/max, histogram string).
    Variant exact;
    bool is_exact = false; ///< exact comparison vs bounded comparison
    /// Bounded comparison: reference value and absolute error bound.
    long double approx = 0.0L;
    long double bound  = 0.0L;
    /// Overflow/inf domain: result value depends on association order —
    /// only cross-engine agreement is checkable.
    bool unbounded = false;
};

struct OracleGroup {
    /// Group key as (attribute name, value) pairs; absent explicit key
    /// attributes are omitted, mirroring the engine's output rows.
    std::vector<std::pair<std::string, Variant>> key;
    std::vector<OracleOpResult> ops; ///< parallel to spec.aggregation.ops
};

struct OracleResult {
    bool aggregated = false;
    std::vector<OracleGroup> groups;   ///< when aggregated
    std::vector<RecordMap> records;    ///< passthrough output otherwise
};

/// Run \a spec over \a input (LET -> WHERE -> aggregate; no sort/limit —
/// comparisons are order-insensitive).
OracleResult oracle_run(const QuerySpec& spec, const std::vector<RecordMap>& input);

/// Check the engine's result rows against the oracle. When the query has
/// a LIMIT, rows are checked as a subset (the engine's ORDER BY decides
/// which rows survive); otherwise as an exact multiset.
/// Returns human-readable mismatch descriptions; empty means agreement.
std::vector<std::string> oracle_compare(const QuerySpec& spec,
                                        const OracleResult& oracle,
                                        const std::vector<RecordMap>& engine_rows);

/// The order a query's result rows must come in, restated over whole
/// RecordMaps: aggregated rows sorted canonically (their fields sorted by
/// name, then compared as (name, value) sequences, compare() ties broken
/// by identity_compare(), a shorter prefix first), then every query's
/// rows stable-sorted by the ORDER BY terms. A term reads the column of
/// its name, or else the first SELECT column aliased to it. Passthrough
/// rows keep their given order among ties.
std::vector<RecordMap> reference_order(const QuerySpec& spec,
                                       std::vector<RecordMap> rows);

/// Index of the first row where \a a and \a b differ (rows match with the
/// same names in the same field order and identical values), or the
/// shorter size when one is a prefix of the other.
std::size_t first_row_difference(const std::vector<RecordMap>& a,
                                 const std::vector<RecordMap>& b);

} // namespace calib::fuzz
