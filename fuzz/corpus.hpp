// Seeded adversarial corpus generator.
//
// Each seed deterministically produces one dataset: a set of typed
// attributes, a list of ground-truth records stressing the numeric and
// textual edge domains (INT64_MIN/MAX, UINT64_MAX, NaN, +/-inf, -0.0,
// denormals, empty strings, delimiter/escape characters, CRLF), and the
// .cali stream text serializing them. Well-formed seeds keep the records
// as ground truth for the oracle; mutation seeds additionally corrupt the
// stream bytes (truncation, duplicated/garbled lines) and are checked for
// engine-vs-engine agreement only.
#pragma once

#include "../src/common/recordmap.hpp"
#include "../src/common/variant.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace calib::fuzz {

struct CorpusAttribute {
    std::string name;
    Variant::Type type = Variant::Type::Int;
};

struct Corpus {
    /// Ground-truth records (what the stream means). Empty for mutated
    /// streams, which have no reliable ground truth.
    std::vector<RecordMap> records;

    /// How many identical copies of each record the weighted family feeds
    /// as one weighted row (parallel to records: mostly 1, some 2-8, a few
    /// 1025 or 3000 so one row outweighs a batch).
    std::vector<std::uint64_t> multiplicities;

    /// The serialized .cali stream the engines will read.
    std::string cali_text;

    /// False when cali_text was byte-mutated after serialization; such
    /// corpora are only checked for cross-engine agreement.
    bool well_formed = true;

    std::vector<CorpusAttribute> attributes;

    /// Names of attributes whose type is Int/UInt/Double (aggregation
    /// targets for the query generator).
    std::vector<std::string> numeric_attributes() const;
    /// All attribute names (grouping/filter candidates).
    std::vector<std::string> attribute_names() const;
};

/// Generate the corpus for \a seed. Deterministic: same seed, same bytes.
/// Roughly one seed in five is a mutation seed (well_formed == false).
Corpus generate_corpus(std::uint64_t seed);

/// Generate one adversarial value of the given type (exposed for tests).
Variant adversarial_value(Variant::Type type, std::uint64_t seed);

} // namespace calib::fuzz
