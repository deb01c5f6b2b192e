#include "corpus.hpp"

#include "fuzz_rng.hpp"

#include "../src/io/caliwriter.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace calib::fuzz {

namespace {

// Attribute-name pool. Deliberately excludes '#' and the name "count":
// those collide with aggregation result labels ("sum#x", "count"), which
// triggers the re-aggregation fallback path and would make the oracle's
// grouping model diverge from a plain first-stage query.
const std::vector<std::string>& name_pool() {
    static const std::vector<std::string> pool = {
        "region",   "time.duration", "loop.iteration", "mpi.rank",
        "site/block", "phase:init",  "mem@node",       "x",
        "a-b",      "odd name",      "q=val",          "c,d",
    };
    return pool;
}

std::int64_t adversarial_int(Rng& rng) {
    switch (rng.below(12)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    case 3: return std::numeric_limits<std::int64_t>::max();
    case 4: return std::numeric_limits<std::int64_t>::min();
    case 5: return std::numeric_limits<std::int64_t>::max() - 1;
    case 6: return std::numeric_limits<std::int64_t>::min() + 1;
    case 7: return std::int64_t(1) << 53; // first integer double can't count past
    case 8: return (std::int64_t(1) << 53) + 1;
    case 9: return -(std::int64_t(1) << 62);
    case 10: return static_cast<std::int64_t>(rng.below(1000)) - 500;
    default: return rng.int64();
    }
}

std::uint64_t adversarial_uint(Rng& rng) {
    switch (rng.below(8)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return std::numeric_limits<std::uint64_t>::max();
    case 3: return std::numeric_limits<std::uint64_t>::max() - 1;
    case 4: return std::uint64_t(1) << 63; // just past INT64_MAX
    case 5: return static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max());
    case 6: return rng.below(1000);
    default: return rng.next();
    }
}

double adversarial_double(Rng& rng) {
    switch (rng.below(16)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::quiet_NaN();
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::infinity();
    case 5: return std::numeric_limits<double>::denorm_min();
    case 6: return -std::numeric_limits<double>::denorm_min();
    case 7: return std::numeric_limits<double>::max();
    case 8: return std::numeric_limits<double>::min();
    case 9: return 0.1;
    case 10: return 1.0 / 3.0;
    case 11: return 1e16 + 1.0; // not exactly representable neighborhood
    case 12: return -1e300 * rng.unit();
    case 13: return std::ldexp(rng.unit() + 1.0,
                               static_cast<int>(rng.below(600)) - 300);
    case 14: return static_cast<double>(rng.int64());
    default: return rng.unit() * 1000.0 - 500.0;
    }
}

std::string adversarial_string(Rng& rng) {
    switch (rng.below(12)) {
    case 0: return "";
    case 1: return "a,b";
    case 2: return "x=y";
    case 3: return "back\\slash";
    case 4: return "line\nbreak";
    case 5: return "crlf\r\n";
    case 6: return "ends with cr\r";
    case 7: return " padded ";
    case 8: return "\xc3\xa9\xe2\x98\x83"; // UTF-8 passes through byte-exact
    case 9: return std::string(300, 'x');
    case 10: return "123"; // numeric-looking string
    default: {
        std::string s;
        const std::size_t n = rng.below(12);
        for (std::size_t i = 0; i < n; ++i)
            s += static_cast<char>('a' + rng.below(26));
        return s;
    }
    }
}

/// Byte-level mutations for malformed-input seeds. The result has no
/// ground truth; engines are only checked for agreement on it.
void mutate(std::string& text, Rng& rng) {
    if (text.empty())
        return;
    const std::size_t n_mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < n_mutations; ++m) {
        const std::size_t pos = rng.below(text.size());
        switch (rng.below(6)) {
        case 0: // truncate (mid-line, mid-escape, mid-field...)
            text.resize(pos);
            break;
        case 1: // flip one byte to printable garbage
            text[pos] = static_cast<char>('!' + rng.below(90));
            break;
        case 2: // delete one byte
            text.erase(pos, 1);
            break;
        case 3: // insert a delimiter byte
            text.insert(pos, 1, ",=\\\n"[rng.below(4)]);
            break;
        case 4: { // duplicate a whole line (duplicate A definitions, records)
            const std::size_t ls = text.rfind('\n', pos);
            const std::size_t start = ls == std::string::npos ? 0 : ls + 1;
            std::size_t end = text.find('\n', pos);
            if (end == std::string::npos)
                end = text.size();
            const std::string line = text.substr(start, end - start);
            text.insert(start, line + "\n");
            break;
        }
        default: // reference an undefined attribute id
            text += "\nR,999999=zzz";
            break;
        }
        if (text.empty())
            return;
    }
}

} // namespace

Variant adversarial_value(Variant::Type type, std::uint64_t seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    switch (type) {
    case Variant::Type::Int:    return Variant(static_cast<long long>(adversarial_int(rng)));
    case Variant::Type::UInt:   return Variant(static_cast<unsigned long long>(adversarial_uint(rng)));
    case Variant::Type::Double: return Variant(adversarial_double(rng));
    case Variant::Type::Bool:   return Variant(rng.below(2) == 1);
    case Variant::Type::String: return Variant(adversarial_string(rng));
    default:                    return Variant();
    }
}

std::vector<std::string> Corpus::numeric_attributes() const {
    std::vector<std::string> out;
    for (const CorpusAttribute& a : attributes)
        if (a.type == Variant::Type::Int || a.type == Variant::Type::UInt ||
            a.type == Variant::Type::Double)
            out.push_back(a.name);
    return out;
}

std::vector<std::string> Corpus::attribute_names() const {
    std::vector<std::string> out;
    for (const CorpusAttribute& a : attributes)
        out.push_back(a.name);
    return out;
}

Corpus generate_corpus(std::uint64_t seed) {
    Rng rng(seed);
    Corpus corpus;

    // 2..6 attributes with stable types (attributes are typed in the
    // stream; per-record type drift is a separate, malformed-input case)
    const std::size_t n_attrs = 2 + rng.below(5);
    std::vector<std::string> names = name_pool();
    for (std::size_t i = 0; i < n_attrs && !names.empty(); ++i) {
        const std::size_t pick = rng.below(names.size());
        CorpusAttribute attr;
        attr.name = names[pick];
        names.erase(names.begin() + static_cast<std::ptrdiff_t>(pick));
        static const Variant::Type types[] = {
            Variant::Type::Int,    Variant::Type::UInt, Variant::Type::Double,
            Variant::Type::Double, Variant::Type::String, Variant::Type::Bool,
        };
        attr.type = types[rng.below(6)];
        corpus.attributes.push_back(attr);
    }

    // a small value pool per attribute keeps group cardinality low enough
    // that groups actually accumulate more than one record
    std::vector<std::vector<Variant>> pools(corpus.attributes.size());
    for (std::size_t a = 0; a < corpus.attributes.size(); ++a) {
        const std::size_t pool_size = 1 + rng.below(6);
        for (std::size_t i = 0; i < pool_size; ++i)
            pools[a].push_back(adversarial_value(corpus.attributes[a].type, rng.next()));
    }

    const std::size_t n_records = rng.below(80);
    for (std::size_t r = 0; r < n_records; ++r) {
        RecordMap record;
        for (std::size_t a = 0; a < corpus.attributes.size(); ++a) {
            if (rng.chance(75))
                record.append(corpus.attributes[a].name, rng.pick(pools[a]));
        }
        corpus.records.push_back(std::move(record));
    }
    // drawn from a stream of their own, so the records and bytes above
    // stay what each seed has always produced
    Rng mrng(seed ^ 0x3e1647edULL);
    for (std::size_t r = 0; r < n_records; ++r) {
        const std::uint64_t roll = mrng.below(64);
        corpus.multiplicities.push_back(roll < 52   ? 1
                                        : roll < 62 ? 2 + mrng.below(7)
                                        : roll == 62 ? 1025
                                                     : 3000);
    }

    std::ostringstream os;
    CaliWriter writer(os);
    if (rng.chance(30))
        writer.write_global("fuzz.seed", Variant(static_cast<unsigned long long>(seed)));
    for (const RecordMap& record : corpus.records)
        writer.write_record(record);
    corpus.cali_text = os.str();

    if (seed % 5 == 4) { // every fifth seed: malformed-input class
        mutate(corpus.cali_text, rng);
        corpus.records.clear();
        corpus.multiplicities.clear();
        corpus.well_formed = false;
    }
    return corpus;
}

} // namespace calib::fuzz
