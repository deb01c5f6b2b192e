#include "oracle.hpp"

#include "../src/aggregate/window.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace calib::fuzz {

namespace {

// -- value-domain helpers (independent re-statements of the documented
// -- policy in docs/CORRECTNESS.md, not calls into the kernel) --------------

bool is_nan_value(const Variant& v) {
    return v.type() == Variant::Type::Double && std::isnan(v.as_double());
}

bool numeric_like(const Variant& v) { return v.is_numeric() || v.is_bool(); }

long double value_as_ld(const Variant& v) {
    switch (v.type()) {
    case Variant::Type::Int:    return static_cast<long double>(v.as_int());
    case Variant::Type::UInt:   return static_cast<long double>(v.as_uint());
    case Variant::Type::Double: return static_cast<long double>(v.as_double());
    case Variant::Type::Bool:   return v.as_bool() ? 1.0L : 0.0L;
    default:                    return 0.0L;
    }
}

/// True when the value feeds the exact integer sum path (Int, Bool, and
/// UInt up to INT64_MAX); doubles and larger UInts force the double path.
bool int_path_value(const Variant& v) {
    switch (v.type()) {
    case Variant::Type::Int:
    case Variant::Type::Bool:
        return true;
    case Variant::Type::UInt:
        return v.as_uint() <=
               static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    default:
        return false;
    }
}

std::int64_t int_path_addend(const Variant& v) {
    switch (v.type()) {
    case Variant::Type::Int:  return v.as_int();
    case Variant::Type::Bool: return v.as_bool() ? 1 : 0;
    default:                  return static_cast<std::int64_t>(v.as_uint());
    }
}

/// Independent restatement of the log2 histogram binning: bin 0 takes
/// v < 1 (negatives and NaN included), the top bin is open-ended.
constexpr int kHistogramBins = 36;

int oracle_bin(double v) {
    if (std::isnan(v) || v < 1.0)
        return 0;
    for (int bin = 1; bin < kHistogramBins - 1; ++bin)
        if (v < std::ldexp(1.0, bin))
            return bin;
    return kHistogramBins - 1; // includes +inf
}

/// Mirror of the WHERE coercion policy: same-kind operands compare by
/// numeric value, mixed numeric/string operands compare textually.
int oracle_coerced_compare(const Variant& record_value, const Variant& filter_value) {
    const bool rn = numeric_like(record_value);
    const bool fn = numeric_like(filter_value);
    if (rn == fn)
        return record_value.compare(filter_value);
    return record_value.to_string().compare(filter_value.to_string());
}

bool oracle_filter(const FilterSpec& f, const RecordMap& record) {
    const Variant* v = record.find(f.attribute);
    switch (f.op) {
    case FilterSpec::Op::Exist:    return v != nullptr;
    case FilterSpec::Op::NotExist: return v == nullptr;
    default: break;
    }
    if (!v)
        return false;
    const int c = oracle_coerced_compare(*v, f.value);
    switch (f.op) {
    case FilterSpec::Op::Eq: return c == 0;
    case FilterSpec::Op::Ne: return c != 0;
    case FilterSpec::Op::Lt: return c < 0;
    case FilterSpec::Op::Le: return c <= 0;
    case FilterSpec::Op::Gt: return c > 0;
    case FilterSpec::Op::Ge: return c >= 0;
    default:                 return false;
    }
}

Variant oracle_let(const LetSpec& let, const RecordMap& record) {
    auto arg = [&](std::size_t k) {
        return k < let.args.size() ? record.get(let.args[k]) : Variant();
    };
    switch (let.fn) {
    case LetSpec::Fn::Scale: {
        const Variant v = arg(0);
        return v.is_numeric() ? Variant(v.to_double() * let.parameter) : Variant();
    }
    case LetSpec::Fn::Truncate: {
        const Variant v = arg(0);
        if (!v.is_numeric() || let.parameter <= 0.0)
            return {};
        return Variant(std::floor(v.to_double() / let.parameter) * let.parameter);
    }
    case LetSpec::Fn::Ratio: {
        const Variant a = arg(0), b = arg(1);
        if (!a.is_numeric() || !b.is_numeric() || b.to_double() == 0.0)
            return {};
        return Variant(a.to_double() / b.to_double());
    }
    case LetSpec::Fn::First:
        for (std::size_t k = 0; k < let.args.size(); ++k)
            if (Variant v = arg(k); !v.empty())
                return v;
        return {};
    }
    return {};
}

// -- per-group scalar accumulators ------------------------------------------

struct NeumaierSum {
    long double sum = 0.0L, comp = 0.0L;
    void add(long double x) {
        const long double t = sum + x;
        if (std::fabs(sum) >= std::fabs(x))
            comp += (sum - t) + x;
        else
            comp += (x - t) + sum;
        sum = t;
    }
    long double value() const { return sum + comp; }
};

struct GroupAcc {
    std::vector<std::pair<std::string, Variant>> key;
    std::uint64_t records = 0;

    struct OpAcc {
        std::uint64_t n = 0; ///< accepted inputs
        // sum / percent_total / avg
        __int128 isum   = 0;
        bool all_int    = true;
        NeumaierSum lsum;
        NeumaierSum labs;
        bool saw_inf = false;
        // min / max
        bool has_minmax = false;
        Variant minmax;
        // variance (Welford in long double)
        long double mean = 0.0L, m2 = 0.0L;
        // histogram
        std::uint64_t bins[kHistogramBins] = {};
    };
    std::vector<OpAcc> ops;
};

/// The op's input value in \a record: the first entry named after the
/// target attribute. (The result-label fallback column never exists in
/// fuzz corpora — the corpus generator excludes '#' and "count" names.)
const Variant* op_input(const AggOpConfig& op, const RecordMap& record) {
    const Variant* v = record.find(op.attribute);
    return (v && !v->empty()) ? v : nullptr;
}

void update_op(AggOp kind, GroupAcc::OpAcc& acc, const Variant& v, bool is_min) {
    switch (kind) {
    case AggOp::Count:
        break; // counted per record, not per value
    case AggOp::Sum:
    case AggOp::PercentTotal:
    case AggOp::Avg: {
        if (!numeric_like(v) || is_nan_value(v))
            return;
        ++acc.n;
        if (int_path_value(v))
            acc.isum += int_path_addend(v);
        else
            acc.all_int = false;
        const long double x = value_as_ld(v);
        acc.lsum.add(x);
        acc.labs.add(std::fabs(x));
        if (std::isinf(static_cast<double>(x)))
            acc.saw_inf = true;
        break;
    }
    case AggOp::Min:
    case AggOp::Max: {
        if (is_nan_value(v))
            return;
        ++acc.n;
        if (!acc.has_minmax || (is_min ? v.compare(acc.minmax) < 0
                                       : v.compare(acc.minmax) > 0)) {
            acc.minmax    = v;
            acc.has_minmax = true;
        }
        break;
    }
    case AggOp::Variance: {
        if (!numeric_like(v))
            return;
        const long double x = value_as_ld(v);
        if (std::isnan(static_cast<double>(x)))
            return;
        ++acc.n;
        if (std::isinf(static_cast<double>(x)))
            acc.saw_inf = true;
        const long double delta = x - acc.mean;
        acc.mean += delta / static_cast<long double>(acc.n);
        acc.m2 += delta * (x - acc.mean);
        break;
    }
    case AggOp::Histogram: {
        if (!numeric_like(v))
            return;
        ++acc.n;
        const double x = static_cast<double>(value_as_ld(v));
        ++acc.bins[oracle_bin(x)];
        break;
    }
    }
}

std::string render_histogram(const GroupAcc::OpAcc& acc) {
    int lo = 0, hi = kHistogramBins - 1;
    while (lo < hi && acc.bins[lo] == 0)
        ++lo;
    while (hi > lo && acc.bins[hi] == 0)
        --hi;
    std::string text = std::to_string(lo) + ".." + std::to_string(hi) + ":";
    for (int i = lo; i <= hi; ++i) {
        if (i > lo)
            text += '|';
        text += std::to_string(acc.bins[i]);
    }
    return text;
}

constexpr long double kEps = std::numeric_limits<double>::epsilon();
/// Tiny absolute slack covering denormal-range results, where a relative
/// bound collapses to zero.
constexpr long double kTiny = 1e-290L;
/// Overflow guard: above this magnitude double arithmetic may round to
/// inf in one association order and not another.
constexpr long double kHuge = 1e306L;

/// Forward error bound for a sum of n doubles re-associated arbitrarily.
long double sum_bound(std::uint64_t n, long double abs_sum) {
    return (static_cast<long double>(n) + 8.0L) * kEps * abs_sum + kTiny;
}

/// Finalize one op's accumulator into an oracle result.
OracleOpResult finalize_op(AggOp kind, const GroupAcc& group,
                           const GroupAcc::OpAcc& acc, long double pct_denom,
                           long double pct_denom_bound) {
    OracleOpResult r;
    switch (kind) {
    case AggOp::Count:
        r.present  = true;
        r.is_exact = true;
        r.exact    = Variant(static_cast<unsigned long long>(group.records));
        break;
    case AggOp::Sum:
        if (acc.n == 0)
            break;
        r.present = true;
        if (acc.all_int) {
            // the engine may have widened to double mid-stream (overflow is
            // order-dependent), but if it reports Int the value is exact
            r.is_exact = true;
            r.exact = Variant(static_cast<long long>(acc.isum)); // may truncate;
            // compare() against the long double reference handles the
            // >int64 case via the bounded branch below
        }
        r.approx = acc.lsum.value();
        r.bound  = sum_bound(acc.n, acc.labs.value());
        r.unbounded = acc.saw_inf || acc.labs.value() > kHuge;
        break;
    case AggOp::PercentTotal: {
        if (acc.n == 0)
            break;
        r.present = true;
        if (pct_denom_bound >= kHuge)
            r.unbounded = true; // denominator may overflow double (see caller)
        const long double num       = acc.lsum.value();
        const long double num_bound = sum_bound(acc.n, acc.labs.value());
        if (pct_denom > 0.0L) {
            r.approx = 100.0L * num / pct_denom;
            r.bound  = 100.0L * (num_bound / pct_denom +
                                std::fabs(num) * pct_denom_bound /
                                    (pct_denom * pct_denom)) +
                      kTiny;
            // a denominator within rounding distance of zero may flip the
            // engine's `> 0` guard either way
            if (pct_denom <= pct_denom_bound)
                r.unbounded = true;
        } else {
            r.approx = 0.0L;
            r.bound  = kTiny;
            // a denominator rounding to <= 0 in one association order and
            // > 0 in another flips the result to 0; treat near-zero
            // denominators as unbounded
            if (std::fabs(pct_denom) <= pct_denom_bound)
                r.unbounded = true;
        }
        if (acc.saw_inf || acc.labs.value() > kHuge)
            r.unbounded = true;
        break;
    }
    case AggOp::Min:
    case AggOp::Max:
        if (!acc.has_minmax)
            break;
        r.present  = true;
        r.is_exact = true;
        r.exact    = acc.minmax;
        break;
    case AggOp::Avg: {
        if (acc.n == 0)
            break;
        r.present = true;
        const long double n = static_cast<long double>(acc.n);
        r.approx            = acc.lsum.value() / n;
        r.bound             = sum_bound(acc.n, acc.labs.value()) / n + kTiny;
        r.unbounded         = acc.saw_inf || acc.labs.value() > kHuge;
        break;
    }
    case AggOp::Variance: {
        if (acc.n == 0)
            break;
        r.present           = true;
        const long double n = static_cast<long double>(acc.n);
        r.approx            = acc.m2 / n;
        // Welford/Chan merges keep the error within a modest multiple of
        // n * eps relative to the variance's natural scale E[x^2]
        const long double scale = acc.m2 / n + acc.mean * acc.mean;
        r.bound = 64.0L * n * kEps * scale + kTiny;
        r.unbounded = acc.saw_inf || scale > kHuge;
        break;
    }
    case AggOp::Histogram:
        if (acc.n == 0)
            break;
        r.present  = true;
        r.is_exact = true;
        r.exact    = Variant(render_histogram(acc));
        break;
    }
    return r;
}

// -- key handling -----------------------------------------------------------

std::vector<std::pair<std::string, Variant>> make_key(const QuerySpec& spec,
                                                      const RecordMap& record) {
    std::vector<std::pair<std::string, Variant>> key;
    const KeySpec& ks = spec.aggregation.key;
    if (ks.all) {
        // every entry that is not an aggregation input or result column
        for (const auto& [name, value] : record) {
            bool skip = false;
            for (const AggOpConfig& op : spec.aggregation.ops) {
                if ((!op.attribute.empty() && op.attribute == name) ||
                    AggOpConfig{op.op, op.attribute, ""}.result_label() == name) {
                    skip = true;
                    break;
                }
            }
            if (!skip)
                key.emplace_back(name, value);
        }
        // canonical order for key identity: duplicates keep record order
        std::stable_sort(key.begin(), key.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
    } else {
        for (const std::string& attr : ks.attributes) {
            const Variant* v = record.find(attr);
            if (v && !v->empty())
                key.emplace_back(attr, *v);
            // absent key attributes are omitted from the output row
        }
    }
    return key;
}

bool key_equal(const std::vector<std::pair<std::string, Variant>>& a,
               const std::vector<std::pair<std::string, Variant>>& b) {
    if (a.size() != b.size())
        return false;
    // multiset equality; keys are small, quadratic matching is fine
    std::vector<bool> used(b.size(), false);
    for (const auto& [name, value] : a) {
        bool found = false;
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (!used[i] && b[i].first == name && b[i].second == value) {
                used[i] = true;
                found   = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

std::string render_key(const std::vector<std::pair<std::string, Variant>>& key) {
    std::string out = "{";
    for (const auto& [name, value] : key)
        out += name + "=" + value.to_repr() + ",";
    return out + "}";
}

} // namespace

OracleResult oracle_run(const QuerySpec& spec, const std::vector<RecordMap>& input) {
    OracleResult result;
    result.aggregated = spec.has_aggregation();

    // LET -> WHERE
    std::vector<RecordMap> records;
    for (const RecordMap& original : input) {
        RecordMap record = original;
        for (const LetSpec& let : spec.lets)
            if (Variant v = oracle_let(let, record); !v.empty())
                record.set(let.target, v);
        bool pass = true;
        for (const FilterSpec& f : spec.filters)
            if (!oracle_filter(f, record)) {
                pass = false;
                break;
            }
        if (pass)
            records.push_back(std::move(record));
    }

    // WINDOW: route surviving records by the shared pane arithmetic (the
    // one declarative statement both sides use), find the watermark, and
    // keep only the trailing live range. Records without a usable pane —
    // missing time attribute, non-numeric value, NaN/inf, out-of-range —
    // drop, per docs/CORRECTNESS.md. This mirrors the engine's order of
    // operations: windowing sits after LET and WHERE.
    if (spec.window.enabled()) {
        const std::string time_attr = spec.window.time_attribute();
        std::vector<std::optional<std::int64_t>> panes;
        std::optional<std::int64_t> watermark;
        panes.reserve(records.size());
        for (const RecordMap& record : records) {
            const std::optional<std::int64_t> p =
                pane_index(record.get(time_attr), spec.window.slide());
            if (p && (!watermark || *p > *watermark))
                watermark = *p;
            panes.push_back(p);
        }
        std::vector<RecordMap> live;
        if (watermark) {
            const std::int64_t floor =
                *watermark -
                static_cast<std::int64_t>(spec.window.pane_count()) + 1;
            for (std::size_t i = 0; i < records.size(); ++i)
                if (panes[i] && *panes[i] >= floor)
                    live.push_back(std::move(records[i]));
        }
        records = std::move(live);
    }

    if (!result.aggregated) {
        result.records = std::move(records);
        return result;
    }

    const std::vector<AggOpConfig>& ops = spec.aggregation.ops;
    std::vector<GroupAcc> groups;
    for (const RecordMap& record : records) {
        auto key = make_key(spec, record);
        GroupAcc* group = nullptr;
        for (GroupAcc& g : groups)
            if (key_equal(g.key, key)) {
                group = &g;
                break;
            }
        if (!group) {
            groups.emplace_back();
            group      = &groups.back();
            group->key = std::move(key);
            group->ops.resize(ops.size());
        }
        ++group->records;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].op == AggOp::Count)
                continue;
            const Variant* v = op_input(ops[i], record);
            if (v)
                update_op(ops[i].op, group->ops[i], *v, ops[i].op == AggOp::Min);
        }
    }

    // percent_total denominators: the engine sums the per-group doubles
    std::vector<long double> denoms(ops.size(), 0.0L);
    std::vector<long double> denom_bounds(ops.size(), 0.0L);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].op != AggOp::PercentTotal)
            continue;
        NeumaierSum d, dabs;
        std::uint64_t n = 0;
        for (const GroupAcc& g : groups) {
            d.add(g.ops[i].lsum.value());
            dabs.add(std::fabs(g.ops[i].lsum.value()));
            n += g.ops[i].n;
        }
        denoms[i]       = d.value();
        denom_bounds[i] = sum_bound(n + groups.size(), dabs.value());
        // when the absolute mass exceeds double range the engine's
        // double-precision denominator can overflow to inf in some
        // association orders (making every group's percentage +/-0) even
        // though the cancelled long double total is moderate; signal
        // finalize_op with a sentinel bound
        if (dabs.value() > kHuge)
            denom_bounds[i] = kHuge;
    }

    for (const GroupAcc& g : groups) {
        OracleGroup og;
        og.key = g.key;
        for (std::size_t i = 0; i < ops.size(); ++i)
            og.ops.push_back(
                finalize_op(ops[i].op, g, g.ops[i], denoms[i], denom_bounds[i]));
        result.groups.push_back(std::move(og));
    }
    return result;
}

namespace {

/// Check one engine result cell against one oracle op result.
bool cell_matches(const OracleOpResult& expected, const Variant& actual,
                  std::string* why) {
    if (expected.unbounded)
        return true;
    if (expected.is_exact) {
        // min/max may surface any compare-equal representative (Int 1 vs
        // Double 1.0 depends on arrival order) -> compare by value
        if (actual.compare(expected.exact) == 0)
            return true;
        // an integer sum the engine widened to double mid-stream still has
        // a bounded-double fallback below
        if (expected.bound == 0.0L) {
            *why = "expected " + expected.exact.to_repr() + ", got " +
                   actual.to_repr();
            return false;
        }
    }
    if (!numeric_like(actual)) {
        *why = "expected a numeric near " + std::to_string((double)expected.approx) +
               ", got '" + actual.to_string() + "'";
        return false;
    }
    const long double got = value_as_ld(actual);
    if (std::isnan((double)got) && std::isnan((double)expected.approx))
        return true;
    const long double err = std::fabs(got - expected.approx);
    if (err <= expected.bound)
        return true;
    *why = "expected " + std::to_string((double)expected.approx) + " +/- " +
           std::to_string((double)expected.bound) + ", got " + actual.to_repr() +
           " (err " + std::to_string((double)err) + ")";
    return false;
}

} // namespace

std::vector<std::string> oracle_compare(const QuerySpec& spec,
                                        const OracleResult& oracle,
                                        const std::vector<RecordMap>& engine_rows) {
    std::vector<std::string> mismatches;
    const bool subset = spec.limit > 0;

    if (!oracle.aggregated) {
        // passthrough: multiset match of records
        if (!subset && engine_rows.size() != oracle.records.size())
            mismatches.push_back("row count: engine " +
                                 std::to_string(engine_rows.size()) + ", oracle " +
                                 std::to_string(oracle.records.size()));
        if (subset &&
            engine_rows.size() != std::min(spec.limit, oracle.records.size()))
            mismatches.push_back("limited row count: engine " +
                                 std::to_string(engine_rows.size()) + ", oracle " +
                                 std::to_string(oracle.records.size()) + " limit " +
                                 std::to_string(spec.limit));
        std::vector<bool> used(oracle.records.size(), false);
        for (const RecordMap& row : engine_rows) {
            bool found = false;
            for (std::size_t i = 0; i < oracle.records.size(); ++i) {
                if (!used[i] && oracle.records[i] == row && row == oracle.records[i]) {
                    used[i] = true;
                    found   = true;
                    break;
                }
            }
            if (!found)
                mismatches.push_back("engine row has no oracle match");
        }
        return mismatches;
    }

    const std::vector<AggOpConfig>& ops = spec.aggregation.ops;
    if (!subset && engine_rows.size() != oracle.groups.size())
        mismatches.push_back("group count: engine " +
                             std::to_string(engine_rows.size()) + ", oracle " +
                             std::to_string(oracle.groups.size()));
    if (subset && engine_rows.size() != std::min(spec.limit, oracle.groups.size()))
        mismatches.push_back("limited group count: engine " +
                             std::to_string(engine_rows.size()) + ", oracle " +
                             std::to_string(oracle.groups.size()) + " limit " +
                             std::to_string(spec.limit));

    std::vector<bool> used(oracle.groups.size(), false);
    for (const RecordMap& row : engine_rows) {
        // the row's key part: every column that is not a result label
        std::vector<std::pair<std::string, Variant>> key;
        for (const auto& [name, value] : row) {
            bool is_result = false;
            for (const AggOpConfig& op : ops)
                if (op.result_label() == name) {
                    is_result = true;
                    break;
                }
            if (!is_result)
                key.emplace_back(name, value);
        }

        const OracleGroup* match = nullptr;
        for (std::size_t i = 0; i < oracle.groups.size(); ++i) {
            if (!used[i] && key_equal(oracle.groups[i].key, key)) {
                used[i] = true;
                match   = &oracle.groups[i];
                break;
            }
        }
        if (!match) {
            mismatches.push_back("engine group " + render_key(key) +
                                 " has no oracle group");
            continue;
        }

        for (std::size_t i = 0; i < ops.size(); ++i) {
            const std::string label = ops[i].result_label();
            const Variant* cell     = row.find(label);
            const OracleOpResult& expected = match->ops[i];
            if (!expected.present) {
                if (cell && !expected.unbounded)
                    mismatches.push_back(render_key(key) + " " + label +
                                         ": engine emitted " + cell->to_repr() +
                                         ", oracle expected no value");
                continue;
            }
            if (!cell) {
                if (!expected.unbounded)
                    mismatches.push_back(render_key(key) + " " + label +
                                         ": engine emitted nothing, oracle expected a value");
                continue;
            }
            std::string why;
            if (!cell_matches(expected, *cell, &why))
                mismatches.push_back(render_key(key) + " " + label + ": " + why);
        }
    }
    return mismatches;
}

std::vector<RecordMap> reference_order(const QuerySpec& spec,
                                       std::vector<RecordMap> rows) {
    if (spec.has_aggregation()) {
        using FieldPtr = const RecordMap::value_type*;
        std::vector<std::pair<std::vector<FieldPtr>, std::size_t>> keyed;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::vector<FieldPtr> fields;
            for (const auto& field : rows[i])
                fields.push_back(&field);
            std::stable_sort(fields.begin(), fields.end(), [](FieldPtr a, FieldPtr b) {
                return std::strcmp(a->first, b->first) < 0;
            });
            keyed.emplace_back(std::move(fields), i);
        }
        std::stable_sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
            for (std::size_t i = 0; i < a.first.size() && i < b.first.size(); ++i) {
                const int name = std::strcmp(a.first[i]->first, b.first[i]->first);
                if (name != 0)
                    return name < 0;
                const Variant& va = a.first[i]->second;
                const Variant& vb = b.first[i]->second;
                if (const int c = va.compare(vb); c != 0)
                    return c < 0;
                if (const int c = va.identity_compare(vb); c != 0)
                    return c < 0;
            }
            return a.first.size() < b.first.size();
        });
        std::vector<RecordMap> sorted;
        for (const auto& [fields, index] : keyed)
            sorted.push_back(std::move(rows[index]));
        rows = std::move(sorted);
    }

    const auto term_value = [&spec](const RecordMap& row, const std::string& name) {
        if (const Variant* v = row.find(name))
            return *v;
        for (const std::string& column : spec.select) {
            const auto alias = spec.aliases.find(column);
            if (alias != spec.aliases.end() && alias->second == name)
                if (const Variant* v = row.find(column))
                    return *v;
        }
        return Variant();
    };
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const RecordMap& a, const RecordMap& b) {
                         for (const SortSpec& s : spec.sort) {
                             const int c = term_value(a, s.attribute)
                                               .compare(term_value(b, s.attribute));
                             if (c != 0)
                                 return s.descending ? c > 0 : c < 0;
                         }
                         return false;
                     });
    return rows;
}

std::size_t first_row_difference(const std::vector<RecordMap>& a,
                                 const std::vector<RecordMap>& b) {
    const auto same = [](const RecordMap& x, const RecordMap& y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i)
            if (std::strcmp(x[i].first, y[i].first) != 0 || !(x[i].second == y[i].second))
                return false;
        return true;
    };
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && same(a[i], b[i]))
        ++i;
    return i;
}

} // namespace calib::fuzz
