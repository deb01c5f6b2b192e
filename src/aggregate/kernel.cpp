#include "kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace calib::kernel {

namespace {

template <typename T>
T* as(void* p) {
    return static_cast<T*>(p);
}
template <typename T>
const T* as(const void* p) {
    return static_cast<const T*>(p);
}

} // namespace

int histogram_bin_index(double v) noexcept {
    // Deliberate policy (pinned by tests): NaN and negative values count in
    // bin 0 alongside v < 1 rather than being dropped — the histogram's
    // record count n stays equal to the number of numeric inputs.
    if (!(v >= 1.0))
        return 0;
    // Open-ended top bin for v >= 2^(bins-2), including +inf. Bounding v
    // *before* the float->int cast keeps the cast in range (casting an
    // out-of-int-range double, e.g. log2(inf), is undefined behavior).
    if (v >= static_cast<double>(std::uint64_t(1) << (histogram_bins - 2)))
        return histogram_bins - 1;
    const int bin = 1 + static_cast<int>(std::floor(std::log2(v)));
    return std::min(std::max(bin, 1), histogram_bins - 1);
}

std::size_t state_size(AggOp op) noexcept {
    switch (op) {
    case AggOp::Count:        return sizeof(CountState);
    case AggOp::Sum:          return sizeof(SumState);
    case AggOp::Min:          return sizeof(MinMaxState);
    case AggOp::Max:          return sizeof(MinMaxState);
    case AggOp::Avg:          return sizeof(AvgState);
    case AggOp::Variance:     return sizeof(VarianceState);
    case AggOp::Histogram:    return sizeof(HistogramState);
    case AggOp::PercentTotal: return sizeof(SumState);
    }
    return 0;
}

void state_init(AggOp op, void* state) noexcept {
    std::memset(state, 0, state_size(op));
    if (op == AggOp::Min || op == AggOp::Max)
        *as<MinMaxState>(state) = MinMaxState{Variant()};
    if (op == AggOp::Histogram) {
        auto* h = as<HistogramState>(state);
        h->vmin = std::numeric_limits<double>::infinity();
        h->vmax = -std::numeric_limits<double>::infinity();
    }
}

namespace {

/// The exact-integer addend for \a v, or false when the value only fits
/// the double path (doubles, and UInt above INT64_MAX).
bool int_addend(const Variant& v, std::int64_t* out) {
    switch (v.type()) {
    case Variant::Type::Int:
        *out = v.as_int();
        return true;
    case Variant::Type::Bool:
        *out = v.as_bool() ? 1 : 0;
        return true;
    case Variant::Type::UInt:
        if (v.as_uint() > static_cast<std::uint64_t>(
                              std::numeric_limits<std::int64_t>::max()))
            return false;
        *out = static_cast<std::int64_t>(v.as_uint());
        return true;
    default:
        return false;
    }
}

/// Widen an integer accumulation to the double path (Caliper's behavior
/// when an exact sum leaves the integer domain).
void sum_widen(SumState* s, std::int64_t a, std::int64_t b) {
    s->dsum = static_cast<double>(a) + static_cast<double>(b);
    s->kind = 2;
    s->isum = 0; // canonical: the integer accumulator is dead on the
                 // double path, and equal value sequences must produce
                 // bitwise-equal states (the init-merge lemma)
}

void sum_update(SumState* s, const Variant& v) {
    if (!v.is_numeric() && !v.is_bool())
        return; // non-numeric inputs are ignored
    if (v.type() == Variant::Type::Double && std::isnan(v.as_double()))
        return; // value-domain policy: NaN inputs are ignored
    std::int64_t iv;
    if (s->kind != 2 && int_addend(v, &iv)) {
        std::int64_t next;
        if (__builtin_add_overflow(s->isum, iv, &next))
            sum_widen(s, s->isum, iv); // checked: no signed-overflow UB
        else {
            s->isum = next;
            s->kind = 1;
        }
    } else {
        if (s->kind == 1) {
            s->dsum = static_cast<double>(s->isum);
            s->isum = 0; // see sum_widen: keep the state canonical
        }
        s->kind = 2;
        s->dsum += v.to_double();
    }
    ++s->updates;
}

void sum_merge(SumState* s, const SumState* o) {
    if (o->kind == 0)
        return;
    if (o->kind == 1 && s->kind != 2) {
        std::int64_t next;
        if (__builtin_add_overflow(s->isum, o->isum, &next))
            sum_widen(s, s->isum, o->isum);
        else {
            s->isum = next;
            s->kind = 1;
        }
    } else {
        const double add = o->kind == 1 ? static_cast<double>(o->isum) : o->dsum;
        if (s->kind == 1) {
            s->dsum = static_cast<double>(s->isum);
            s->isum = 0; // see sum_widen: keep the state canonical
        }
        // a freshly-initialized destination must reproduce the source
        // bitwise (e.g. -0.0 survives); the merge-strategy byte-identity
        // contract rests on this — see docs/ENGINE.md
        s->dsum = s->kind == 0 ? add : s->dsum + add;
        s->kind = 2;
    }
    s->updates += o->updates;
}

Variant sum_result(const SumState* s) {
    if (s->kind == 0)
        return {};
    if (s->kind == 1)
        return Variant(static_cast<long long>(s->isum));
    return Variant(s->dsum);
}

double sum_as_double(const SumState* s) {
    return s->kind == 1 ? static_cast<double>(s->isum) : s->dsum;
}

} // namespace

void state_update(AggOp op, void* state, const Variant& value) noexcept {
    switch (op) {
    case AggOp::Count:
        ++as<CountState>(state)->count;
        break;
    case AggOp::Sum:
    case AggOp::PercentTotal:
        sum_update(as<SumState>(state), value);
        break;
    case AggOp::Min: {
        // Value-domain policy: NaN inputs are ignored — a NaN must not win
        // or lose the ordering depending on arrival order. An all-NaN input
        // leaves the state Empty (no output row for this operator).
        if (value.type() == Variant::Type::Double && std::isnan(value.as_double()))
            break;
        auto* s = as<MinMaxState>(state);
        if (s->value.empty() || value.compare(s->value) < 0)
            s->value = value;
        break;
    }
    case AggOp::Max: {
        if (value.type() == Variant::Type::Double && std::isnan(value.as_double()))
            break;
        auto* s = as<MinMaxState>(state);
        if (s->value.empty() || value.compare(s->value) > 0)
            s->value = value;
        break;
    }
    case AggOp::Avg: {
        if (!value.is_numeric() && !value.is_bool())
            break;
        const double x = value.to_double();
        if (std::isnan(x))
            break; // NaN inputs are ignored; empty state stays Empty
        auto* s = as<AvgState>(state);
        s->sum += x;
        ++s->count;
        break;
    }
    case AggOp::Variance: {
        if (!value.is_numeric() && !value.is_bool())
            break;
        const double x = value.to_double();
        if (std::isnan(x))
            break; // NaN inputs are ignored; empty state stays Empty
        auto* s = as<VarianceState>(state);
        ++s->n;
        const double delta = x - s->mean;
        s->mean += delta / static_cast<double>(s->n);
        s->m2 += delta * (x - s->mean);
        break;
    }
    case AggOp::Histogram: {
        if (!value.is_numeric() && !value.is_bool())
            break;
        auto* s        = as<HistogramState>(state);
        const double x = value.to_double();
        ++s->bins[histogram_bin_index(x)]; // NaN/negatives count in bin 0
        ++s->n;
        if (!std::isnan(x)) { // NaN never becomes the observed min/max
            s->vmin = std::min(s->vmin, x);
            s->vmax = std::max(s->vmax, x);
        }
        break;
    }
    }
}

void state_update_n(AggOp op, void* state, const Variant& value,
                    std::uint64_t n) noexcept {
    if (n == 0)
        return;
    const bool numeric = value.is_numeric() || value.is_bool();
    const bool nan =
        value.type() == Variant::Type::Double && std::isnan(value.as_double());
    switch (op) {
    case AggOp::Count:
        as<CountState>(state)->count += n;
        return;
    case AggOp::Sum:
    case AggOp::PercentTotal: {
        if (!numeric || nan)
            return; // ignored inputs, as in sum_update
        auto* s = as<SumState>(state);
        std::int64_t iv, add, next;
        // every partial sum lies between isum and isum + n*iv, so when
        // both fit int64 no single update would have widened
        if (s->kind != 2 && int_addend(value, &iv) &&
            !__builtin_mul_overflow(iv, n, &add) &&
            !__builtin_add_overflow(s->isum, add, &next)) {
            s->isum = next;
            s->kind = 1;
            s->updates += static_cast<std::uint32_t>(n); // wraps like ++
            return;
        }
        break;
    }
    case AggOp::Min:
    case AggOp::Max:
        state_update(op, state, value); // idempotent
        return;
    case AggOp::Avg:
    case AggOp::Variance:
        if (!numeric || nan)
            return;
        break;
    case AggOp::Histogram: {
        if (!numeric)
            return;
        auto* s        = as<HistogramState>(state);
        const double x = value.to_double();
        s->bins[histogram_bin_index(x)] += n;
        s->n += n;
        if (!std::isnan(x)) {
            s->vmin = std::min(s->vmin, x);
            s->vmax = std::max(s->vmax, x);
        }
        return;
    }
    }
    // floating-point sums, a widening integer sum, avg and variance: repeat
    // the update in order
    for (std::uint64_t i = 0; i < n; ++i)
        state_update(op, state, value);
}

void state_merge(AggOp op, void* state, const void* other) noexcept {
    switch (op) {
    case AggOp::Count:
        as<CountState>(state)->count += as<CountState>(other)->count;
        break;
    case AggOp::Sum:
    case AggOp::PercentTotal:
        sum_merge(as<SumState>(state), as<SumState>(other));
        break;
    case AggOp::Min: {
        auto* s       = as<MinMaxState>(state);
        const auto* o = as<MinMaxState>(other);
        if (!o->value.empty() && (s->value.empty() || o->value.compare(s->value) < 0))
            s->value = o->value;
        break;
    }
    case AggOp::Max: {
        auto* s       = as<MinMaxState>(state);
        const auto* o = as<MinMaxState>(other);
        if (!o->value.empty() && (s->value.empty() || o->value.compare(s->value) > 0))
            s->value = o->value;
        break;
    }
    case AggOp::Avg: {
        auto* s = as<AvgState>(state);
        const auto* o = as<AvgState>(other);
        if (s->count == 0) {
            // bitwise copy onto a fresh destination (strategy byte-identity)
            *s = *o;
            break;
        }
        s->sum += o->sum;
        s->count += o->count;
        break;
    }
    case AggOp::Variance: {
        // Chan et al. parallel combination of Welford accumulators.
        auto* s       = as<VarianceState>(state);
        const auto* o = as<VarianceState>(other);
        if (o->n == 0)
            break;
        if (s->n == 0) {
            *s = *o;
            break;
        }
        const double na = static_cast<double>(s->n), nb = static_cast<double>(o->n);
        const double delta = o->mean - s->mean;
        const double n     = na + nb;
        s->m2 += o->m2 + delta * delta * na * nb / n;
        s->mean += delta * nb / n;
        s->n += o->n;
        break;
    }
    case AggOp::Histogram: {
        auto* s       = as<HistogramState>(state);
        const auto* o = as<HistogramState>(other);
        for (int i = 0; i < histogram_bins; ++i)
            s->bins[i] += o->bins[i];
        s->n += o->n;
        s->vmin = std::min(s->vmin, o->vmin);
        s->vmax = std::max(s->vmax, o->vmax);
        break;
    }
    }
}

void state_result(AggOp op, const void* state, const char* label, RowArena& out,
                  double percent_denominator) {
    switch (op) {
    case AggOp::Count:
        out.append(label, Variant(static_cast<unsigned long long>(
                              as<CountState>(state)->count)));
        break;
    case AggOp::Sum: {
        Variant v = sum_result(as<SumState>(state));
        if (!v.empty())
            out.append(label, v);
        break;
    }
    case AggOp::PercentTotal: {
        const auto* s = as<SumState>(state);
        if (s->kind == 0)
            break;
        const double pct = percent_denominator > 0.0
                               ? 100.0 * sum_as_double(s) / percent_denominator
                               : 0.0;
        out.append(label, Variant(pct));
        break;
    }
    case AggOp::Min:
    case AggOp::Max: {
        const auto* s = as<MinMaxState>(state);
        if (!s->value.empty())
            out.append(label, s->value);
        break;
    }
    case AggOp::Avg: {
        const auto* s = as<AvgState>(state);
        if (s->count > 0)
            out.append(label, Variant(s->sum / static_cast<double>(s->count)));
        break;
    }
    case AggOp::Variance: {
        const auto* s = as<VarianceState>(state);
        if (s->n > 0)
            out.append(label, Variant(s->m2 / static_cast<double>(s->n)));
        break;
    }
    case AggOp::Histogram: {
        const auto* s = as<HistogramState>(state);
        if (s->n == 0)
            break;
        // Render the populated bin range as "lo..hi:c0|c1|...".
        int lo = 0, hi = histogram_bins - 1;
        while (lo < hi && s->bins[lo] == 0)
            ++lo;
        while (hi > lo && s->bins[hi] == 0)
            --hi;
        std::string text = std::to_string(lo) + ".." + std::to_string(hi) + ":";
        for (int i = lo; i <= hi; ++i) {
            if (i > lo)
                text += '|';
            text += std::to_string(s->bins[i]);
        }
        out.append(label, Variant(text));
        break;
    }
    }
}

double state_sum_value(AggOp op, const void* state) noexcept {
    if (op == AggOp::Sum || op == AggOp::PercentTotal)
        return sum_as_double(as<SumState>(state));
    if (op == AggOp::Count)
        return static_cast<double>(as<CountState>(state)->count);
    if (op == AggOp::Avg)
        return as<AvgState>(state)->sum;
    return 0.0;
}

void state_serialize(AggOp op, const void* state, ByteWriter& w) {
    switch (op) {
    case AggOp::Count:
        w.put(as<CountState>(state)->count);
        break;
    case AggOp::Sum:
    case AggOp::PercentTotal: {
        const auto* s = as<SumState>(state);
        w.put(s->dsum);
        w.put(s->isum);
        w.put(s->kind);
        w.put(s->updates);
        break;
    }
    case AggOp::Min:
    case AggOp::Max:
        w.put_variant(as<MinMaxState>(state)->value);
        break;
    case AggOp::Avg: {
        const auto* s = as<AvgState>(state);
        w.put(s->sum);
        w.put(s->count);
        break;
    }
    case AggOp::Variance: {
        const auto* s = as<VarianceState>(state);
        w.put(s->n);
        w.put(s->mean);
        w.put(s->m2);
        break;
    }
    case AggOp::Histogram: {
        const auto* s = as<HistogramState>(state);
        for (int i = 0; i < histogram_bins; ++i)
            w.put(s->bins[i]);
        w.put(s->vmin);
        w.put(s->vmax);
        w.put(s->n);
        break;
    }
    }
}

void state_deserialize(AggOp op, void* state, ByteReader& r) {
    switch (op) {
    case AggOp::Count:
        as<CountState>(state)->count = r.get<std::uint64_t>();
        break;
    case AggOp::Sum:
    case AggOp::PercentTotal: {
        auto* s    = as<SumState>(state);
        s->dsum    = r.get<double>();
        s->isum    = r.get<std::int64_t>();
        s->kind    = r.get<std::uint32_t>();
        s->updates = r.get<std::uint32_t>();
        break;
    }
    case AggOp::Min:
    case AggOp::Max:
        as<MinMaxState>(state)->value = r.get_variant();
        break;
    case AggOp::Avg: {
        auto* s  = as<AvgState>(state);
        s->sum   = r.get<double>();
        s->count = r.get<std::uint64_t>();
        break;
    }
    case AggOp::Variance: {
        auto* s = as<VarianceState>(state);
        s->n    = r.get<std::uint64_t>();
        s->mean = r.get<double>();
        s->m2   = r.get<double>();
        break;
    }
    case AggOp::Histogram: {
        auto* s = as<HistogramState>(state);
        for (int i = 0; i < histogram_bins; ++i)
            s->bins[i] = r.get<std::uint64_t>();
        s->vmin = r.get<double>();
        s->vmax = r.get<double>();
        s->n    = r.get<std::uint64_t>();
        break;
    }
    }
}

} // namespace calib::kernel
