// Streaming aggregation kernels.
//
// Each operator owns a small POD state embedded in the aggregation
// database's state arena. Kernels support three operations:
//   update : fold one input value into the state (streaming reduction),
//            or n copies of it at once (state_update_n)
//   merge  : combine two partial states (cross-thread / cross-process)
//   result : emit the final value(s) as output attributes
// All states are mergeable, so the same kernels drive online event
// aggregation, offline queries, and the parallel tree reduction.
#pragma once

#include "ops.hpp"

#include "../common/bytebuf.hpp"
#include "../common/recordmap.hpp"
#include "../common/variant.hpp"

#include <cstddef>
#include <cstdint>

namespace calib::kernel {

struct CountState {
    std::uint64_t count;
};

/// Sum keeps an exact integer accumulator as long as all inputs are
/// integral and the running sum fits int64, switching to double on the
/// first floating-point input, on a UInt above INT64_MAX, or when the
/// integer sum would overflow (checked — never signed-overflow UB; the
/// state widens like Caliper's). NaN inputs are ignored
/// (docs/CORRECTNESS.md has the full value-domain policy table).
struct SumState {
    double dsum;
    std::int64_t isum;
    std::uint32_t kind; ///< 0 = no input yet, 1 = integer, 2 = double
    std::uint32_t updates;
};

struct MinMaxState {
    Variant value; ///< Empty until the first update
};

struct AvgState {
    double sum;
    std::uint64_t count;
};

/// Welford accumulator; merge via Chan et al.'s parallel formula.
struct VarianceState {
    std::uint64_t n;
    double mean;
    double m2;
};

inline constexpr int histogram_bins = 36;

/// log2-binned histogram of non-negative values: bin 0 holds v < 1
/// (deliberately including negatives and NaN — see histogram_bin_index),
/// bin i holds 2^(i-1) <= v < 2^i, the last bin is open-ended (including
/// +inf).
struct HistogramState {
    std::uint64_t bins[histogram_bins];
    double vmin;
    double vmax;
    std::uint64_t n;
};

int histogram_bin_index(double v) noexcept;

/// Size in bytes of the state for \a op (8-byte aligned).
std::size_t state_size(AggOp op) noexcept;

void state_init(AggOp op, void* state) noexcept;
void state_update(AggOp op, void* state, const Variant& value) noexcept;

/// Fold \a n copies of \a value: the resulting state is bitwise equal to
/// \a n calls of state_update(). Closed form for count, min/max, the
/// histogram and an integer sum that stays in int64; floating-point
/// sums, avg and variance (and an integer sum that widens) repeat the
/// update inside the kernel, so they stay O(n) but never re-probe.
void state_update_n(AggOp op, void* state, const Variant& value,
                    std::uint64_t n) noexcept;
void state_merge(AggOp op, void* state, const void* other) noexcept;

/// Append the operator result, if the state has one, to the row \a out
/// is building, under \a label: the op's interned result label, which
/// the caller interns once per flush. \a percent_denominator is the
/// overall total used by percent_total (ignored by other operators).
void state_result(AggOp op, const void* state, const char* label, RowArena& out,
                  double percent_denominator);

/// Raw sum value of a state, used to compute percent_total denominators.
double state_sum_value(AggOp op, const void* state) noexcept;

void state_serialize(AggOp op, const void* state, ByteWriter& w);
void state_deserialize(AggOp op, void* state, ByteReader& r);

} // namespace calib::kernel
