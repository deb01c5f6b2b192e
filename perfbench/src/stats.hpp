// Sample statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n), so exactly
// n - ceil(p/100 * n) samples lie beyond it. A tail percentile is only
// reported when at least ten samples lie beyond it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// Samples strictly beyond the nearest-rank \a p-th percentile of \a n.
std::size_t samples_beyond(std::size_t n, double p);

/// Highest of 50, 90, 99, 99.9 that \a n samples support; 0 when none.
double highest_supported_percentile(std::size_t n);

/// Nearest-rank \a p-th percentile (0 < p <= 100) of \a samples; 0 when
/// empty. Sorts its copy.
double percentile(std::vector<double> samples, double p);

/// Median (mean of the two middle samples for even counts); 0 when empty.
double median(std::vector<double> samples);

/// Latency histogram of constant size, whatever the sample count: exact
/// below 64 ns, then 64 buckets per power of two (each under 1.6% wide)
/// up to 2^40 ns. A percentile is the nearest-rank sample's bucket,
/// interpolated by the sample's rank within the bucket.
class LogHistogram {
public:
    void add(double seconds);
    void merge(const LogHistogram& other);
    std::uint64_t count() const { return count_; }
    /// Nearest-rank \a p-th percentile in seconds; 0 when empty.
    double percentile(double p) const;

private:
    static constexpr int kSub    = 64;
    static constexpr int kMaxExp = 40;
    std::array<std::uint64_t, kSub * (kMaxExp - 5)> buckets_{};
    std::uint64_t count_ = 0;
};

} // namespace pb
