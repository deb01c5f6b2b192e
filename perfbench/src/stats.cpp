#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace pb {

std::size_t samples_beyond(std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return rank >= n ? 0 : n - rank;
}

double highest_supported_percentile(std::size_t n) {
    for (double p : {99.9, 99.0, 90.0, 50.0})
        if (samples_beyond(n, p) >= 10)
            return p;
    return 0;
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return samples[rank - 1];
}

double median(std::vector<double> samples) {
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

} // namespace pb

namespace pb {

namespace {

constexpr int kSubBits = 6; // 64 buckets per power of two

} // namespace

void LogHistogram::add(double seconds) {
    const double ns = std::clamp(seconds * 1e9, 0.0, std::ldexp(1.0, kMaxExp) - 1);
    const auto v    = static_cast<std::uint64_t>(ns);
    std::size_t idx = static_cast<std::size_t>(v);
    if (v >= kSub) {
        const int e = 63 - __builtin_clzll(v);
        idx = static_cast<std::size_t>(kSub + (e - kSubBits) * kSub) +
              static_cast<std::size_t>((v >> (e - kSubBits)) - kSub);
    }
    ++buckets_[idx];
    ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double LogHistogram::percentile(double p) const {
    if (count_ == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_) - 1e-9));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t c = buckets_[i];
        if (before + c < rank) {
            before += c;
            continue;
        }
        double lower = static_cast<double>(i), width = 1;
        if (i >= kSub) {
            const std::size_t k = i - kSub;
            const int shift     = static_cast<int>(k / kSub);
            lower = std::ldexp(static_cast<double>(kSub + k % kSub), shift);
            width = std::ldexp(1.0, shift);
        }
        // the bucket's c samples taken as evenly spread over its width
        const double within = (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
        return (lower + width * within) * 1e-9;
    }
    return 0;
}

} // namespace pb
