#include "merge_strategy.hpp"

namespace calib::engine {

namespace {

/// \a n with thousands separators: 65536 -> "65,536".
std::string grouped(std::size_t n) {
    const std::string digits = std::to_string(n);
    std::string out;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (digits.size() - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

} // namespace

const char* merge_strategy_name(MergeStrategy s) noexcept {
    switch (s) {
    case MergeStrategy::Pairwise: return "pairwise";
    case MergeStrategy::Radix:    return "radix";
    case MergeStrategy::Adaptive: break;
    }
    return "adaptive";
}

int merge_strategy_code(MergeStrategy s) noexcept {
    switch (s) {
    case MergeStrategy::Pairwise: return 1;
    case MergeStrategy::Radix:    return 3;
    case MergeStrategy::Adaptive: break;
    }
    return 0;
}

MergeStrategy select_merge_strategy(const MergeObservation& obs) noexcept {
    if (obs.has_aggregation && obs.total_entries >= radix_min_entries)
        return MergeStrategy::Radix;
    return MergeStrategy::Pairwise;
}

std::string merge_strategy_reason(const MergeObservation& obs) {
    if (!obs.has_aggregation)
        return "passthrough or windowed query";
    return grouped(obs.total_entries) + " partial entries " +
           (obs.total_entries < radix_min_entries ? "< " : ">= ") +
           grouped(radix_min_entries);
}

} // namespace calib::engine
