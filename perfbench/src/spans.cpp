#include "spans.hpp"

#include "runtime/clock.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace pb {

namespace {

/// Per-thread stack of open span handles (the parent of a new span).
thread_local std::vector<std::int64_t> t_open;

} // namespace

std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans) {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
        spans.size());
    for (const SpanRec& s : spans)
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                     s.end_ns);
    std::vector<std::uint64_t> out(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t lo = spans[i].start_ns;
        const std::uint64_t hi = std::max(spans[i].end_ns, lo);
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, cursor = lo;
        for (auto [b, e] : iv) {
            b = std::max(b, cursor);
            e = std::min(e, hi);
            if (e > b) {
                covered += e - b;
                cursor = e;
            }
        }
        out[i] = (hi - lo) - covered;
    }
    return out;
}

double coverage(const std::vector<SpanRec>& spans) {
    const std::vector<std::uint64_t> self = self_times(spans);
    // parents are opened, and so logged, before their children
    std::vector<std::size_t> root(spans.size());
    double layers = 0, wall = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        root[i] = p >= 0 && static_cast<std::size_t>(p) < i ? root[static_cast<std::size_t>(p)] : i;
        if (spans[root[i]].name.rfind("request.", 0) != 0)
            continue;
        if (root[i] == i)
            wall += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        else
            layers += static_cast<double>(self[i]);
    }
    return wall > 0 ? layers / wall : 0;
}

std::int64_t SpanLog::open(const char* name, std::uint64_t request) {
    if (!enabled_)
        return -1;
    const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
    std::int64_t handle;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        handle = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({name, calib::now_ns(), 0, parent, request});
    }
    t_open.push_back(handle);
    return handle;
}

void SpanLog::close(std::int64_t handle) {
    if (handle < 0)
        return;
    const std::uint64_t now = calib::now_ns();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(handle)].end_ns = now;
    }
    if (!t_open.empty() && t_open.back() == handle)
        t_open.pop_back();
}

std::vector<SpanRec> SpanLog::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool SpanLog::write_json(const std::string& path, const std::string& workload) const {
    const std::vector<SpanRec> all = spans();
    const std::vector<std::uint64_t> self = self_times(all);
    const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRec& s = all[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        os << (i ? ",\n " : "\n ") << "{\"span\": \"" << s.name
           << "\", \"layer\": \"" << layer << "\", \"request\": " << s.request
           << ", \"id\": " << i << ", \"parent\": " << s.parent
           << ", \"start_us\": " << static_cast<double>(s.start_ns - t0) * 1e-3
           << ", \"dur_us\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
           << ", \"self_us\": " << static_cast<double>(self[i]) * 1e-3
           << ", \"workload\": \"" << workload << "\"}";
    }
    os << "\n]\n";
    return static_cast<bool>(os);
}

} // namespace pb
