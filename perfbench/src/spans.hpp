// Benchmark-side spans: one per public call into a layer, recorded from
// the benchmark's own code around the call (nothing inside src/ changes).
//
// A span has a name ("<layer>.<call>"), start and end, the span that
// caused it (the innermost span open on the same thread), and the request
// id it serves. Spans stay in memory and are written once, at exit, as a
// flat JSON record array that `cali-query --json-input` can query:
//
//   [{"span": "engine.run", "layer": "engine", "request": 3, "id": 7,
//     "parent": 6, "start_us": 1.5, "dur_us": 900.25, "self_us": 900.25,
//     "workload": "offline_paradis"}, ...]
//
// Self time is a span's duration minus the part of its interval that its
// child spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct SpanRec {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns   = 0;
    std::int64_t parent    = -1; ///< index into the log; -1 = root
    std::uint64_t request  = 0;
};

/// Self time of every span (same order as \a spans): its duration minus
/// the union of its children's intervals clipped to its own.
std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans);

/// Share of request wall time that layer spans account for: summed self
/// time of the spans under "request.*" roots over the roots' summed
/// duration. Layer calls outside any request (a backlog or burst push) are
/// left out of both. 0 when there is no request.
double coverage(const std::vector<SpanRec>& spans);

class SpanLog {
public:
    /// Disabled logs record nothing (the untraced runs).
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /// Open a span on the calling thread; its parent is the innermost span
    /// the thread has open. Returns a handle for close() (-1 if disabled).
    std::int64_t open(const char* name, std::uint64_t request);
    void close(std::int64_t handle);

    std::vector<SpanRec> spans() const;

    /// Write the JSON record array to \a path. False on I/O failure.
    bool write_json(const std::string& path, const std::string& workload) const;

private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<SpanRec> spans_; // guarded by mutex_
};

/// RAII span.
class Span {
public:
    Span(SpanLog& log, const char* name, std::uint64_t request)
        : log_(log), handle_(log.open(name, request)) {}
    ~Span() { log_.close(handle_); }
    Span(const Span&)            = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog& log_;
    std::int64_t handle_;
};

} // namespace pb
