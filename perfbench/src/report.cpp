#include "report.hpp"

#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>
#include <unistd.h>

namespace pb {

namespace {

std::string number(double v) {
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

} // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Tally::check(bool ok, const std::string& why) {
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

void Tally::check(const std::vector<std::string>& found, const std::string& what) {
    std::string why = what;
    for (std::size_t i = 0; i < found.size(); ++i)
        why += (i ? "; " : ": ") + found[i];
    check(found.empty(), why);
}

void Tally::add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors)
        if (errors.size() < 8)
            errors.push_back(e);
}

std::string Report::to_json() const {
    std::string json = "{\"bench\": " + quoted("perfbench." + workload) + ", " +
                       calib::bench::meta_json() +
                       ", \"workload\": " + quoted(workload) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"traced\": " + (traced ? "true" : "false") +
                       ", \"nproc\": " + std::to_string(nproc()) +
                       ", \"threads\": " + std::to_string(threads) +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        json += (i ? ", " : "") + quoted(errors[i]);
    json += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
                number(m.value) + ", \"unit\": " + quoted(m.unit) +
                ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return json + "}}";
}

unsigned nproc() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

unsigned workers() { return std::max(1u, std::min(nproc(), 4u) - 1); }

double process_cpu_s() { return calib::bench::process_cpu_seconds(); }

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double now_s() { return static_cast<double>(calib::now_ns()) * 1e-9; }

} // namespace pb
