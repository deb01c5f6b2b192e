#include "history.hpp"

#include "../io/caliwriter.hpp"
#include "../io/filebuffer.hpp"
#include "../io/jsonreader.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

// Build-time fallback commit id (set by CMake from `git rev-parse`); the
// CALIB_GIT_SHA environment variable overrides it at run time.
#ifndef CALIB_GIT_SHA
#define CALIB_GIT_SHA ""
#endif

namespace calib::benchdiff {

// ------------------------------------------------------------------ RunMeta

RunMeta RunMeta::detect() {
    RunMeta meta;
    if (const char* env = std::getenv("CALIB_GIT_SHA"); env && *env)
        meta.commit = env;
    else if (*CALIB_GIT_SHA)
        meta.commit = CALIB_GIT_SHA;

    const std::time_t now = std::time(nullptr);
    meta.time_s           = static_cast<std::uint64_t>(now);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    meta.timestamp = buf;

    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) == 0 && host[0])
        meta.host = host;

    meta.hardware_concurrency = std::thread::hardware_concurrency();

    if (const char* env = std::getenv("CALIB_BUILD_TAG"); env && *env)
        meta.build = env;
    return meta;
}

void RunMeta::fill_from(const RunMeta& other) {
    if (commit.empty())
        commit = other.commit;
    if (timestamp.empty())
        timestamp = other.timestamp;
    if (time_s == 0)
        time_s = other.time_s;
    if (host.empty())
        host = other.host;
    if (hardware_concurrency == 0)
        hardware_concurrency = other.hardware_concurrency;
    if (build.empty())
        build = other.build;
}

// ------------------------------------------------------------ classification

Direction classify_metric(std::string_view m) {
    // histogram-derived samples carry a statistic suffix; classify by the
    // instrument name underneath
    if (m.ends_with(".mean") || m.ends_with(".p50") || m.ends_with(".p90") ||
        m.ends_with(".p99") || m.ends_with(".max"))
        m.remove_suffix(m.size() - m.rfind('.'));

    if (m.ends_with("_per_sec") || m.ends_with("_speedup") ||
        m.ends_with(".speedup") || m == "speedup")
        return Direction::HigherBetter;

    if (m.ends_with("_s") || m.ends_with("_ns") || m.ends_with("_us") ||
        m.ends_with("_ms") || m.ends_with("_seconds") ||
        m.find("ns_per_") != std::string_view::npos ||
        m.ends_with("overhead_pct"))
        return Direction::LowerBetter;

    return Direction::Untracked;
}

// ------------------------------------------------------- bench-JSON flatten

namespace {

std::string number_text(double v) {
    if (v == static_cast<double>(static_cast<long long>(v)))
        return std::to_string(static_cast<long long>(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/// Pick the member of an array-element object that names it ("path":
/// "mmap" -> "mmap", "threads": 4 -> "threads4"). Returns "" when nothing
/// qualifies; *used_key receives the member to exclude from flattening.
std::string element_label(const JsonValue& obj, std::string* used_key) {
    static constexpr const char* preferred[] = {"path", "mode",    "name",
                                                "key",  "threads", "clients"};
    for (const char* d : preferred) {
        if (const JsonValue* v = obj.find(d)) {
            *used_key = d;
            if (v->is_string())
                return v->string;
            if (v->is_number())
                return std::string(d) + number_text(v->number);
        }
    }
    for (const auto& [k, v] : obj.object) {
        if (v.is_string()) {
            *used_key = k;
            return v.string;
        }
    }
    used_key->clear();
    return "";
}

void flatten(const JsonValue& v, const std::string& path,
             const std::string& bench, std::vector<MetricSample>& out) {
    switch (v.type) {
    case JsonValue::Type::Number:
        if (!path.empty())
            out.push_back({bench, path, v.number});
        break;
    case JsonValue::Type::Object:
        for (const auto& [k, child] : v.object)
            flatten(child, path.empty() ? k : path + "." + k, bench, out);
        break;
    case JsonValue::Type::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            const JsonValue& elem = v.array[i];
            if (elem.is_object()) {
                std::string used;
                std::string label = element_label(elem, &used);
                if (label.empty())
                    label = std::to_string(i);
                const std::string base =
                    path.empty() ? label : path + "." + label;
                for (const auto& [k, child] : elem.object)
                    if (k != used)
                        flatten(child, base + "." + k, bench, out);
            } else {
                flatten(elem, path + "." + std::to_string(i), bench, out);
            }
        }
        break;
    default:
        break; // strings, bools, null carry no measurement
    }
}

void meta_from_object(const JsonValue& obj, RunMeta& meta) {
    RunMeta m;
    if (const JsonValue* v = obj.find("commit"); v && v->is_string())
        m.commit = v->string;
    if (const JsonValue* v = obj.find("timestamp"); v && v->is_string())
        m.timestamp = v->string;
    if (const JsonValue* v = obj.find("host"); v && v->is_string())
        m.host = v->string;
    if (const JsonValue* v = obj.find("hardware_concurrency"); v && v->is_number())
        m.hardware_concurrency = static_cast<std::uint64_t>(v->number);
    if (const JsonValue* v = obj.find("build"); v && v->is_string())
        m.build = v->string;
    meta.fill_from(m);
}

std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    if (const std::size_t dot = stem.rfind('.'); dot != std::string::npos)
        stem.resize(dot);
    if (stem.rfind("BENCH_", 0) == 0)
        stem.erase(0, 6);
    return stem;
}

} // namespace

std::vector<MetricSample> normalize_bench_json(const JsonValue& doc,
                                               const std::string& fallback_bench,
                                               RunMeta& meta) {
    if (!doc.is_object())
        throw std::runtime_error("bench JSON: expected a top-level object");

    std::string bench = fallback_bench;
    if (const JsonValue* b = doc.find("bench"); b && b->is_string())
        bench = b->string;
    if (bench.empty())
        bench = "bench";

    if (const JsonValue* m = doc.find("meta"); m && m->is_object())
        meta_from_object(*m, meta);

    std::vector<MetricSample> out;
    for (const auto& [k, child] : doc.object) {
        // run metadata and workload identity are stamps, not measurements
        if (k == "meta" || k == "bench" || k == "hardware_concurrency")
            continue;
        flatten(child, k, bench, out);
    }
    return out;
}

std::vector<MetricSample> normalize_stats_json(const std::vector<RecordMap>& records,
                                               const std::string& bench,
                                               RunMeta& meta) {
    std::vector<MetricSample> out;
    for (const RecordMap& r : records) {
        const Variant* kind = r.find("kind");
        const Variant* name = r.find("name");
        if (!kind || !kind->is_string())
            continue;
        const std::string_view k = kind->as_string();
        if (k == "meta") {
            RunMeta m;
            if (const Variant* v = r.find("commit"); v && v->is_string())
                m.commit = v->to_string();
            if (const Variant* v = r.find("timestamp"); v && v->is_string())
                m.timestamp = v->to_string();
            if (const Variant* v = r.find("host"); v && v->is_string())
                m.host = v->to_string();
            if (const Variant* v = r.find("hardware_concurrency"))
                m.hardware_concurrency = v->to_uint();
            meta.fill_from(m);
            continue;
        }
        if (!name || !name->is_string())
            continue;
        const std::string n(name->as_string());
        if (k == "phase") {
            out.push_back({bench, "phase." + n + ".total_s",
                           r.get("total_s").to_double()});
        } else if (k == "timer") {
            // phase.* timers are already merged into the phase rows
            if (n.rfind("phase.", 0) == 0)
                continue;
            out.push_back({bench, n + ".total_s", r.get("total_s").to_double()});
        } else if (k == "counter") {
            out.push_back({bench, n, r.get("value").to_double()});
        } else if (k == "histogram") {
            out.push_back({bench, n + ".mean", r.get("mean").to_double()});
            out.push_back({bench, n + ".p99", r.get("p99").to_double()});
        }
        // gauges are instantaneous levels — meaningless across runs
    }
    return out;
}

std::vector<MetricSample> normalize_file(const std::string& path,
                                         const std::string& bench_hint,
                                         RunMeta& meta) {
    const FileBuffer buf = FileBuffer::open(path);
    try {
        // the documents are small: an array is parsed again as records
        const JsonValue doc = parse_json(buf.view());
        if (doc.is_array()) {
            const std::string bench =
                !bench_hint.empty() ? bench_hint : "stats:" + file_stem(path);
            return normalize_stats_json(read_json_records(buf.view()), bench, meta);
        }
        return normalize_bench_json(doc,
                                    !bench_hint.empty() ? bench_hint
                                                        : file_stem(path),
                                    meta);
    } catch (const std::exception& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

// ------------------------------------------------------------------- append

void append_history(const std::string& path,
                    const std::vector<MetricSample>& samples,
                    const RunMeta& meta, std::uint64_t seq) {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    if (!os)
        throw std::runtime_error("cannot open history file " + path);

    const std::string commit = meta.commit.empty() ? "unknown" : meta.commit;
    CaliWriter writer(os);
    RecordMap rec;
    for (const MetricSample& s : samples) {
        rec.clear();
        rec.append(attr::bench, Variant(std::string_view(s.bench)));
        rec.append(attr::metric, Variant(std::string_view(s.metric)));
        rec.append(attr::value, Variant(s.value));
        rec.append(attr::commit, Variant(std::string_view(commit)));
        if (!meta.timestamp.empty())
            rec.append(attr::timestamp, Variant(std::string_view(meta.timestamp)));
        rec.append(attr::time_s, Variant(meta.time_s));
        if (!meta.host.empty())
            rec.append(attr::host, Variant(std::string_view(meta.host)));
        rec.append(attr::hw, Variant(meta.hardware_concurrency));
        if (!meta.build.empty())
            rec.append(attr::build, Variant(std::string_view(meta.build)));
        rec.append(attr::seq, Variant(seq));
        writer.write_record(rec);
    }
}

} // namespace calib::benchdiff
