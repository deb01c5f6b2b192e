// perfbench selftest: the statistics and span math on known inputs, and
// the seed contract of every input generator.
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include "io/jsonreader.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace pb {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
    expect(samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
    expect(highest_supported_percentile(100) == 90, "100 samples support p90");
    expect(highest_supported_percentile(99) == 50, "99 samples support only p50");
    expect(highest_supported_percentile(999) == 90, "999 samples support p90, not p99");
    expect(highest_supported_percentile(1000) == 99, "1000 samples support p99");
    expect(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");
    expect(highest_supported_percentile(20) == 50, "20 samples support p50");
    expect(highest_supported_percentile(19) == 0, "19 samples support no percentile");
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(near(percentile(v, 50), 50) && near(percentile(v, 90), 90) &&
               near(percentile(v, 100), 100),
           "nearest-rank percentiles of 1..100");
    expect(near(percentile({7}, 90), 7), "percentile of one sample");
    expect(near(median({4, 1, 3, 2}), 2.5) && near(median({3, 1, 2}), 2),
           "median of even and odd counts");
}

void test_histogram() {
    // 1..100 us: each percentile within one bucket (1.6%) of the exact one
    LogHistogram h, lo, hi;
    for (int i = 1; i <= 100; ++i) {
        h.add(i * 1e-6);
        (i <= 50 ? lo : hi).add(i * 1e-6);
    }
    const auto within = [](double got, double want) {
        return std::fabs(got - want) <= 0.016 * want;
    };
    expect(h.count() == 100 && within(h.percentile(50), 50e-6) &&
               within(h.percentile(90), 90e-6) && within(h.percentile(100), 100e-6),
           "histogram percentiles of 1..100 us within a bucket");
    lo.merge(hi);
    expect(lo.count() == 100 && lo.percentile(50) == h.percentile(50) &&
               lo.percentile(90) == h.percentile(90),
           "merged halves equal the whole");
    // below 64 ns every nanosecond has its own bucket
    LogHistogram small;
    for (int i = 0; i < 10; ++i)
        small.add(7e-9);
    expect(near(small.percentile(50) * 1e9, 7.45) && near(small.percentile(90) * 1e9, 7.85),
           "exact buckets below 64 ns, interpolated by rank");
    // a constant value spreads over its bucket only
    LogHistogram flat;
    for (int i = 0; i < 1000; ++i)
        flat.add(35e-6);
    expect(within(flat.percentile(50), 35e-6) && flat.percentile(50) < flat.percentile(90),
           "constant samples stay within their bucket");
    expect(LogHistogram{}.percentile(50) == 0, "empty histogram reads 0");
    LogHistogram huge;
    huge.add(1e6);
    expect(huge.count() == 1 && huge.percentile(50) > 1000, "out-of-range sample clamps");
}

void test_spans() {
    // request [0,100] with A [10,50] (A1 [20,30] inside) and B [60,90];
    // request [200,300] with overlapping children C1 [200,240], C2 [230,260]
    const std::vector<SpanRec> spans = {
        {"request.q", 0, 100, -1, 1},  {"engine.run", 10, 50, 0, 1},
        {"io.read", 20, 30, 1, 1},     {"query.format", 60, 90, 0, 1},
        {"request.q", 200, 300, -1, 2}, {"engine.run", 200, 240, 4, 2},
        {"engine.run", 230, 260, 4, 2}, {"net.push", 400, 500, -1, 0},
        {"net.flush", 450, 460, 7, 0},
    };
    const std::vector<std::uint64_t> self = self_times(spans);
    expect(self == std::vector<std::uint64_t>{30, 30, 10, 30, 40, 40, 30, 90, 10},
           "self time = duration minus the union of children");
    // layers: 30+10+30 of 100, then 40+30 (the overlap counts twice) of
    // 100; the push outside any request counts in neither
    expect(near(coverage(spans), (70.0 + 70.0) / 200.0), "coverage of two requests");
    expect(near(coverage({}), 0), "coverage without requests");
}

void test_span_file(const std::string& dir) {
    SpanLog log(true);
    {
        Span root(log, "request.q", 7);
        Span child(log, "engine.run", 7);
    }
    const std::string path = dir + "/spans-selftest.json";
    expect(log.write_json(path, "selftest"), "span file written");
    std::ifstream is(path);
    const std::vector<calib::RecordMap> rows = calib::read_json_records(is);
    expect(rows.size() == 2 && rows[1].get("span").to_string() == "engine.run" &&
               rows[1].get("parent").to_int() == 0 && rows[0].get("request").to_int() == 7,
           "span file reads back as a JSON record array");
}

void test_seeds(const std::string& dir) {
    for (const char* w : {"offline_paradis", "offline_highcard", "live_exact", "runtime_event"}) {
        const std::string base = dir + "/seed-" + w;
        const InputSummary a = summarize(w, base, 11);
        const InputSummary b = summarize(w, base, 11);
        const InputSummary c = summarize(w, base, 12);
        const double margin =
            std::fabs(static_cast<double>(a.groups) - static_cast<double>(c.groups)) /
            static_cast<double>(std::max<std::size_t>(a.groups, 1));
        expect(a.digest == b.digest, std::string(w) + ": same seed, identical bytes");
        expect(a.digest != c.digest, std::string(w) + ": other seed, other bytes");
        expect(a.files == c.files && a.records == c.records && a.groups > 0 &&
                   margin <= 0.05,
               std::string(w) + ": other seed, same shape (" + std::to_string(a.files) +
                   " files, " + std::to_string(a.records) + " records, " +
                   std::to_string(a.groups) + " vs " + std::to_string(c.groups) +
                   " groups)");
    }
}

} // namespace

int selftest(const std::string& dir) {
    std::filesystem::create_directories(dir);
    test_percentiles();
    test_histogram();
    test_spans();
    test_span_file(dir);
    test_seeds(dir);
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed", g_failures);
    return g_failures ? 1 : 0;
}

} // namespace pb
