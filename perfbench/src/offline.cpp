// offline_paradis and offline_highcard: one client issues queries back to
// back (closed loop) through engine::ParallelQueryProcessor and
// QueryProcessor::result()/write(). A request is one full query, from
// CalQL parsing and morsel planning to formatted bytes.
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "engine/parallel_processor.hpp"
#include "io/calireader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "query/calql.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace pb {

using namespace calib;

namespace {

/// Set-up processes per timed run; with this process's own first answer
/// they give kSetupProcs + 1 set-up samples.
constexpr int kSetupProcs = 10;

/// Engine workers of every timed and set-up query. With one worker the
/// engine still runs the whole morsel/merge DAG (on a one-worker pool),
/// so parsing, probing, the phase-2 merge, sorting and formatting are in
/// every request; but a query waits on one vCPU instead of the slowest
/// of three. On a shared 4-vCPU host, three-worker queries slowed by up
/// to 2x while other guests were busy (their CPU per record moved 9%);
/// one-worker queries stayed within a few percent. The traced run
/// measures the parallel engine metrics at workers().
constexpr unsigned kWorkers = 1;

struct Answer {
    std::string bytes;
    std::vector<RecordMap> rows;
    engine::EngineStats stats;
    std::uint64_t records_in = 0, records_kept = 0;
    std::size_t groups = 0, group_bytes = 0;
};

struct Offline {
    std::string query;
    std::vector<std::string> files;
    std::uint64_t records_per_query = 0;
};

Answer query_once(const Offline& w, unsigned threads, SpanLog& spans,
                  std::uint64_t request, bool keep_rows) {
    Span req(spans, "request.query", request);
    Answer a;
    QuerySpec spec;
    {
        Span s(spans, "query.parse", request);
        spec = parse_calql(w.query);
    }
    engine::EngineOptions opts;
    opts.threads = threads;
    engine::ParallelQueryProcessor engine(std::move(spec), opts);
    QueryProcessor* proc = nullptr;
    {
        Span s(spans, "engine.run", request);
        proc = &engine.run(w.files);
    }
    if (const AggregationDB* db = proc->aggregation_db()) {
        a.groups      = db->size();
        a.group_bytes = db->bytes();
    }
    {
        Span s(spans, "query.result", request);
        const std::vector<RecordMap>& rows = proc->result();
        if (keep_rows)
            a.rows = rows;
    }
    std::ostringstream os;
    {
        Span s(spans, "query.format", request);
        proc->write(os);
    }
    a.bytes        = os.str();
    a.stats        = engine.stats();
    a.records_in   = proc->num_records_in();
    a.records_kept = proc->num_records_kept();
    return a;
}

void corrupt(Answer& a) {
    if (!a.rows.empty()) {
        RecordMap& row = a.rows.front();
        row.set("count", Variant(row.get("count").to_uint() + 1));
    }
}

/// 85 rows whose count column sums to every record generated.
std::vector<std::string> check_paradis(const Offline& w, const Answer& a) {
    std::vector<std::string> errors;
    if (a.rows.size() != kParadisGroups)
        errors.push_back("expected " + std::to_string(kParadisGroups) + " rows, got " +
                         std::to_string(a.rows.size()));
    std::uint64_t total = 0;
    for (const RecordMap& row : a.rows)
        total += row.get("count").to_uint();
    if (total != w.records_per_query)
        errors.push_back("count column sums to " + std::to_string(total) +
                         ", expected " + std::to_string(w.records_per_query));
    return errors;
}

std::string row_key(const RecordMap& r) {
    return r.get("callpath").to_string() + "|" + r.get("mpi.rank").to_string() +
           "|" + r.get("iteration#mainloop").to_string();
}

/// The fuzz oracle over the answer's groups (ground truth regenerated from
/// the seed, partitioned by exact key so each oracle_run sees one group),
/// plus the top-N order against the benchmark's own per-key sums.
std::vector<std::string> check_highcard(std::uint64_t seed, const Answer& a) {
    const QuerySpec spec = parse_calql(kHighcardQuery);
    std::map<std::string, std::vector<RecordMap>> wanted;
    for (const RecordMap& row : a.rows)
        wanted[row_key(row)];
    std::unordered_map<std::string, long long> sums;
    for (int f = 0; f < kHighcardFiles; ++f)
        highcard_records(seed, f, [&](RecordMap&& r) {
            std::string key = row_key(r);
            sums[key] += r.get("time.ns").to_int();
            if (auto it = wanted.find(key); it != wanted.end())
                it->second.push_back(std::move(r));
        });

    fuzz::OracleResult oracle;
    oracle.aggregated = true;
    for (const auto& [key, records] : wanted) {
        fuzz::OracleResult one = fuzz::oracle_run(spec, records);
        for (fuzz::OracleGroup& g : one.groups)
            oracle.groups.push_back(std::move(g));
    }
    std::vector<std::string> errors = fuzz::oracle_compare(spec, oracle, a.rows);

    std::vector<long long> top;
    top.reserve(sums.size());
    for (const auto& [key, sum] : sums)
        top.push_back(sum);
    std::sort(top.rbegin(), top.rend());
    if (a.rows.size() != std::min(kHighcardLimit, top.size()))
        errors.push_back("expected " + std::to_string(kHighcardLimit) + " rows, got " +
                         std::to_string(a.rows.size()));
    for (std::size_t i = 0; i < a.rows.size() && i < top.size(); ++i)
        if (a.rows[i].get("total_ns").to_int() != top[i]) {
            errors.push_back("row " + std::to_string(i) + " total_ns " +
                             a.rows[i].get("total_ns").to_string() + ", expected " +
                             std::to_string(top[i]));
            break;
        }
    return errors;
}

double timer_ns(const char* name) {
    const auto s = obs::MetricsRegistry::instance().find(name);
    return s ? static_cast<double>(s->total_ns) : 0.0;
}

double counter(const char* name) {
    return static_cast<double>(obs::MetricsRegistry::instance().value(name));
}

/// max / mean of per-worker busy time in the last query: each worker's
/// summed reader span durations (a reader span encloses its sink's
/// downstream work) from the obs trace timeline.
double busy_skew() {
    std::map<std::size_t, double> busy;
    for (const obs::TraceEvent& ev : obs::trace_events())
        if (std::string_view(ev.cat) == "span" &&
            ev.path.size() >= 4 && ev.path.compare(ev.path.size() - 4, 4, "read") == 0)
            busy[ev.tid] += static_cast<double>(ev.dur_ns);
    if (busy.empty())
        return 0;
    double max = 0, sum = 0;
    for (const auto& [tid, ns] : busy) {
        max = std::max(max, ns);
        sum += ns;
    }
    return max / (sum / static_cast<double>(busy.size()));
}

Offline make_offline(const RunOptions& o) {
    Offline w;
    w.files = offline_files(o.workload, o.input_dir);
    const bool paradis = o.workload == "offline_paradis";
    w.query = paradis ? kParadisQuery : kHighcardQuery;
    w.records_per_query =
        paradis ? std::uint64_t(kParadisFiles) * kParadisRecordsPerFile
                : std::uint64_t(kHighcardFiles) * kHighcardRecordsPerFile;
    return w;
}

} // namespace

SetupSample setup_offline(const RunOptions& o) {
    const Offline w = make_offline(o);
    SpanLog off(false);
    SetupSample sample;
    const double s0 = now_s();
    const Answer a  = query_once(w, kWorkers, off, 0, false);
    sample.setup_s  = now_s() - s0;
    sample.answer   = std::hash<std::string>{}(a.bytes);
    return sample;
}

Report run_offline(const RunOptions& o) {
    const Offline w    = make_offline(o);
    const bool paradis = o.workload == "offline_paradis";

    Report report;
    report.threads = kWorkers;
    SpanLog off(false);

    // set-up: this process's first answer is one sample; set-up processes
    // started between requests, spread over the timed phase, give the
    // others, so the median sees the same machine as the requests do
    Timed t;
    const double s0 = now_s();
    Answer first    = query_once(w, report.threads, off, 0, true);
    t.setup_s.push_back(now_s() - s0);
    const std::uint64_t first_hash = std::hash<std::string>{}(first.bytes);
    const double setup_every       = o.seconds / kSetupProcs;

    // the first answer is checked in full; every later one must repeat it
    // byte for byte
    auto check_first = [&](Answer a) {
        if (o.inject_fault)
            corrupt(a);
        report.check(paradis ? check_paradis(w, a) : check_highcard(o.seed, a),
                     o.workload + " first answer");
    };
    auto check_repeat = [&](const Answer& a) {
        report.check(a.bytes == first.bytes,
                     o.workload + ": answer differs from the first answer");
    };

    if (!o.trace) {
        // o.seconds of requests: the clock stops while a set-up process
        // runs and during the untimed request after it, which warms the
        // caches the set-up process took over
        double end        = now_s() + o.seconds;
        double next_setup = now_s() + setup_every / 2;
        for (std::uint64_t request = 1; now_s() < end; ++request) {
            if (now_s() >= next_setup) {
                const double p0     = now_s();
                const SetupSample s = spawn_setup(o);
                report.add(s.tally);
                if (s.tally.failed == 0) {
                    t.setup_s.push_back(s.setup_s);
                    report.check(s.answer == first_hash,
                                 o.workload + ": set-up answer differs from the first answer");
                }
                check_repeat(query_once(w, report.threads, off, request, false));
                end += now_s() - p0;
                next_setup += setup_every + (now_s() - p0);
                continue;
            }
            const double c0 = process_cpu_s(), q0 = now_s();
            const Answer a  = query_once(w, report.threads, off, request, false);
            const double dt = now_s() - q0;
            const auto records = static_cast<double>(a.records_in);
            t.latency.add(dt);
            t.rate.push_back(records / dt);
            t.cpu_ns.push_back((process_cpu_s() - c0) * 1e9 / records);
            check_repeat(a);
        }
        t.peak_rss_mb = peak_rss_mb();
        check_first(std::move(first));
        add_end_to_end(report, t);
        return report;
    }

    // traced run: alternate untraced and traced requests (so drift hits
    // both alike); spans and obs instruments are on for the traced ones
    SpanLog spans(true);
    obs::MetricsRegistry::instance().reset();
    obs::trace_reset();
    double wall[2] = {0, 0}, cpu[2] = {0, 0};
    std::uint64_t records[2] = {0, 0}, traced = 0;
    double merge_ns = 0, groups = 0, group_bytes = 0, in = 0, kept = 0;
    engine::EngineStats last{};
    const double end = now_s() + o.seconds;
    for (std::uint64_t request = 1; now_s() < end; ++request) {
        const int on = static_cast<int>(request % 2);
        obs::set_enabled(on);
        obs::set_trace_enabled(on);
        if (on)
            obs::trace_reset();
        const double c0 = process_cpu_s(), q0 = now_s();
        const Answer a  = query_once(w, report.threads, on ? spans : off, request, false);
        wall[on] += now_s() - q0;
        cpu[on] += process_cpu_s() - c0;
        records[on] += a.records_in;
        check_repeat(a);
        if (on) {
            ++traced;
            merge_ns += static_cast<double>(a.stats.merge_ns);
            groups += static_cast<double>(a.groups);
            group_bytes += static_cast<double>(a.group_bytes);
            in += static_cast<double>(a.records_in);
            kept += static_cast<double>(a.records_kept);
            last = a.stats;
        }
    }
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    const double n  = static_cast<double>(std::max<std::uint64_t>(traced, 1));
    const auto nt   = traced;
    const double rec = std::max(counter("reader.records"), 1.0);

    report.add("io.parse_ns_per_record", timer_ns("phase.read") / rec, "ns", nt);
    report.add("io.bytes_per_record", counter("reader.bytes") / rec, "B", nt);
    report.add("query.let_where_ns_per_record",
               (timer_ns("phase.let") + timer_ns("phase.filter")) / std::max(in, 1.0),
               "ns", nt);
    report.add("query.selectivity", in > 0 ? kept / in : 0, "ratio", nt);
    report.add("aggregate.process_ns_per_record",
               timer_ns("phase.aggregate") / std::max(kept, 1.0), "ns", nt);
    report.add("aggregate.probe_steps_per_lookup",
               counter("aggdb.probe_steps") / std::max(counter("aggdb.lookups"), 1.0),
               "ratio", nt);
    report.add("aggregate.groups", groups / n, "count", nt);
    report.add("aggregate.bytes_per_group", groups > 0 ? group_bytes / groups : 0, "B",
               nt);
    report.add("engine.merge_ms", merge_ns / n * 1e-6, "ms", nt);
    report.add("engine.merge_partitions", static_cast<double>(last.merge_partitions),
               "count", nt);
    report.add("engine.morsels", static_cast<double>(last.morsels), "count", nt);
    report.add("engine.early_flushes", static_cast<double>(last.early_flushes), "count",
               nt);

    // the parallel engine at workers(), which the workload's one-worker
    // requests do not show: per-worker busy skew and queue wait from traced
    // queries (with fresh instruments), CPU per record against the
    // workload's untraced requests from untraced ones
    constexpr int kParallelReps = 4;
    const unsigned parallel     = workers();
    double skew = 0, cpu_par = 0;
    std::uint64_t records_par = 0;
    obs::MetricsRegistry::instance().reset();
    for (int rep = 0; rep < kParallelReps; ++rep) {
        obs::set_enabled(true);
        obs::set_trace_enabled(true);
        obs::trace_reset();
        check_repeat(query_once(w, parallel, off, 0, false));
        skew += busy_skew();
        obs::set_enabled(false);
        obs::set_trace_enabled(false);
        const double c0 = process_cpu_s();
        const Answer a  = query_once(w, parallel, off, 0, false);
        cpu_par += process_cpu_s() - c0;
        records_par += a.records_in;
        check_repeat(a);
    }
    const double cpu_one = records[0] ? cpu[0] / static_cast<double>(records[0]) : 0;
    report.add("engine.busy_skew", skew / kParallelReps, "ratio", kParallelReps);
    report.add("engine.queue_wait_ms", timer_ns("pool.queue_wait") / kParallelReps * 1e-6,
               "ms", kParallelReps);
    report.add("engine.cpu_inflation",
               records_par && cpu_one > 0
                   ? cpu_par / static_cast<double>(records_par) / cpu_one
                   : 0,
               "ratio", kParallelReps);

    // io planning: CaliFileSource construction (mmap + planning scan)
    std::vector<double> plan;
    for (int rep = 0; rep < 3; ++rep) {
        const double p0 = now_s();
        std::uint64_t planned = 0;
        for (const std::string& f : w.files)
            planned += CaliFileSource(f, std::size_t(4) << 20).num_records();
        plan.push_back(now_s() - p0);
        report.check(planned == w.records_per_query,
                     "planning scan counted " + std::to_string(planned) + " records");
    }
    check_first(std::move(first));

    const std::vector<SpanRec> all = spans.spans();
    auto span_avg = [&](const char* name) {
        double total = 0, count = 0;
        for (std::size_t i = 0; i < all.size(); ++i)
            if (all[i].name == name) {
                total += static_cast<double>(all[i].end_ns - all[i].start_ns);
                ++count;
            }
        return count > 0 ? total / count : 0.0;
    };
    const double rps0 = wall[0] > 0 ? static_cast<double>(records[0]) / wall[0] : 0;
    const double rps1 = wall[1] > 0 ? static_cast<double>(records[1]) / wall[1] : 0;

    report.add("io.plan_ms", median(plan) * 1e3, "ms", plan.size());
    report.add("query.parse_us", span_avg("query.parse") * 1e-3, "us", nt);
    report.add("query.result_ms", span_avg("query.result") * 1e-6, "ms", nt);
    report.add("query.format_ms", span_avg("query.format") * 1e-6, "ms", nt);
    report.add("trace.overhead_pct", rps0 > 0 ? (rps0 - rps1) / rps0 * 100.0 : 0, "%",
               nt);
    report.add("trace.coverage", coverage(all), "ratio", nt);
    if (!o.out_dir.empty())
        report.check(spans.write_json(o.out_dir + "/spans-" + o.workload + ".json", o.workload),
                     "cannot write the span file");
    return report;
}

} // namespace pb
