// live_exact: an in-process calib-proxyd in the default exact mode with one
// channel. Two pusher connections stream a sampler-shaped record mix open
// loop at a fixed total rate; every kProbeEvery-th batch a pusher sends a
// dashboard query on its own connection (the query ack is a fold barrier,
// so its own row must count exactly what it has sent). The main thread
// scrapes /metrics at a fixed low rate. A push-only burst ends every
// daemon lifetime; a run is kSessions timed lifetimes, with set-up
// processes between them. Threads: daemon loop, two pushers, main.
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "proxyd/daemon.hpp"
#include "query/calql.hpp"
#include "query/processor.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace pb {

using namespace calib;

namespace {

constexpr std::size_t kBatch        = 16;      ///< records per pushed batch
constexpr double kRate              = 1000;    ///< records/s, both pushers
constexpr std::uint64_t kProbeEvery = 8;       ///< batches per probe
/// Records each pusher streams push-only before its open loop starts: the
/// channel's history. It keeps the answer cost (which grows with records
/// ingested) within a narrow band over the run, so latency percentiles
/// sample the whole run instead of one moment of a ramp.
constexpr std::size_t kBacklog      = 40000;
constexpr double kOpenDelay         = 0.25;    ///< s from start to the open loop
/// Records in the push-only burst that ends every daemon lifetime (set-up
/// ones too); records_per_sec is the median burst rate. Pusher 0 sends it
/// alone, so a burst keeps two threads busy (the loop and one pusher)
/// rather than three: on a shared host, every vCPU the benchmark keeps
/// busy at once is one more that another guest can take away.
constexpr std::size_t kBurst        = 1000000;
constexpr double kScrapeEvery       = 1.0;     ///< s between /metrics scrapes
/// A probe answered later than this after its batch was due has failed.
constexpr double kLatencyLimit      = 0.5;
/// Timed daemon lifetimes per run, each an equal share of the run's
/// seconds; the run's probes are those of all of them.
constexpr int kSessions             = 3;
/// Set-up processes (daemon lifetimes), kSetupProcs / kSessions before
/// each timed lifetime: set-up and burst samples vary by up to a fifth
/// each on a busy host, so their medians need many, spread over the run.
constexpr int kSetupProcs           = 12;

constexpr const char* kProbe =
    "AGGREGATE count,sum(sample.weight) GROUP BY pusher ORDER BY pusher FORMAT csv";

struct Pusher {
    // inputs
    const LiveMix* mix = nullptr;
    int id             = 0;
    // results
    std::vector<double> latency_s, lag_s;
    std::uint64_t sent = 0, burst_sent = 0;
    long long weight   = 0;
    double burst_start = 0, push_s = 0;
    double first_answer = 0; ///< set-up: when the probe was answered
    bool passed_gate    = false;
    std::uint64_t bytes = 0, probes = 0;
    Tally tally; ///< one check per probe
};

struct Session {
    std::string address;      ///< the daemon's unix socket
    double seconds   = 0;     ///< open-loop phase; 0 = set-up (one probe)
    bool inject_fault = false;
    SpanLog* spans   = nullptr;
    std::barrier<>* burst_gate = nullptr;
    // results
    double setup_s = 0, burst_s = 0, cpu_s = 0;
    std::uint64_t records = 0, burst_records = 0, folded = 0;
    std::vector<std::uint64_t> sent_by_pusher;
    // the stopped daemon, for the traced run's layer measurements
    std::unique_ptr<proxyd::ProxyDaemon> daemon;
};

/// A unix socket in the output directory: a relative path stays within
/// sun_path's length limit wherever the checkout lives.
std::string socket_path(const RunOptions& o) {
    return (o.out_dir.empty() ? std::string(".") : o.out_dir) + "/live-" +
           std::to_string(getpid()) + ".sock";
}

/// Column of \a name in a CSV header line.
int column(const std::string& header, const std::string& name) {
    std::istringstream is(header);
    std::string cell;
    for (int i = 0; std::getline(is, cell, ','); ++i)
        if (cell == name)
            return i;
    return -1;
}

/// The pusher's own row of a probe answer must count exactly what it has
/// sent: records and summed sample weights.
std::string check_probe(const std::string& answer, int pusher, std::uint64_t sent,
                        long long weight) {
    std::istringstream is(answer);
    std::string header, line;
    std::getline(is, header);
    const int cp = column(header, "pusher"), cc = column(header, "count"),
              cw = column(header, "sum#sample.weight");
    if (cp < 0 || cc < 0 || cw < 0)
        return "probe answer lacks columns: " + header;
    int matches = 0;
    std::string error;
    while (std::getline(is, line)) {
        std::vector<std::string> cells;
        std::istringstream ls(line);
        for (std::string c; std::getline(ls, c, ',');)
            cells.push_back(c);
        const auto at = [&](int i) { return cells[static_cast<std::size_t>(i)]; };
        if (cells.size() <= static_cast<std::size_t>(std::max({cp, cc, cw})) ||
            at(cp) != std::to_string(pusher))
            continue;
        ++matches;
        if (at(cc) != std::to_string(sent) || at(cw) != std::to_string(weight))
            error = "pusher " + std::to_string(pusher) + " row reads count " + at(cc) +
                    ", sum " + at(cw) + "; sent " + std::to_string(sent) + ", sum " +
                    std::to_string(weight);
    }
    if (matches != 1)
        return std::to_string(matches) + " rows for pusher " + std::to_string(pusher);
    return error;
}

void push_records(net::ProxyClient& client, Pusher& p, std::size_t n) {
    const LiveMix& mix = *p.mix;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t t = mix.sequence[p.sent % mix.sequence.size()];
        client.push(mix.registry, mix.templates[t]);
        p.weight += mix.weights[t];
        ++p.sent;
    }
    client.flush();
}

/// Send the dashboard probe on the pusher's connection; a refusal goes to
/// \a errors.
std::string send_probe(net::ProxyClient& client, SpanLog& spans, std::uint64_t request,
                       std::vector<std::string>& errors) {
    try {
        Span span(spans, "net.query", request);
        return client.query(kProbe);
    } catch (const std::exception& e) {
        errors.push_back(std::string("refused: ") + e.what());
        return {};
    }
}

/// The timed open loop: a batch every interval, a probe every
/// kProbeEvery-th batch, each probe one checked operation.
void open_loop(net::ProxyClient& client, const Session& s, double t0, Pusher& p) {
    SpanLog& spans        = *s.spans;
    const double end      = t0 + kOpenDelay + s.seconds;
    const double interval = static_cast<double>(kBatch) / (kRate / kPushers);
    // pushers are staggered so their probes do not arrive together
    const double start = t0 + kOpenDelay +
                         p.id * interval * static_cast<double>(kProbeEvery) / kPushers;

    for (std::uint64_t i = 0;; ++i) {
        const double due = start + static_cast<double>(i) * interval;
        if (due >= end)
            break;
        if (due > now_s())
            std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
        const std::uint64_t request = (static_cast<std::uint64_t>(p.id) << 32) |
                                      (i / kProbeEvery);
        const bool probe = i % kProbeEvery == kProbeEvery - 1;
        std::int64_t root = probe ? spans.open("request.probe", request) : -1;
        p.lag_s.push_back(now_s() - due);
        {
            Span span(spans, "net.push", request);
            const double p0 = now_s();
            push_records(client, p, kBatch);
            p.push_s += now_s() - p0;
        }
        if (!probe)
            continue;
        ++p.probes;
        std::vector<std::string> errors;
        std::string answer   = send_probe(client, spans, request, errors);
        const double latency = now_s() - due;
        spans.close(root);
        p.latency_s.push_back(latency);
        if (s.inject_fault && p.probes == 1 && p.id == 0)
            answer += "0,1,1\n"; // a duplicated pusher-0 row
        if (errors.empty())
            if (std::string e = check_probe(answer, p.id, p.sent, p.weight); !e.empty())
                errors.push_back(e);
        if (latency > kLatencyLimit)
            errors.push_back("answered " + std::to_string(latency) +
                             " s after its batch was due");
        p.tally.check(errors, "pusher " + std::to_string(p.id) + " probe");
    }
}

void run_pusher(const std::string& address, const Session& s, double t0, Pusher& p) {
    net::ProxyClient::Options opts;
    opts.address       = address;
    opts.channel       = "live";
    opts.client_name   = "pusher-" + std::to_string(p.id);
    net::ProxyClient client(opts);
    SpanLog& spans = *s.spans;
    {
        Span span(spans, "net.push", 0);
        const double p0 = now_s();
        push_records(client, p, kBacklog);
        p.push_s += now_s() - p0;
    }
    if (s.seconds > 0) {
        open_loop(client, s, t0, p);
    } else {
        // set-up: the first probe right after the backlog, no pacing
        std::vector<std::string> errors;
        const std::string answer = send_probe(client, spans, 0, errors);
        p.first_answer           = now_s();
        if (errors.empty())
            if (std::string e = check_probe(answer, p.id, p.sent, p.weight); !e.empty())
                errors.push_back(e);
        p.tally.check(errors, "pusher " + std::to_string(p.id) + " set-up probe");
    }

    // the burst starts once both pushers are done; pusher 0 sends it
    s.burst_gate->arrive_and_wait();
    p.passed_gate = true;
    if (p.id == 0) {
        p.burst_start = now_s();
        {
            Span span(spans, "net.push", 0);
            push_records(client, p, kBurst);
        }
        p.push_s += now_s() - p.burst_start;
        p.burst_sent = kBurst;
    }
    client.close();
    p.bytes = client.bytes_sent();
}

std::string http_get(const std::string& address, const std::string& path) {
    net::Socket sock = net::connect_to(address);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (!sock.send_all(req.data(), req.size()))
        throw std::runtime_error("scrape: send failed");
    std::string out;
    char buf[65536];
    for (;;) {
        const ssize_t n = sock.recv_some(buf, sizeof(buf));
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
}

/// One daemon lifetime: set-up (seconds == 0: daemon start, connections,
/// the backlog and one probe per pusher) or a timed run (open loop,
/// scrapes); both end with the push-only burst.
void run_session(Session& s, std::vector<Pusher>& pushers, Tally& tally) {
    const double start = now_s();
    const double cpu0  = process_cpu_s();
    proxyd::DaemonOptions dopts;
    dopts.listen           = s.address;
    dopts.http             = "127.0.0.1:0";
    dopts.drain_timeout_ms = 120000;
    s.daemon = std::make_unique<proxyd::ProxyDaemon>(dopts);
    proxyd::ProxyDaemon& daemon = *s.daemon;
    daemon.start();
    std::thread loop([&daemon] { daemon.run(); });

    const double t0 = now_s();
    std::barrier<> gate(static_cast<std::ptrdiff_t>(pushers.size()));
    s.burst_gate = &gate;
    std::vector<std::thread> threads;
    for (Pusher& p : pushers)
        threads.emplace_back([&, t0] {
            try {
                run_pusher(daemon.ingest_address(), s, t0, p);
            } catch (const std::exception& e) {
                p.tally.check(false, "pusher " + std::to_string(p.id) + ": " + e.what());
                if (!p.passed_gate)
                    gate.arrive_and_drop();
            }
        });

    if (s.seconds > 0) {
        // fixed-rate scrapes until the open-loop phase ends
        for (int k = 1; k * kScrapeEvery < s.seconds; ++k) {
            const double due = t0 + kOpenDelay + k * kScrapeEvery;
            std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
            const std::int64_t root = s.spans->open("request.scrape", 0);
            bool ok         = false;
            std::string why = "scrape: not 200";
            {
                Span span(*s.spans, "proxyd.scrape", 0);
                try {
                    ok = http_get(daemon.http_address(), "/metrics").rfind("HTTP/1.0 200", 0) == 0;
                } catch (const std::exception& e) {
                    why = std::string("scrape: ") + e.what();
                }
            }
            s.spans->close(root);
            tally.check(ok, why);
        }
    }
    for (std::thread& t : threads)
        t.join();
    if (s.seconds == 0) {
        double first = 0;
        for (const Pusher& p : pushers)
            if (p.first_answer > 0 && (first == 0 || p.first_answer < first))
                first = p.first_answer;
        s.setup_s = first - start;
    }
    daemon.stop();
    loop.join();
    const double done = now_s();
    s.cpu_s           = process_cpu_s() - cpu0;

    // the burst ends when run() returns: the drain is the fold barrier
    double burst_start = done;
    for (const Pusher& p : pushers) {
        s.records += p.sent;
        s.burst_records += p.burst_sent;
        if (p.burst_sent)
            burst_start = std::min(burst_start, p.burst_start);
        s.sent_by_pusher.push_back(p.sent);
    }
    s.burst_s = done - burst_start;
    s.folded  = daemon.stats().records;
}

/// Offline reference: the probe over the same records, through a plain
/// QueryProcessor that never touches the daemon.
std::string offline_answer(const std::vector<Pusher>& pushers) {
    QueryProcessor proc(parse_calql(kProbe));
    AttributeRegistry& reg = *proc.registry();
    for (const Pusher& p : pushers) {
        const LiveMix& mix = *p.mix;
        std::vector<IdRecord> rows;
        for (const IdRecord& t : mix.templates) {
            IdRecord r;
            for (const Entry& e : t.span()) {
                const Attribute a = mix.registry.get(e.attribute);
                r.append(reg.create(a.name(), a.type(), 0).id(), e.value);
            }
            rows.push_back(std::move(r));
        }
        for (std::uint64_t i = 0; i < p.sent; ++i) {
            IdRecord r = rows[mix.sequence[i % mix.sequence.size()]];
            proc.add(std::move(r));
        }
    }
    std::ostringstream os;
    proc.write(os);
    return os.str();
}

std::vector<Pusher> make_pushers(const std::vector<LiveMix>& mixes) {
    std::vector<Pusher> out(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        out[i].mix = &mixes[i];
        out[i].id  = static_cast<int>(i);
    }
    return out;
}

void collect(Tally& tally, const std::vector<Pusher>& pushers) {
    for (const Pusher& p : pushers)
        tally.add(p.tally);
}

std::string folded_error(const Session& s) {
    return "daemon folded " + std::to_string(s.folded) + " of " + std::to_string(s.records) +
           " records pushed";
}

/// A timed session plus the end-of-run checks: records folded equal
/// records pushed, and the final answer equals the offline reference.
Session timed_session(const RunOptions& o, double seconds, SpanLog& spans,
                      const std::vector<LiveMix>& mixes, std::vector<Pusher>& pushers,
                      Report& report) {
    Session s;
    s.address      = socket_path(o);
    s.seconds      = seconds;
    s.spans        = &spans;
    s.inject_fault = o.inject_fault;
    pushers        = make_pushers(mixes);
    run_session(s, pushers, report);
    collect(report, pushers);
    report.check(s.folded == s.records, folded_error(s));
    bool ok = false;
    const std::string answer = s.daemon->channel("live", false)->answer(kProbe, &ok);
    report.check(ok && answer == offline_answer(pushers),
                 "final answer differs from the offline query over the same records");
    return s;
}

double median_ms(const std::function<void()>& fn, int reps) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_s();
        fn();
        t.push_back(now_s() - t0);
    }
    return median(t) * 1e3;
}

} // namespace

SetupSample setup_live(const RunOptions& o) {
    std::vector<LiveMix> mixes(kPushers);
    for (int p = 0; p < kPushers; ++p)
        make_live_mix(o.seed, p, kBacklog + kBurst, mixes[static_cast<std::size_t>(p)]);
    SpanLog off(false);
    Session s;
    s.address = socket_path(o);
    s.spans   = &off;
    std::vector<Pusher> pushers = make_pushers(mixes);
    SetupSample sample;
    run_session(s, pushers, sample.tally);
    collect(sample.tally, pushers);
    sample.tally.check(s.folded == s.records, folded_error(s));
    sample.setup_s    = s.setup_s;
    sample.burst_rate = static_cast<double>(s.burst_records) / s.burst_s;
    return sample;
}

Report run_live(const RunOptions& o) {
    Report report;
    report.threads = 4; // daemon loop, two pushers, main

    // inputs: each pusher's template records and zipf-skewed sequence
    const std::size_t per_pusher =
        kBacklog + static_cast<std::size_t>(kRate / kPushers * (o.seconds + 1)) + kBurst +
        kBatch;
    std::vector<LiveMix> mixes(kPushers);
    for (int p = 0; p < kPushers; ++p)
        make_live_mix(o.seed, p, per_pusher, mixes[static_cast<std::size_t>(p)]);

    SpanLog off(false);
    std::vector<Pusher> pushers;
    if (!o.trace) {
        // set-up processes and timed lifetimes take turns, so the burst
        // and set-up samples cover the whole run; each lifetime ends with
        // a burst
        Timed t;
        for (int session = 0; session < kSessions; ++session) {
            for (int rep = 0; rep < kSetupProcs / kSessions; ++rep) {
                const SetupSample sample = spawn_setup(o);
                report.add(sample.tally);
                if (sample.tally.failed == 0) {
                    t.setup_s.push_back(sample.setup_s);
                    t.rate.push_back(sample.burst_rate);
                }
            }
            RunOptions once = o; // --inject-fault corrupts one probe per run
            once.inject_fault = o.inject_fault && session == 0;
            const Session s =
                timed_session(once, o.seconds / kSessions, off, mixes, pushers, report);
            for (const Pusher& p : pushers)
                for (double l : p.latency_s)
                    t.latency.add(l);
            t.rate.push_back(static_cast<double>(s.burst_records) / s.burst_s);
            t.cpu_ns.push_back(s.cpu_s * 1e9 / static_cast<double>(s.records));
        }
        t.peak_rss_mb = peak_rss_mb();
        add_end_to_end(report, t);
        return report;
    }

    // traced run: an untraced and a traced session of half the length each
    const Session plain = timed_session(o, o.seconds / 2, off, mixes, pushers, report);
    SpanLog spans(true);
    obs::MetricsRegistry::instance().reset();
    obs::set_enabled(true);
    Session s = timed_session(o, o.seconds / 2, spans, mixes, pushers, report);
    obs::set_enabled(false);

    proxyd::ProxyChannel& channel = *s.daemon->channel("live", false);
    std::vector<double> lag;
    double push_s = 0, bytes = 0;
    for (const Pusher& p : pushers) {
        lag.insert(lag.end(), p.lag_s.begin(), p.lag_s.end());
        push_s += p.push_s;
        bytes += static_cast<double>(p.bytes);
    }
    const double records = static_cast<double>(std::max<std::uint64_t>(s.records, 1));
    const auto& obs_reg  = obs::MetricsRegistry::instance();
    const double lookups = std::max<double>(1.0, static_cast<double>(obs_reg.value("aggdb.lookups")));

    std::vector<proxyd::ProxyChannel::Row> rows = channel.rows();
    double weight = 0;
    for (const auto& r : rows)
        weight += static_cast<double>(r.weight);

    report.add("query.parse_us",
               median_ms([] { for (int i = 0; i < 100; ++i) parse_calql(kProbe); }, 5) * 10,
               "us", 5);
    report.add("aggregate.probe_steps_per_lookup",
               static_cast<double>(obs_reg.value("aggdb.probe_steps")) / lookups, "ratio",
               1);
    report.add("aggregate.groups", static_cast<double>(channel.groups()), "count", 1);
    report.add("aggregate.bytes_per_group",
               static_cast<double>(channel.bytes()) /
                   static_cast<double>(std::max<std::size_t>(channel.groups(), 1)),
               "B", 1);
    report.add("net.push_ns_per_record", push_s * 1e9 / records, "ns", pushers.size());
    report.add("net.bytes_per_record", bytes / records, "B", pushers.size());

    // daemon-internal layers, timed through their public functions on this
    // run's own records
    {
        const LiveMix& mix = mixes[0];
        const std::size_t n = std::min<std::size_t>(s.sent_by_pusher[0], 200000);
        std::vector<std::byte> wire;
        net::append_hello(wire, "replay", "live");
        for (const Attribute& attr : mix.registry.all())
            net::append_attr(wire, attr.id(), attr.name(), attr.type(), 0);
        net::RecordsBuilder batch;
        for (std::size_t i = 0; i < n; ++i) {
            batch.begin_record();
            for (const Entry& e : mix.templates[mix.sequence[i]].span())
                batch.entry(e.attribute, e.value);
            batch.end_record();
            if (batch.num_records() == kBatch)
                batch.frame(wire);
        }
        if (batch.num_records())
            batch.frame(wire);

        proxyd::ProxyChannel fresh("live", "");
        proxyd::IngestSession::Hooks hooks;
        hooks.open_channel = [&](const std::string&, bool) { return &fresh; };
        hooks.on_query     = [](std::string_view) {};
        hooks.respond      = [](std::uint8_t, std::string_view) {};
        proxyd::IngestSession session(hooks);
        const double f0 = now_s();
        for (std::size_t off = 0; off < wire.size(); off += 65536)
            session.feed(wire.data() + off, std::min<std::size_t>(65536, wire.size() - off));
        const double feed_s = now_s() - f0;
        report.check(fresh.records() == n,
                     "IngestSession::feed folded " + std::to_string(fresh.records()) + " of " +
                         std::to_string(n) + " records");
        report.add("proxyd.feed_ns_per_record", feed_s * 1e9 / static_cast<double>(n), "ns",
                   n);

        proxyd::ProxyChannel direct("live", "");
        std::vector<IdRecord> resolved;
        for (const IdRecord& tmpl : mix.templates) {
            IdRecord r;
            for (const Entry& e : tmpl.span()) {
                const Attribute a = mix.registry.get(e.attribute);
                r.append(direct.registry().create(a.name(), a.type(), 0).id(), e.value);
            }
            resolved.push_back(std::move(r));
        }
        const double d0 = now_s();
        for (std::size_t i = 0; i < n; ++i)
            direct.fold(resolved[mix.sequence[i]]);
        report.add("proxyd.fold_ns_per_record",
                   (now_s() - d0) * 1e9 / static_cast<double>(n), "ns", n);
    }
    report.add("proxyd.answer_ms", median_ms([&] {
                   bool ok = false;
                   channel.answer(kProbe, &ok);
               }, 3),
               "ms", 3);
    report.add("proxyd.replay_per_row",
               rows.empty() ? 0 : weight / static_cast<double>(rows.size()), "ratio",
               rows.size());
    report.add("proxyd.scrape_ms", median_ms([&] { s.daemon->scrape_text(); }, 5), "ms", 5);
    report.add("proxyd.channel_groups", static_cast<double>(channel.groups()), "count", 1);
    report.add("proxyd.channel_mb", static_cast<double>(channel.bytes()) / (1 << 20), "MB",
               1);
    report.add("proxyd.pusher_lag_ms", percentile(lag, 90) * 1e3, "ms", lag.size());
    const double rps0 = plain.burst_s > 0 ? static_cast<double>(plain.burst_records) / plain.burst_s : 0;
    const double rps1 = s.burst_s > 0 ? static_cast<double>(s.burst_records) / s.burst_s : 0;
    report.add("trace.overhead_pct", rps0 > 0 ? (rps0 - rps1) / rps0 * 100 : 0, "%", 2);
    report.add("trace.coverage", coverage(spans.spans()), "ratio", 1);
    if (!o.out_dir.empty())
        report.check(spans.write_json(o.out_dir + "/spans-" + o.workload + ".json", o.workload),
                     "cannot write the span file");
    return report;
}

} // namespace pb
