// calib-proxyd ingest throughput and live query latency.
//
// Starts an in-process daemon on a unix socket, then measures, for
// 1/4/16 concurrent clients, (a) aggregate ingest throughput — every
// client streams the same generated record mix and the clock stops when
// all records are folded (per-connection query acks prove folding) —
// and (b) live CalQL query latency against the loaded channel.
//
// The daemon is a single-threaded serialization point, so total ingest
// throughput should stay roughly flat as clients increase while per-
// client throughput divides. An exact-mode aggregation answer probes once
// per distinct stored row (each row carries its multiplicity), so query
// latency grows with the number of distinct rows, not with the records
// ingested or the client count. Emits JSON to stdout and BENCH_proxyd.json.
//
// Environment knobs:
//   CALIB_BENCH_PROXYD_RECORDS  records per client   (default 50000)
//   CALIB_BENCH_PROXYD_REPS     reps per point       (default 3; best kept)
//   CALIB_BENCH_PROXYD_QUERIES  query-latency reps   (default 25)
#include "bench_common.hpp"
#include "net/client.hpp"
#include "proxyd/daemon.hpp"
#include "runtime/clock.hpp"

#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace calib;
using namespace calib::bench;

namespace {

std::string socket_path(int serial) {
    return "/tmp/calib-bench-proxyd-" + std::to_string(getpid()) + "-" +
           std::to_string(serial) + ".sock";
}

/// One client's worth of traffic: a deterministic kernel/rank/value mix
/// (splitmix64) shaped like a typical per-rank profile stream.
void push_records(net::ProxyClient& client, int n, std::uint64_t seed) {
    static const char* kKernels[] = {"advec_cell", "advec_mom", "pdv",
                                     "viscosity", "accelerate"};
    AttributeRegistry registry;
    IdRecord rec;
    const id_t kernel = registry.create("kernel", Variant::Type::String, 0).id();
    const id_t rank   = registry.create("mpi.rank", Variant::Type::Int, 0).id();
    const id_t iter   = registry.create("iter", Variant::Type::Int, 0).id();
    const id_t value  = registry.create("val", Variant::Type::Int, 0).id();

    std::uint64_t state = seed;
    auto next           = [&]() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    for (int i = 0; i < n; ++i) {
        rec.clear();
        rec.append(kernel, Variant(std::string_view(kKernels[next() % 5])));
        rec.append(rank, Variant(static_cast<std::int64_t>(next() % 16)));
        rec.append(iter, Variant(static_cast<std::int64_t>(next() % 100)));
        rec.append(value, Variant(static_cast<std::int64_t>(next() % 10000)));
        client.push(registry, rec);
    }
}

} // namespace

int main() {
    const int records_per_client = env_int("CALIB_BENCH_PROXYD_RECORDS", 50000);
    const int reps               = env_int("CALIB_BENCH_PROXYD_REPS", 3);
    const int query_reps         = env_int("CALIB_BENCH_PROXYD_QUERIES", 25);
    const int client_counts[]    = {1, 4, 16};

    std::ostringstream json;
    json << "{\n  \"bench\": \"proxyd\",\n  " << meta_json() << ",\n"
         << "  \"records_per_client\": " << records_per_client
         << ",\n  \"results\": [";

    std::printf("# proxyd: %d records/client, best of %d reps\n",
                records_per_client, reps);
    std::printf("%8s %12s %16s %14s %14s\n", "clients", "ingest (s)",
                "records/sec", "query avg(ms)", "query min(ms)");

    int serial = 0;
    bool first = true;
    for (int nclients : client_counts) {
        double best_ingest_s = 0;
        double query_avg_ms = 0, query_min_ms = 0;
        const std::uint64_t total_records =
            static_cast<std::uint64_t>(nclients) * records_per_client;

        for (int rep = 0; rep < reps; ++rep) {
            proxyd::DaemonOptions opts;
            opts.listen = socket_path(serial++);
            proxyd::ProxyDaemon daemon(opts);
            daemon.start();
            std::thread loop([&] { daemon.run(); });

            const std::uint64_t t0 = now_ns();
            std::vector<std::thread> pushers;
            for (int cl = 0; cl < nclients; ++cl) {
                pushers.emplace_back([&, cl] {
                    net::ProxyClient::Options copts;
                    copts.address     = daemon.ingest_address();
                    copts.channel     = "bench";
                    copts.client_name = "bench-" + std::to_string(cl);
                    net::ProxyClient client(copts);
                    push_records(client, records_per_client,
                                 0x1234u + static_cast<std::uint64_t>(cl));
                    // the ack proves every record on this connection folded
                    client.query("AGGREGATE count FORMAT csv");
                    client.close();
                });
            }
            for (std::thread& t : pushers)
                t.join();
            const double ingest_s = static_cast<double>(now_ns() - t0) * 1e-9;
            if (rep == 0 || ingest_s < best_ingest_s)
                best_ingest_s = ingest_s;

            if (daemon.stats().records != total_records)
                std::fprintf(stderr, "# WARNING: folded %llu of %llu records\n",
                             static_cast<unsigned long long>(
                                 daemon.stats().records),
                             static_cast<unsigned long long>(total_records));

            // query latency over the loaded channel (last rep only)
            if (rep == reps - 1) {
                net::ProxyClient::Options copts;
                copts.address     = daemon.ingest_address();
                copts.channel     = "bench";
                copts.client_name = "bench-query";
                net::ProxyClient qc(copts);
                double sum_ms = 0, min_ms = 0;
                for (int q = 0; q < query_reps; ++q) {
                    const std::uint64_t q0 = now_ns();
                    qc.query("AGGREGATE count,sum(val) GROUP BY kernel "
                             "FORMAT csv");
                    const double ms =
                        static_cast<double>(now_ns() - q0) * 1e-6;
                    sum_ms += ms;
                    min_ms = (q == 0 || ms < min_ms) ? ms : min_ms;
                }
                qc.close();
                query_avg_ms = sum_ms / query_reps;
                query_min_ms = min_ms;
            }

            daemon.stop();
            loop.join();
        }

        const double rps = static_cast<double>(total_records) / best_ingest_s;
        std::printf("%8d %12.4f %16.0f %14.3f %14.3f\n", nclients,
                    best_ingest_s, rps, query_avg_ms, query_min_ms);
        json << (first ? "" : ",") << "\n    {\"clients\": " << nclients
             << ", \"ingest_s\": " << best_ingest_s
             << ", \"records_per_sec\": " << rps
             << ", \"query_avg_ms\": " << query_avg_ms
             << ", \"query_min_ms\": " << query_min_ms << "}";
        first = false;
    }
    json << "\n  ]\n}\n";

    std::printf("\n%s", json.str().c_str());
    std::ofstream("BENCH_proxyd.json") << json.str();
    std::printf("# wrote BENCH_proxyd.json\n");
    return 0;
}
