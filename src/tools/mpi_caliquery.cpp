// mpi-caliquery: the scalable parallel query application (paper §IV-C).
//
//   mpi-caliquery -n 8 -q "AGGREGATE sum(count) GROUP BY kernel" rank*.cali
//
// Input files are distributed across simmpi rank-threads; each rank runs
// the query on its share, then the partial aggregation databases are
// merged with a logarithmic binomial-tree reduction (Figure 4's workload).
// With --stats the process self-profiles (per-phase table and pipeline
// instruments on stderr, aggregated across all rank-threads).
#include "../calib.hpp"
#include "../common/util.hpp"
#include "../engine/parallel_processor.hpp"
#include "../io/filebuffer.hpp"
#include "../mpisim/treereduce.hpp"

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

namespace {

void usage() {
    std::puts("usage: mpi-caliquery [-n nprocs] [--threads m] [-t] [--stats]\n"
              "                     [--stats-json <f>] [--no-mmap]\n"
              "                     [--batch-size <n>] [--max-groups-mem <bytes>]\n"
              "                     -q <calql> <file>...");
}

} // namespace

int main(int argc, char** argv) {
    std::string query;
    std::string stats_json;
    int nprocs   = 4;
    int threads  = 1;
    bool timings = false;
    bool stats   = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-q" || arg == "--query") {
            if (++i >= argc)
                return std::fprintf(stderr, "missing argument for -q\n"), 2;
            query = argv[i];
        } else if (arg == "-n" || arg == "--nprocs") {
            if (++i >= argc)
                return std::fprintf(stderr, "missing argument for -n\n"), 2;
            nprocs = std::atoi(argv[i]);
        } else if (arg == "-t" || arg == "--timings") {
            timings = true;
        } else if (arg == "--stats") {
            // note: -s/-t short forms are not available here (-t = --timings)
            stats = true;
        } else if (arg == "--stats-json") {
            if (++i >= argc)
                return std::fprintf(stderr, "missing argument for --stats-json\n"), 2;
            stats_json = argv[i];
        } else if (arg == "--threads") {
            // note: -t is taken by --timings here; the short form lives on
            // cali-query only
            if (++i >= argc)
                return std::fprintf(stderr, "missing argument for --threads\n"), 2;
            threads = std::atoi(argv[i]);
            if (threads < 1)
                return std::fprintf(stderr, "invalid --threads value\n"), 2;
        } else if (arg == "--batch-size") {
            // flows to every rank's local engine via the process-wide default
            if (++i >= argc)
                return std::fprintf(stderr, "missing argument for --batch-size\n"), 2;
            std::size_t n = 0;
            if (!calib::util::parse_size(argv[i], n) || n == 0 ||
                n > (std::size_t(1) << 20))
                return std::fprintf(stderr, "invalid --batch-size value\n"), 2;
            calib::engine::set_default_batch_size(n);
        } else if (arg == "--max-groups-mem") {
            if (++i >= argc)
                return std::fprintf(stderr,
                                    "missing argument for --max-groups-mem\n"),
                       2;
            std::size_t n = 0;
            if (!calib::util::parse_size(argv[i], n))
                return std::fprintf(stderr, "invalid --max-groups-mem value\n"), 2;
            calib::engine::set_default_agg_memory_budget(n);
        } else if (arg == "--no-mmap") {
            calib::FileBuffer::set_mmap_enabled(false);
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "mpi-caliquery: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() || nprocs < 1) {
        usage();
        return 2;
    }

    const bool self_profile = stats || !stats_json.empty();
    if (self_profile) {
        calib::obs::set_enabled(true);
        calib::obs::MetricsRegistry::instance().reset();
    }

    try {
        const calib::QuerySpec spec = calib::parse_calql(query);
        std::vector<calib::RecordMap> result;
        const calib::simmpi::QueryTimes times =
            calib::simmpi::parallel_query(spec, files, nprocs, &result, threads);

        calib::format_records(std::cout, result, spec);
        if (timings)
            std::fprintf(stderr,
                         "mpi-caliquery: nprocs=%d total=%.6fs local=%.6fs "
                         "reduce=%.6fs in=%llu out=%zu bytes=%llu\n",
                         times.nprocs, times.total_s, times.local_s, times.reduce_s,
                         static_cast<unsigned long long>(times.input_records),
                         times.output_records,
                         static_cast<unsigned long long>(times.bytes_reduced));
        if (stats)
            calib::obs::write_stats_table(stderr);
        if (!stats_json.empty() && !calib::obs::write_stats_json_file(stats_json))
            return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mpi-caliquery: %s\n", e.what());
        return 1;
    }
    return 0;
}
