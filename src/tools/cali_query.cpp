// cali-query: the serial off-line query and analysis tool (paper §IV-C).
//
//   cali-query -q "AGGREGATE sum(time.duration) GROUP BY kernel" a.cali b.cali
//
// Reads one or more calib stream files, streams their records through the
// query pipeline (filter -> aggregate -> sort -> format), and prints the
// result. With --stats, the tool self-profiles: every pipeline layer's
// instruments (reader, filter, aggregation, thread pool) plus a per-phase
// wall-clock table go to stderr; --stats-json writes the same data as a
// JSON record array that cali-query itself can consume (--json-input).
#include "../calib.hpp"

#include "../common/util.hpp"
#include "../io/filebuffer.hpp"
#include "../net/client.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

void usage() {
    std::puts(
        "usage: cali-query [options] <file.cali>...\n"
        "\n"
        "a single '-' input reads the stream from standard input\n"
        "\n"
        "options:\n"
        "  -q, --query <calql>   query expression (default: FORMAT table)\n"
        "  -c, --connect <addr>  run the query live on a calib-proxyd daemon\n"
        "                        (unix path or host:port) instead of files\n"
        "      --channel <name>  daemon channel to query (default: default)\n"
        "  -o, --output <file>   write the report to <file> instead of stdout\n"
        "  -t, --threads <n>     worker threads (default: hardware concurrency;\n"
        "                        1 runs the same morsel plan on one worker;\n"
        "                        output is identical for any n)\n"
        "  -j, --json-input      inputs are JSON record arrays (FORMAT json output)\n"
        "  -G, --with-globals    join each file's globals (e.g. mpi.rank) onto\n"
        "                        every record of that file\n"
        "  -s, --stats           self-profile to stderr (stdout is unchanged):\n"
        "                        per-phase timings, pipeline instruments, and\n"
        "                        the merge strategy the selector chose and why\n"
        "      --batch-size <n>  records per columnar batch (default 1024;\n"
        "                        also: CALIB_BATCH_SIZE; suffixes K/M/G;\n"
        "                        same output bytes for every size)\n"
        "      --max-groups-mem <bytes>\n"
        "                        bound aggregation memory: beyond this, sorted\n"
        "                        runs of partial aggregates spill to a temp\n"
        "                        file (default unbounded; also: CALIB_AGG_MEM;\n"
        "                        suffixes K/M/G)\n"
        "      --no-mmap         read files into memory instead of mmap()ing\n"
        "                        them (also: CALIB_NO_MMAP=1)\n"
        "      --stats-json <f>  write the self-profile as a JSON record array\n"
        "      --trace-json <f>  write a span timeline of the run as Chrome\n"
        "                        trace_event JSON (open in Perfetto or\n"
        "                        chrome://tracing; also queryable with\n"
        "                        --json-input)\n"
        "  -v, --verbose         more diagnostics on stderr (-v info, -vv debug)\n"
        "  -h, --help            show this message\n"
        "\n"
        "query language clauses:\n"
        "  SELECT col,...  AGGREGATE op(attr),...  GROUP BY attr,...|*\n"
        "  LET x=scale|truncate|ratio|first(...)   WHERE cond,...\n"
        "  WINDOW dur [BY attr] [SLIDE dur]  (trailing-window aggregation\n"
        "                        over the time attribute; default time.offset;\n"
        "                        durations take us/ms/s/m/h suffixes)\n"
        "  ORDER BY attr [DESC]  FORMAT table|csv|json|expand|tree  LIMIT n");
}

} // namespace

int main(int argc, char** argv) {
    std::string query;
    std::string output;
    std::string connect;
    std::string channel = "default";
    std::string stats_json;
    std::string trace_json;
    long threads      = 0; // 0 = hardware concurrency
    int verbose       = 0;
    bool stats        = false;
    bool json_input   = false;
    bool with_globals = false;
    std::size_t batch_size = 0;                             // 0 = default
    std::size_t agg_mem    = static_cast<std::size_t>(-1);  // -1 = default
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-q" || arg == "--query") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            query = argv[i];
        } else if (arg == "-c" || arg == "--connect") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            connect = argv[i];
        } else if (arg == "--channel") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            channel = argv[i];
        } else if (arg == "-o" || arg == "--output") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            output = argv[i];
        } else if (arg == "-t" || arg == "--threads") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            threads = std::strtol(argv[i], nullptr, 10);
            if (threads < 1) {
                std::fprintf(stderr, "cali-query: invalid thread count '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "-s" || arg == "--stats") {
            stats = true;
        } else if (arg == "--batch-size") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            if (!calib::util::parse_size(argv[i], batch_size) || batch_size == 0 ||
                batch_size > (std::size_t(1) << 20)) {
                std::fprintf(stderr, "cali-query: invalid batch size '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--max-groups-mem") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            if (!calib::util::parse_size(argv[i], agg_mem)) {
                std::fprintf(stderr, "cali-query: invalid memory budget '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--stats-json") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            stats_json = argv[i];
        } else if (arg == "--trace-json") {
            if (++i >= argc) {
                std::fprintf(stderr, "cali-query: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            trace_json = argv[i];
        } else if (arg == "-v" || arg == "--verbose") {
            ++verbose;
        } else if (arg == "-vv") {
            verbose += 2;
        } else if (arg == "-j" || arg == "--json-input") {
            json_input = true;
        } else if (arg == "-G" || arg == "--with-globals") {
            with_globals = true;
        } else if (arg == "--no-mmap") {
            calib::FileBuffer::set_mmap_enabled(false);
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (arg == "-") {
            files.push_back(arg); // standard input
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cali-query: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (files.empty() && connect.empty()) {
        usage();
        return 2;
    }

    if (verbose > 0)
        calib::Log::set_verbosity(verbose >= 2 ? calib::Log::Debug
                                               : calib::Log::Info);

    if (!connect.empty()) {
        // live mode: the daemon parses and evaluates the query over its
        // current channel aggregate and returns the formatted result
        if (!files.empty()) {
            std::fprintf(stderr,
                         "cali-query: --connect and input files are exclusive\n");
            return 2;
        }
        try {
            calib::net::ProxyClient::Options popts;
            popts.address     = connect;
            popts.channel     = channel;
            popts.client_name = "cali-query";
            popts.query_only  = true; // a typo'd --channel is an error,
                                      // not a fresh empty channel
            calib::net::ProxyClient client(popts);
            const std::string result = client.query(query);
            if (output.empty()) {
                std::cout << result;
            } else {
                std::ofstream os(output);
                if (!os) {
                    std::fprintf(stderr, "cali-query: cannot open %s\n",
                                 output.c_str());
                    return 1;
                }
                os << result;
            }
            client.close();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cali-query: %s\n", e.what());
            return 1;
        }
        return 0;
    }

    const bool self_profile = stats || !stats_json.empty();
    if (self_profile) {
        calib::obs::set_enabled(true);
        calib::obs::MetricsRegistry::instance().reset();
    }
    if (!trace_json.empty()) {
        calib::obs::set_trace_enabled(true);
        calib::obs::trace_reset();
    }

    try {
        calib::QuerySpec spec;
        {
            calib::obs::Phase parse_phase("parse");
            spec = calib::parse_calql(query);
        }
        calib::log_debug() << "query parsed: " << files.size() << " input file"
                           << (files.size() == 1 ? "" : "s");

        calib::engine::EngineOptions eopts;
        eopts.threads           = static_cast<std::size_t>(threads);
        eopts.json_input        = json_input;
        eopts.with_globals      = with_globals;
        eopts.batch_size        = batch_size;
        eopts.agg_memory_budget = agg_mem;

        calib::engine::ParallelQueryProcessor engine(spec, eopts);
        calib::QueryProcessor& proc = engine.run(files);

        {
            calib::obs::Phase sort_phase("sort");
            proc.result(); // flush + canonicalize + sort (idempotent)
        }

        calib::log_info() << proc.num_records_in() << " records in, "
                          << proc.num_records_kept() << " kept, "
                          << proc.result().size() << " out";

        // diagnose silently-inert clauses (unknown WHERE / GROUP BY /
        // AGGREGATE / ORDER BY attributes) now that the registry holds
        // every attribute the input defined
        for (const std::string& msg :
             calib::unknown_query_attributes(spec, *proc.registry()))
            calib::log_warn() << msg;

        {
            calib::obs::Phase format_phase("format");
            if (output.empty()) {
                proc.write(std::cout);
            } else {
                std::ofstream os(output);
                if (!os) {
                    std::fprintf(stderr, "cali-query: cannot open %s\n",
                                 output.c_str());
                    return 1;
                }
                proc.write(os);
            }
        }

        if (stats) {
            std::fprintf(stderr,
                         "cali-query: %llu records in, %llu kept, %zu out "
                         "(%zu threads, %zu morsels)\n",
                         static_cast<unsigned long long>(proc.num_records_in()),
                         static_cast<unsigned long long>(proc.num_records_kept()),
                         proc.result().size(), engine.stats().threads,
                         engine.stats().morsels);
            const calib::engine::EngineStats& es = engine.stats();
            if (es.merge_strategy != calib::engine::MergeStrategy::Adaptive) {
                calib::engine::MergeObservation seen;
                seen.has_aggregation = proc.aggregation_db() != nullptr;
                seen.total_entries   = es.merge_entries;
                std::string why = calib::engine::merge_strategy_reason(seen);
                if (es.merge_partitions != 0)
                    why += "; " + std::to_string(es.merge_partitions) + " partitions";
                std::fprintf(stderr, "cali-query: merge strategy %s, %.3f ms (%s)\n",
                             calib::engine::merge_strategy_name(es.merge_strategy),
                             static_cast<double>(es.merge_ns) * 1e-6, why.c_str());
            }
            calib::obs::write_stats_table(stderr);
        }
        if (!stats_json.empty() && !calib::obs::write_stats_json_file(stats_json))
            return 1;
        if (!trace_json.empty() &&
            !calib::obs::write_trace_json_file(trace_json))
            return 1;
    } catch (const calib::CalQLError& e) {
        std::fprintf(stderr, "cali-query: query error at position %zu: %s\n",
                     e.position(), e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cali-query: %s\n", e.what());
        return 1;
    }
    return 0;
}
