// calib-benchdiff: the dogfooded performance-history tool.
//
//   calib-benchdiff append hist.cali BENCH_io.json stats.json
//   calib-benchdiff check  hist.cali --json verdict.json
//   calib-benchdiff list   hist.cali
//   calib-benchdiff query  hist.cali -q "AGGREGATE avg(bd.value) ..."
//
// `append` normalizes bench JSON documents and --stats-json self-profiles
// into one history segment (one record per metric sample, stamped with
// commit / time / host / hardware concurrency / build tag; see
// src/benchdiff/history.hpp). The history file is an ordinary calib
// stream: every trend question is a CalQL query, and the regression gate
// itself (check) builds its per-commit series through the query engine.
// `check` exits 3 when a tracked metric regresses past its noise-aware
// threshold (median +- max(k*MAD-sigma, rel_floor) over a trailing
// window), so CI can gate on it directly.
#include "../benchdiff/analysis.hpp"
#include "../benchdiff/history.hpp"

#include "../engine/parallel_processor.hpp"
#include "../query/calql.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

void usage() {
    std::puts(
        "usage: calib-benchdiff <command> <history.cali> [options]\n"
        "\n"
        "commands:\n"
        "  append <history.cali> <input>...   normalize bench JSON ('{...}')\n"
        "                                     and --stats-json record arrays\n"
        "                                     ('[...]') into one history\n"
        "                                     segment\n"
        "  check  <history.cali>              evaluate the regression gate\n"
        "                                     over the newest run; exit 3 on\n"
        "                                     regression\n"
        "  list   <history.cali>              per-series summary (count, avg,\n"
        "                                     min, max) via CalQL\n"
        "  query  <history.cali> -q <calql>   free-form CalQL over the\n"
        "                                     history\n"
        "\n"
        "append options:\n"
        "  --bench <name>        series name override for ALL inputs\n"
        "                        (default: the document's own name)\n"
        "  --commit <sha>        commit stamp (default: $CALIB_GIT_SHA, the\n"
        "                        build-time sha, then \"unknown\")\n"
        "  --build <tag>         build tag stamp (default: $CALIB_BUILD_TAG)\n"
        "  --dry-run             print the normalized samples, append nothing\n"
        "\n"
        "check options:\n"
        "  --window <n>          trailing baseline points     (default 20)\n"
        "  --k <f>               MAD-sigma multiplier         (default 4.0)\n"
        "  --rel-floor <f>       relative threshold floor     (default 0.05)\n"
        "  --min-samples <n>     points required to gate      (default 4)\n"
        "  --overrides <file>    per-series gate overrides (docs/BENCHDIFF.md)\n"
        "  --json <file>         write the verdict as a JSON record array\n"
        "  --soft                report but always exit 0 (PR builds)\n"
        "  --verbose             include ok/untracked series in the table\n"
        "\n"
        "common options:\n"
        "  -t, --threads <n>     query engine threads (default 1)\n"
        "  -h, --help            show this message\n"
        "\n"
        "exit status: 0 ok, 1 error, 2 usage, 3 regression detected");
}

int fail_usage(const char* what) {
    std::fprintf(stderr, "calib-benchdiff: %s\n", what);
    return 2;
}

bool need_arg(int& i, int argc, char** argv, std::string& out) {
    if (i + 1 >= argc) {
        std::fprintf(stderr, "calib-benchdiff: missing argument for %s\n",
                     argv[i]);
        return false;
    }
    out = argv[++i];
    return true;
}

int cmd_append(const std::string& history, int argc, char** argv, int first) {
    std::string bench_hint;
    std::string commit;
    std::string build;
    bool dry_run = false;
    std::vector<std::string> inputs;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string val;
        if (arg == "--bench") {
            if (!need_arg(i, argc, argv, bench_hint))
                return 2;
        } else if (arg == "--commit") {
            if (!need_arg(i, argc, argv, commit))
                return 2;
        } else if (arg == "--build") {
            if (!need_arg(i, argc, argv, build))
                return 2;
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return fail_usage(("unknown append option " + arg).c_str());
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty())
        return fail_usage("append: no input files");

    using namespace calib::benchdiff;
    RunMeta meta;
    meta.commit = commit;
    meta.build  = build;

    std::vector<MetricSample> samples;
    for (const std::string& in : inputs) {
        std::vector<MetricSample> s = normalize_file(in, bench_hint, meta);
        samples.insert(samples.end(), s.begin(), s.end());
    }
    meta.fill_from(RunMeta::detect());

    if (dry_run) {
        for (const MetricSample& s : samples)
            std::printf("%s/%s = %.12g\n", s.bench.c_str(), s.metric.c_str(),
                        s.value);
        std::printf("# %zu sample(s), commit %s, not appended\n",
                    samples.size(),
                    meta.commit.empty() ? "unknown" : meta.commit.c_str());
        return 0;
    }
    if (samples.empty())
        return fail_usage("append: inputs contained no metric samples");

    const std::uint64_t seq = next_seq(history);
    append_history(history, samples, meta, seq);
    std::fprintf(stderr, "calib-benchdiff: appended %zu sample(s) as seq %llu"
                         " (commit %s)\n",
                 samples.size(), static_cast<unsigned long long>(seq),
                 meta.commit.empty() ? "unknown" : meta.commit.c_str());
    return 0;
}

int cmd_check(const std::string& history, int argc, char** argv, int first,
              std::size_t threads) {
    using namespace calib::benchdiff;
    Override flags; // the gate settings given on the command line
    std::string overrides_path;
    std::string json_path;
    bool soft    = false;
    bool verbose = false;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string val;
        if (arg == "--window" || arg == "--k" || arg == "--rel-floor" ||
            arg == "--min-samples") {
            if (!need_arg(i, argc, argv, val))
                return 2;
            std::string key = arg.substr(2);
            std::replace(key.begin(), key.end(), '-', '_');
            try {
                parse_gate_setting(key, val, flags);
            } catch (const std::invalid_argument& e) {
                return fail_usage((arg + ": " + e.what()).c_str());
            }
        } else if (arg == "--overrides") {
            if (!need_arg(i, argc, argv, overrides_path))
                return 2;
        } else if (arg == "--json") {
            if (!need_arg(i, argc, argv, json_path))
                return 2;
        } else if (arg == "--soft") {
            soft = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return fail_usage(("unknown check option " + arg).c_str());
        }
    }

    std::vector<Override> overrides;
    if (!overrides_path.empty())
        overrides = load_overrides(overrides_path);

    const GateReport report =
        run_gate(history, flags.apply(GateConfig{}), overrides, threads);
    write_report_table(std::cout, report, verbose);

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::fprintf(stderr, "calib-benchdiff: cannot open %s\n",
                         json_path.c_str());
            return 1;
        }
        write_report_json(os, report);
    }
    if (report.failed() && !soft)
        return 3;
    return 0;
}

int run_query(const std::string& history, const std::string& calql,
              std::size_t threads) {
    calib::engine::EngineOptions opts;
    opts.threads = threads ? threads : 1;
    calib::engine::ParallelQueryProcessor engine(calib::parse_calql(calql),
                                                 opts);
    engine.run({history}).write(std::cout);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    if (command == "-h" || command == "--help") {
        usage();
        return 0;
    }
    if (argc < 3)
        return fail_usage("missing history file");
    const std::string history = argv[2];

    // extract common options; leave the rest for the subcommand
    std::size_t threads = 1;
    std::string calql;
    std::vector<char*> rest;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string val;
        if (arg == "-t" || arg == "--threads") {
            if (!need_arg(i, argc, argv, val))
                return 2;
            threads = std::strtoull(val.c_str(), nullptr, 10);
            if (threads == 0)
                return fail_usage("invalid thread count");
        } else if (arg == "-q" || arg == "--query") {
            if (!need_arg(i, argc, argv, val))
                return 2;
            calql = val;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            rest.push_back(argv[i]);
        }
    }
    rest.push_back(nullptr);
    const int rest_argc = static_cast<int>(rest.size()) - 1;

    try {
        if (command == "append")
            return cmd_append(history, rest_argc, rest.data(), 0);
        if (command == "check")
            return cmd_check(history, rest_argc, rest.data(), 0, threads);
        if (command == "list") {
            if (rest_argc > 0)
                return fail_usage("list takes no extra arguments");
            return run_query(
                history,
                !calql.empty()
                    ? calql
                    : "SELECT bd.bench, bd.metric, count, avg(bd.value), "
                      "min(bd.value), max(bd.value) "
                      "AGGREGATE count, avg(bd.value), min(bd.value), "
                      "max(bd.value) "
                      "GROUP BY bd.bench, bd.metric "
                      "ORDER BY bd.bench, bd.metric FORMAT table",
                threads);
        }
        if (command == "query") {
            if (calql.empty())
                return fail_usage("query requires -q <calql>");
            return run_query(history, calql, threads);
        }
    } catch (const calib::CalQLError& e) {
        std::fprintf(stderr, "calib-benchdiff: query error at position %zu: %s\n",
                     e.position(), e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "calib-benchdiff: %s\n", e.what());
        return 1;
    }
    return fail_usage(("unknown command '" + command + "'").c_str());
}
