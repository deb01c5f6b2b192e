// perfbench: the workload binary of the repository benchmark.
//
//   perfbench gen --workload W --seed N --dir D
//       write the offline workloads' input files into D
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--dir D] [--out O] [--inject-fault]
//       run one workload in this process; the last stdout line is the
//       BENCH-style JSON report (also written to O/BENCH_perfbench_W.json)
//   perfbench setup --workload W --seed N [--dir D] [--out O]
//       one set-up in this fresh process, from inputs ready to the first
//       answer; `run` starts these and reads the line they print
//   perfbench selftest [--dir D]
//       statistics, span math and seed checks
//   perfbench layers
//       the per-layer metric names and units a traced run reports
//
// run.py is the entry point that builds this, generates inputs, and
// prints the benchmark's result line.
#include "inputs.hpp"
#include "workloads.hpp"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

namespace pb {
int selftest(const std::string& dir);
}

namespace {

bool is_workload(const std::string& w) {
    return w == "offline_paradis" || w == "offline_highcard" || w == "live_exact" ||
           w == "runtime_event";
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench gen --workload W --seed N --dir D\n"
                 "       perfbench run --workload W --seed N --seconds S --trace 0|1 "
                 "[--dir D] [--out O] [--inject-fault]\n"
                 "       perfbench setup --workload W --seed N [--dir D] [--out O]\n"
                 "       perfbench selftest [--dir D]\n"
                 "       perfbench layers\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    pb::RunOptions o;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const char* v       = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--inject-fault") {
            o.inject_fault = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--dir")
            o.input_dir = v;
        else if (a == "--out")
            o.out_dir = v;
        else
            return usage();
    }

    try {
        if (cmd == "layers") {
            for (const auto& [name, unit] : pb::layer_metrics())
                std::printf("%s %s\n", name.c_str(), unit.c_str());
            return 0;
        }
        if (cmd == "selftest")
            return pb::selftest(o.input_dir.empty() ? "." : o.input_dir);
        if (!is_workload(o.workload))
            return usage();
        if (cmd == "gen") {
            if (o.input_dir.empty())
                return usage();
            pb::generate_offline(o.workload, o.input_dir, o.seed);
            return 0;
        }
        if (cmd == "setup") {
            const pb::SetupSample sample = pb::run_setup(o);
            for (const std::string& e : sample.tally.errors)
                std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
            std::printf("%s\n", pb::setup_line(sample).c_str());
            return 0;
        }
        if (cmd != "run" || o.seconds <= 0)
            return usage();

        pb::Report report;
        if (o.workload == "live_exact")
            report = pb::run_live(o);
        else if (o.workload == "runtime_event")
            report = pb::run_runtime(o);
        else
            report = pb::run_offline(o);
        report.workload = o.workload;
        report.seed     = o.seed;
        report.traced   = o.trace;
        if (o.trace)
            pb::complete_layers(report);
        for (const std::string& e : report.errors)
            std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

        const std::string json = report.to_json();
        if (!o.out_dir.empty())
            std::ofstream(o.out_dir + "/BENCH_perfbench_" + o.workload + ".json") << json << "\n";
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
