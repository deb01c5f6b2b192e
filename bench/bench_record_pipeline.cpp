// Offline record pipeline throughput: records/sec of the single-thread
// read -> LET/WHERE -> aggregate batch path (the reader fills RecordBatches
// resolved once per attribute definition, the processor runs the batched
// LET -> filter -> probe pipeline), plus its sort-spill overhead under a
// memory budget. Emits the measurement as JSON to stdout and to
// BENCH_record_pipeline.json (perf trajectory).
//
// A second section measures raw .cali ingest on one large file — the
// zero-copy mmap buffer vs the read() fallback, plus the parallel engine
// at t1/t2/t4 over byte-range morsels — and writes BENCH_io.json.
//
// A third section sweeps EngineOptions::bytes_per_morsel (0 = one morsel
// per file, 512 KiB, 1, 2 and 4 MiB) at t1 and t4 over two shapes of the
// same high-cardinality records (zipf(1) over 256 call paths x 16 ranks x
// 4 iterations, ~14k groups, a top-100 query): 48 small files (~127 KB
// each), which pack into morsels, and one ~6 MB file, which splits into
// byte-range chunks. Each point records wall time, the phase-2 merge time
// and the morsel count; JSON output must be byte-identical across thread
// counts at every target. Writes BENCH_morsel.json; docs/ENGINE.md
// ("Morsel sizing") reads the default target off it.
//
// Environment knobs:
//   CALIB_BENCH_RP_FILES    input files                  (default 4)
//   CALIB_BENCH_RP_REPS     repetitions per path         (default 3; best kept)
//   CALIB_BENCH_IO_RECORDS  records in the big io file   (default 200000)
#include "apps/paradis/generator.hpp"
#include "bench_common.hpp"
#include "engine/parallel_processor.hpp"
#include "io/calireader.hpp"
#include "io/caliwriter.hpp"
#include "io/filebuffer.hpp"
#include "obs/metrics.hpp"
#include "query/calql.hpp"
#include "query/processor.hpp"
#include "runtime/clock.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace calib;
using namespace calib::bench;

namespace {

struct Measurement {
    double wall_s = 0;
    std::uint64_t records = 0;
    std::string output;
};

/// Columnar path: the reader fills RecordBatches and the processor runs
/// the batched LET -> filter -> probe pipeline. With \a budget != 0 the
/// aggregation spills sorted runs beyond the memory budget.
Measurement run_batched_path(const QuerySpec& spec,
                             const std::vector<std::string>& files,
                             std::size_t batch_size, std::size_t budget) {
    Measurement m;
    const std::uint64_t t0 = now_ns();
    QueryProcessor proc(spec);
    if (budget != 0)
        proc.set_aggregation_memory_budget(budget);
    for (const std::string& file : files)
        CaliReader::read_file_batches(file, *proc.registry(), batch_size,
                                      [&proc](RecordBatch& b) { proc.add_batch(b); });
    std::ostringstream os;
    proc.write(os);
    m.wall_s  = static_cast<double>(now_ns() - t0) * 1e-9;
    m.records = proc.num_records_in();
    m.output  = os.str();
    return m;
}

template <typename Fn> Measurement best_of(int reps, Fn&& run) {
    Measurement best;
    for (int i = 0; i < reps; ++i) {
        Measurement m = run();
        if (i == 0 || m.wall_s < best.wall_s)
            best.wall_s = m.wall_s;
        if (i == 0) {
            best.records = m.records;
            best.output  = std::move(m.output);
        }
    }
    return best;
}

// ------------------------------------------------------------ io section

/// Pure ingest: parse every record of \a file into a counting sink.
Measurement run_ingest(const std::string& file) {
    Measurement m;
    const std::uint64_t t0 = now_ns();
    AttributeRegistry registry;
    std::uint64_t n = 0;
    CaliReader::read_file_batches(file, registry, RecordBatch::default_rows,
                                  [&n](RecordBatch& b) { n += b.rows(); });
    m.wall_s  = static_cast<double>(now_ns() - t0) * 1e-9;
    m.records = n;
    return m;
}

/// Full query over one large file at \a threads workers (byte-range
/// morsels for threads > 1).
Measurement run_engine(const QuerySpec& spec, const std::string& file,
                       std::size_t threads) {
    Measurement m;
    const std::uint64_t t0 = now_ns();
    engine::EngineOptions opts;
    opts.threads = threads;
    engine::ParallelQueryProcessor eng(spec, opts);
    QueryProcessor& proc = eng.run({file});
    std::ostringstream os;
    proc.write(os);
    m.wall_s  = static_cast<double>(now_ns() - t0) * 1e-9;
    m.records = proc.num_records_in();
    m.output  = os.str();
    return m;
}

int run_io_bench(const QuerySpec& spec, int reps) {
    const int io_records = env_int("CALIB_BENCH_IO_RECORDS", 200000);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "calib-bench-io-data").string();

    paradis::ParadisConfig config;
    config.records_per_file = io_records;
    std::printf("\n# io ingest: generating 1 file x %d records...\n", io_records);
    const std::string file = paradis::generate_dataset(dir, 1, config).front();
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(file));

    const Measurement mmap_m = best_of(reps, [&] { return run_ingest(file); });
    FileBuffer::set_mmap_enabled(false);
    const Measurement buffer_m = best_of(reps, [&] { return run_ingest(file); });
    FileBuffer::set_mmap_enabled(true);

    const double mmap_speedup = buffer_m.wall_s / mmap_m.wall_s;
    std::printf("%12s %12s %16s %16s %10s\n", "ingest", "wall (s)",
                "records/sec", "MB/sec", "speedup");
    const auto print_ingest = [&](const char* name, const Measurement& m) {
        std::printf("%12s %12.5f %16.0f %16.1f %10.2f\n", name, m.wall_s,
                    static_cast<double>(m.records) / m.wall_s,
                    file_bytes / m.wall_s * 1e-6, buffer_m.wall_s / m.wall_s);
    };
    print_ingest("mmap", mmap_m);
    print_ingest("buffer", buffer_m);

    Measurement engine_m[3];
    const std::size_t thread_counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i)
        engine_m[i] = best_of(
            reps, [&] { return run_engine(spec, file, thread_counts[i]); });
    const double t4_speedup  = engine_m[0].wall_s / engine_m[2].wall_s;
    const bool identical     = engine_m[0].output == engine_m[1].output &&
                               engine_m[0].output == engine_m[2].output;

    std::printf("%12s %12s %16s %16s %10s\n", "engine", "wall (s)",
                "records/sec", "MB/sec", "speedup");
    for (int i = 0; i < 3; ++i) {
        char name[16];
        std::snprintf(name, sizeof(name), "t%zu", thread_counts[i]);
        std::printf("%12s %12.5f %16.0f %16.1f %10.2f\n", name,
                    engine_m[i].wall_s,
                    static_cast<double>(engine_m[i].records) / engine_m[i].wall_s,
                    file_bytes / engine_m[i].wall_s * 1e-6,
                    engine_m[0].wall_s / engine_m[i].wall_s);
    }
    std::printf("# identical output across thread counts: %s\n",
                identical ? "yes" : "NO");

    std::ostringstream json;
    json << "{\n  \"bench\": \"io\",\n  " << meta_json() << ",\n"
         << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
         << ",\n  \"file_bytes\": " << static_cast<std::uint64_t>(file_bytes)
         << ",\n  \"records\": " << mmap_m.records << ",\n  \"ingest\": [\n";
    const auto ingest_json = [&](const char* name, const Measurement& m,
                                 bool last) {
        json << "    {\"path\": \"" << name << "\", \"wall_s\": " << m.wall_s
             << ", \"records_per_sec\": "
             << static_cast<double>(m.records) / m.wall_s
             << ", \"bytes_per_sec\": " << file_bytes / m.wall_s << "}"
             << (last ? "\n" : ",\n");
    };
    ingest_json("mmap", mmap_m, false);
    ingest_json("buffer", buffer_m, true);
    json << "  ],\n  \"mmap_vs_buffer_speedup\": " << mmap_speedup
         << ",\n  \"engine\": [\n";
    for (int i = 0; i < 3; ++i)
        json << "    {\"threads\": " << thread_counts[i]
             << ", \"wall_s\": " << engine_m[i].wall_s
             << ", \"records_per_sec\": "
             << static_cast<double>(engine_m[i].records) / engine_m[i].wall_s
             << ", \"bytes_per_sec\": " << file_bytes / engine_m[i].wall_s
             << ", \"speedup\": " << engine_m[0].wall_s / engine_m[i].wall_s
             << "}" << (i == 2 ? "\n" : ",\n");
    json << "  ],\n  \"t4_vs_t1_speedup\": " << t4_speedup
         << ",\n  \"identical_output\": " << (identical ? "true" : "false")
         << "\n}\n";

    std::printf("\n%s", json.str().c_str());
    std::ofstream("BENCH_io.json") << json.str();
    std::printf("# wrote BENCH_io.json\n");

    std::filesystem::remove_all(dir);
    return identical ? 0 : 1;
}

// ---------------------------------------------------- morsel-target sweep

/// Deterministic xorshift64*: every run and host generates the same input.
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t next() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1DULL;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// High-cardinality profile records: a zipf(1) call path out of 256, a
/// rank out of 16 and an iteration out of 4 (~14k distinct keys over
/// 96k records), plus two metrics. Written as \a nfiles files, or as one
/// file holding the same records when \a nfiles is 1 and \a per_file is
/// their total.
std::vector<std::string> write_highcard(const std::string& dir, const std::string& stem,
                                        int nfiles, int per_file) {
    constexpr int kPaths = 256;
    std::vector<std::string> paths;
    for (int i = 0; i < kPaths; ++i)
        paths.push_back("main/phase_" + std::to_string(i % 4) + "/region_" +
                        std::to_string(i / 4 % 4) + "/kernel_" +
                        std::to_string(i / 16) + "/block_" + std::to_string(i % 16));
    std::vector<double> cdf(kPaths);
    double total = 0;
    for (int i = 0; i < kPaths; ++i)
        cdf[i] = total += 1.0 / (i + 1);
    Rng rng(0x5EEDULL);
    std::vector<std::string> files;
    for (int f = 0; f < nfiles; ++f) {
        files.push_back(dir + "/" + stem + "-" + std::to_string(f) + ".cali");
        std::ofstream os(files.back());
        CaliWriter w(os);
        for (int i = 0; i < per_file; ++i) {
            const auto rank = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), rng.unit() * total) -
                cdf.begin());
            RecordMap r;
            r.append("callpath", Variant(paths[std::min<std::size_t>(rank, kPaths - 1)]));
            r.append("mpi.rank", Variant(static_cast<long long>(rng.below(16))));
            r.append("iteration#mainloop", Variant(static_cast<long long>(rng.below(4))));
            r.append("time.ns", Variant(static_cast<long long>(500 + rng.below(100000))));
            r.append("mem.bytes", Variant(static_cast<long long>(rng.below(1 << 20))));
            w.write_record(r);
        }
    }
    return files;
}

struct SweepPoint {
    double wall_s       = 0;
    double merge_ms     = 0;
    std::size_t morsels = 0;
    std::string output;
};

SweepPoint run_target(const QuerySpec& spec, const std::vector<std::string>& files,
                      std::size_t target, std::size_t threads, int reps) {
    SweepPoint best;
    for (int rep = 0; rep < reps; ++rep) {
        engine::EngineOptions opts;
        opts.threads          = threads;
        opts.bytes_per_morsel = target;
        const std::uint64_t t0 = now_ns();
        engine::ParallelQueryProcessor eng(spec, opts);
        QueryProcessor& proc = eng.run(files);
        std::ostringstream os;
        proc.write(os);
        const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
        if (rep == 0 || wall_s < best.wall_s) {
            best.wall_s   = wall_s;
            best.merge_ms = static_cast<double>(eng.stats().merge_ns) * 1e-6;
        }
        if (rep == 0) {
            best.morsels = eng.stats().morsels;
            best.output  = os.str();
        }
    }
    return best;
}

int run_morsel_sweep(int reps) {
    // the offline_highcard layout: 48 per-rank files of 2000 records
    constexpr int nfiles   = 48;
    constexpr int per_file = 2000;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "calib-bench-ms-data").string();
    std::filesystem::create_directories(dir);
    std::printf("\n# morsel-target sweep: %d files x %d records, and one file of "
                "all of them...\n",
                nfiles, per_file);
    const std::vector<std::string> small =
        write_highcard(dir, "small", nfiles, per_file);
    const std::vector<std::string> one = write_highcard(dir, "one", 1, nfiles * per_file);
    std::uint64_t small_bytes = 0;
    for (const std::string& f : small)
        small_bytes += std::filesystem::file_size(f);

    // JSON output renders doubles exactly, so the identity check sees
    // every bit of the averages
    const QuerySpec spec = parse_calql(
        "SELECT callpath,mpi.rank,iteration#mainloop,count,sum(time.ns) AS total_ns,"
        "min(time.ns),max(time.ns),avg(time.ns) "
        "GROUP BY callpath,mpi.rank,iteration#mainloop "
        "ORDER BY total_ns DESC LIMIT 100 FORMAT json");
    const std::pair<const char*, std::size_t> targets[] = {
        {"perfile", 0},          {"512k", std::size_t(512) << 10},
        {"1m", std::size_t(1) << 20}, {"2m", std::size_t(2) << 20},
        {"4m", std::size_t(4) << 20}};
    const std::pair<const char*, const std::vector<std::string>*> shapes[] = {
        {"files", &small}, {"onefile", &one}};

    std::printf("%8s %8s %8s %8s %10s %10s %6s\n", "shape", "target", "threads",
                "morsels", "wall_s", "merge_ms", "ident");
    std::ostringstream json;
    json << "{\n  \"bench\": \"morsel\",\n  " << meta_json() << ",\n"
         << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
         << ",\n  \"files\": " << nfiles << ",\n  \"records_per_file\": " << per_file
         << ",\n  \"input_bytes\": " << small_bytes << ",\n  \"results\": [";
    int violations = 0;
    bool first     = true;
    for (const auto& [shape, files] : shapes) {
        for (const auto& [label, target] : targets) {
            std::string reference;
            for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
                const SweepPoint p = run_target(spec, *files, target, threads, reps);
                if (threads == 1)
                    reference = p.output;
                const bool identical = p.output == reference;
                violations += identical ? 0 : 1;
                std::printf("%8s %8s %8zu %8zu %10.4f %10.3f %6s\n", shape, label,
                            threads, p.morsels, p.wall_s, p.merge_ms,
                            identical ? "yes" : "NO");
                json << (first ? "" : ",") << "\n    {\"name\": \"" << shape << "-"
                     << label << "-t" << threads << "\", \"wall_s\": " << p.wall_s
                     << ", \"merge_ms\": " << p.merge_ms
                     << ", \"morsels\": " << p.morsels << "}";
                first = false;
            }
        }
    }
    json << "\n  ],\n  \"identity_violations\": " << violations << "\n}\n";

    std::printf("\n%s", json.str().c_str());
    std::ofstream("BENCH_morsel.json") << json.str();
    std::printf("# wrote BENCH_morsel.json\n");
    std::filesystem::remove_all(dir);
    return violations == 0 ? 0 : 1;
}

} // namespace

int main() {
    const int nfiles = env_int("CALIB_BENCH_RP_FILES", 4);
    const int reps   = env_int("CALIB_BENCH_RP_REPS", 3);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "calib-bench-rp-data").string();

    paradis::ParadisConfig dataset_config;
    std::printf("# record pipeline: generating %d files x %d records...\n",
                nfiles, dataset_config.records_per_file);
    const std::vector<std::string> files =
        paradis::generate_dataset(dir, nfiles, dataset_config);

    const QuerySpec spec = parse_calql(
        "AGGREGATE sum(time.inclusive.duration),count GROUP BY kernel,mpi.function");

    // resolve-once accounting comes from the "reader.*" metrics; enabling
    // them costs one relaxed fetch_add per event, negligible vs. parsing
    calib::obs::set_enabled(true);
    const auto& mreg = calib::obs::MetricsRegistry::instance();
    const std::int64_t res0     = mreg.value("reader.name_resolutions");
    const std::int64_t entries0 = mreg.value("reader.entries");
    const Measurement batched_path =
        best_of(reps, [&] { return run_batched_path(spec, files, 1024, 0); });
    // accumulated over reps; the ratio below is rep-invariant
    const std::int64_t name_resolutions =
        mreg.value("reader.name_resolutions") - res0;
    const std::int64_t entries = mreg.value("reader.entries") - entries0;
    calib::obs::set_enabled(false);

    // sort-spill: high-cardinality GROUP BY * under a 64 KiB budget vs
    // unbounded (spill overhead series; group set exceeds the budget)
    const QuerySpec star_spec = parse_calql(
        "AGGREGATE sum(time.inclusive.duration),count GROUP BY *");
    const Measurement inmem_path =
        best_of(reps, [&] { return run_batched_path(star_spec, files, 1024, 0); });
    const Measurement spill_path = best_of(
        reps, [&] { return run_batched_path(star_spec, files, 1024, 64 * 1024); });

    const double batched_rps =
        static_cast<double>(batched_path.records) / batched_path.wall_s;
    const double spill_overhead = spill_path.wall_s / inmem_path.wall_s;
    // resolutions per entry (resolve-once contract: << 1)
    const double res_per_entry =
        static_cast<double>(name_resolutions) / static_cast<double>(entries);

    std::printf("%12s %12s %16s\n", "path", "wall (s)", "records/sec");
    std::printf("%12s %12.5f %16.0f\n", "batched", batched_path.wall_s, batched_rps);
    std::printf("# spill (GROUP BY *, 64 KiB budget): in-memory %.5fs, "
                "spilled %.5fs (%.2fx overhead)\n",
                inmem_path.wall_s, spill_path.wall_s, spill_overhead);
    std::printf("# reader: %llu records, %lld entries, %lld name resolutions "
                "(%.6f per entry)\n",
                static_cast<unsigned long long>(batched_path.records),
                static_cast<long long>(entries),
                static_cast<long long>(name_resolutions), res_per_entry);

    std::ostringstream json;
    json << "{\n  \"bench\": \"record_pipeline\",\n  " << meta_json()
         << ",\n"
         << "  \"files\": " << nfiles << ",\n"
         << "  \"records\": " << batched_path.records << ",\n  \"results\": [\n"
         << "    {\"path\": \"batched\", \"wall_s\": " << batched_path.wall_s
         << ", \"records_per_sec\": " << batched_rps << "}\n  ],\n"
         << "  \"spill\": {\"inmem_wall_s\": " << inmem_path.wall_s
         << ", \"spill_wall_s\": " << spill_path.wall_s
         << ", \"overhead\": " << spill_overhead << "},\n"
         << "  \"reader_name_resolutions\": " << name_resolutions << ",\n"
         << "  \"reader_entries\": " << entries << ",\n"
         << "  \"resolutions_per_entry\": " << res_per_entry << "\n}\n";

    std::printf("\n%s", json.str().c_str());
    std::ofstream("BENCH_record_pipeline.json") << json.str();
    std::printf("# wrote BENCH_record_pipeline.json\n");

    std::filesystem::remove_all(dir);

    const int io = run_io_bench(spec, reps);
    const int sweep = run_morsel_sweep(reps);
    return io != 0 ? io : sweep;
}
