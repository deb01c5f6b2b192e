#include "inputs.hpp"

#include "apps/paradis/generator.hpp"
#include "fuzz_rng.hpp"
#include "io/calireader.hpp"
#include "io/caliwriter.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <unordered_set>

namespace pb {

using calib::Variant;
using calib::fuzz::Rng;

namespace {

/// Inverse-CDF sampler of a zipf(1) rank over \a n items, in a
/// seed-dependent item order (so each seed has its own hot keys).
class Zipf {
public:
    Zipf(std::size_t n, Rng& rng) : cdf_(n), order_(n) {
        double total = 0;
        for (std::size_t i = 0; i < n; ++i)
            cdf_[i] = total += 1.0 / static_cast<double>(i + 1);
        for (double& c : cdf_)
            c /= total;
        for (std::size_t i = 0; i < n; ++i)
            order_[i] = i;
        for (std::size_t i = n; i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    std::size_t operator()(Rng& rng) const {
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
        const std::size_t rank =
            std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                  cdf_.size() - 1);
        return order_[rank];
    }

private:
    std::vector<double> cdf_;
    std::vector<std::size_t> order_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
    return rng.next();
}

std::vector<std::string> call_paths() {
    static const char* phases[]  = {"init", "step", "exchange", "io"};
    static const char* regions[] = {"hydro", "amr", "halo", "diag"};
    std::vector<std::string> out;
    for (int i = 0; i < kHighcardPaths; ++i)
        out.push_back(std::string("main/") + phases[i % 4] + "/" +
                      regions[(i / 4) % 4] + "/kernel_" + std::to_string(i / 16) +
                      "/block_" + std::to_string(i % 16));
    return out;
}

std::string file_path(const std::string& dir, const std::string& stem, int i) {
    return dir + "/" + stem + "-" + std::to_string(i) + ".cali";
}

void fnv(std::uint64_t& h, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
}

} // namespace

void highcard_records(std::uint64_t seed, int file,
                      const std::function<void(calib::RecordMap&&)>& sink) {
    static const std::vector<std::string> paths = call_paths();
    Rng order_rng(stream_seed(seed, 1000)); // one hot-path order per seed
    const Zipf zipf(paths.size(), order_rng);
    Rng rng(stream_seed(seed, 2000 + static_cast<std::uint64_t>(file)));
    for (int i = 0; i < kHighcardRecordsPerFile; ++i) {
        calib::RecordMap rec;
        rec.append("callpath", Variant(paths[zipf(rng)]));
        rec.append("mpi.rank",
                   Variant(static_cast<long long>(rng.below(kHighcardRanks))));
        rec.append("iteration#mainloop",
                   Variant(static_cast<long long>(rng.below(kHighcardIterations))));
        rec.append("time.ns", Variant(static_cast<long long>(500 + rng.below(100000))));
        rec.append("mem.bytes", Variant(static_cast<long long>(rng.below(1 << 20))));
        sink(std::move(rec));
    }
}

std::vector<std::string> offline_files(const std::string& workload,
                                       const std::string& dir) {
    std::vector<std::string> out;
    if (workload == "offline_paradis") {
        for (int r = 0; r < kParadisFiles; ++r)
            out.push_back(dir + "/paradis-" + std::to_string(r) + ".cali");
    } else if (workload == "offline_highcard") {
        for (int f = 0; f < kHighcardFiles; ++f)
            out.push_back(file_path(dir, "highcard", f));
    } else {
        throw std::runtime_error("no input files for workload " + workload);
    }
    return out;
}

std::vector<std::string> generate_offline(const std::string& workload,
                                          const std::string& dir,
                                          std::uint64_t seed) {
    std::filesystem::create_directories(dir);
    if (workload == "offline_paradis") {
        calib::paradis::ParadisConfig config;
        config.records_per_file = kParadisRecordsPerFile;
        config.seed             = stream_seed(seed, 1);
        return calib::paradis::generate_dataset(dir, kParadisFiles, config);
    }
    const std::vector<std::string> files = offline_files(workload, dir);
    for (int f = 0; f < kHighcardFiles; ++f) {
        std::ofstream os(files[static_cast<std::size_t>(f)]);
        calib::CaliWriter writer(os);
        highcard_records(seed, f, [&](calib::RecordMap&& r) { writer.write_record(r); });
        if (!os)
            throw std::runtime_error("cannot write " + files[static_cast<std::size_t>(f)]);
    }
    return files;
}

void make_live_mix(std::uint64_t seed, int pusher, std::size_t records,
                   LiveMix& mix) {
    static const char* functions[] = {
        "main",           "main/solve",      "main/solve/hydro", "main/solve/amr",
        "main/solve/halo", "main/io",        "main/io/checkpoint", "main/diag",
        "main/solve/hydro/advec", "main/solve/hydro/pdv", "main/solve/amr/regrid",
        "main/solve/amr/flux", "main/solve/halo/pack", "main/solve/halo/unpack",
        "main/diag/norms", "main/diag/energy"};
    calib::AttributeRegistry& reg = mix.registry;
    const calib::id_t function = reg.create("function", Variant::Type::String, 0).id();
    const calib::id_t kernel   = reg.create("kernel", Variant::Type::String, 0).id();
    const calib::id_t rank     = reg.create("mpi.rank", Variant::Type::Int, 0).id();
    const calib::id_t owner    = reg.create("pusher", Variant::Type::Int, 0).id();
    const calib::id_t weight   = reg.create("sample.weight", Variant::Type::Int, 0).id();

    Rng rng(stream_seed(seed, 3000 + static_cast<std::uint64_t>(pusher)));
    mix.templates.clear();
    mix.weights.clear();
    for (int t = 0; t < kLiveTemplates; ++t) {
        calib::IdRecord rec;
        // every template has the same five attributes, so the cost per
        // record does not depend on which templates a seed makes hot
        rec.append(function, Variant(std::string_view(functions[rng.below(16)])));
        rec.append(kernel, Variant(kernel_names()[rng.below(kKernelNames)]));
        rec.append(rank, Variant(static_cast<long long>(pusher * 8 + rng.below(8))));
        rec.append(owner, Variant(static_cast<long long>(pusher)));
        // the template index keeps every template a distinct row
        const auto w = static_cast<long long>(1 + t);
        rec.append(weight, Variant(w));
        mix.templates.push_back(std::move(rec));
        mix.weights.push_back(w);
    }
    const Zipf zipf(kLiveTemplates, rng);
    mix.sequence.resize(records);
    for (std::uint16_t& s : mix.sequence)
        s = static_cast<std::uint16_t>(zipf(rng));
}

const std::vector<std::string>& kernel_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        static const char* stems[] = {"advec_cell", "advec_mom", "pdv",
                                      "viscosity",  "accelerate", "flux_calc",
                                      "ideal_gas",  "revert",     "reset",
                                      "update_halo", "calc_dt",   "field_summary"};
        for (const char* s : stems)
            out.emplace_back(s);
        return out;
    }();
    return names;
}

Schedule make_schedule(std::uint64_t seed) {
    Rng rng(stream_seed(seed, 4000));
    Schedule s;
    // every kernel name runs at least once, so the profile's group count
    // is the same for every seed; the remaining slots repeat kernels
    for (int i = 0; i < kLevels * kKernelsPerLevel; ++i)
        s.kernels.push_back(i < kKernelNames ? i
                                             : static_cast<int>(rng.below(kKernelNames)));
    for (std::size_t i = s.kernels.size(); i > 1; --i)
        std::swap(s.kernels[i - 1], s.kernels[rng.below(i)]);
    for (int i = 0; i < kLevels * kKernelsPerLevel; ++i)
        s.work.push_back(static_cast<int>(40 + rng.below(80)));
    return s;
}

std::uint64_t snapshots_per_iteration() {
    // set(iteration) + per level: begin/end of amr.level, function, every
    // kernel, annotation, and the halo mpi.function + the closing
    // Allreduce begin/end. Every update triggers one snapshot.
    return 1 + kLevels * (2 + 2 + 2 * kKernelsPerLevel + 2 + 2) + 2;
}

InputSummary summarize(const std::string& workload, const std::string& dir,
                       std::uint64_t seed) {
    InputSummary s;
    s.digest = 0xcbf29ce484222325ULL;
    if (workload == "offline_paradis" || workload == "offline_highcard") {
        std::filesystem::remove_all(dir);
        const std::vector<std::string> files = generate_offline(workload, dir, seed);
        std::set<std::string> groups;
        for (const std::string& f : files) {
            std::ifstream is(f, std::ios::binary);
            const std::string bytes((std::istreambuf_iterator<char>(is)),
                                    std::istreambuf_iterator<char>());
            fnv(s.digest, bytes.data(), bytes.size());
            calib::CaliReader::read_file(f, [&](calib::RecordMap&& r) {
                ++s.records;
                if (workload == "offline_paradis")
                    groups.insert(r.get("kernel").to_string() + "|" +
                                  r.get("mpi.function").to_string());
                else
                    groups.insert(r.get("callpath").to_string() + "|" +
                                  r.get("mpi.rank").to_string() + "|" +
                                  r.get("iteration#mainloop").to_string());
            });
        }
        s.files  = files.size();
        s.groups = groups.size();
        std::filesystem::remove_all(dir);
    } else if (workload == "live_exact") {
        const std::size_t records = 100000;
        for (int p = 0; p < kPushers; ++p) {
            LiveMix mix;
            make_live_mix(seed, p, records, mix);
            std::set<std::string> rows;
            for (const calib::IdRecord& t : mix.templates) {
                std::string row;
                for (const calib::Entry& e : t.span())
                    row += e.value.to_string() + "|";
                rows.insert(row);
                fnv(s.digest, row.data(), row.size());
            }
            fnv(s.digest, mix.sequence.data(), mix.sequence.size() * 2);
            std::unordered_set<std::uint16_t> used(mix.sequence.begin(),
                                                   mix.sequence.end());
            s.records += records;
            s.groups += std::min(rows.size(), used.size());
        }
        s.files = kPushers;
    } else if (workload == "runtime_event") {
        const Schedule sch = make_schedule(seed);
        fnv(s.digest, sch.kernels.data(), sch.kernels.size() * sizeof(int));
        fnv(s.digest, sch.work.data(), sch.work.size() * sizeof(int));
        s.files   = sch.kernels.size();
        s.records = snapshots_per_iteration();
        s.groups  = std::set<int>(sch.kernels.begin(), sch.kernels.end()).size();
    } else {
        throw std::runtime_error("unknown workload " + workload);
    }
    return s;
}

} // namespace pb
