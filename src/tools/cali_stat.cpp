// cali-stat: dataset inspection tool. Prints record counts, the attribute
// inventory (type, occurrence count, distinct values, numeric min/max),
// and per-file globals of one or more calib stream files — the "what is
// in this dataset?" step before writing queries.
#include "../calib.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

struct AttributeStats {
    std::uint64_t occurrences = 0;
    std::set<std::string> values; ///< capped sample of distinct values
    bool values_capped = false;
    bool numeric       = true;
    double min         = 1e300;
    double max         = -1e300;
    calib::Variant::Type type = calib::Variant::Type::Empty;

    static constexpr std::size_t value_cap = 64;

    void update(const calib::Variant& v) {
        ++occurrences;
        if (type == calib::Variant::Type::Empty)
            type = v.type();
        if (v.is_numeric()) {
            min = std::min(min, v.to_double());
            max = std::max(max, v.to_double());
        } else {
            numeric = false;
        }
        if (values.size() < value_cap)
            values.insert(v.to_string());
        else
            values_capped = true;
    }
};

} // namespace

int main(int argc, char** argv) {
    bool show_globals = false;
    bool show_values  = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-g" || arg == "--globals")
            show_globals = true;
        else if (arg == "-v" || arg == "--values")
            show_values = true;
        else if (arg == "-h" || arg == "--help") {
            std::puts("usage: cali-stat [-g|--globals] [-v|--values] <file.cali>...");
            return 0;
        } else if (arg == "-") {
            files.push_back(arg); // standard input
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cali-stat: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::puts("usage: cali-stat [-g|--globals] [-v|--values] <file.cali>...");
        return 2;
    }

    try {
        // batched scan: the reader resolves each attribute name once, and
        // the per-entry hot loop indexes a dense vector — no string hashing
        calib::AttributeRegistry registry;
        std::vector<AttributeStats> by_id;
        std::uint64_t records = 0, entries = 0;
        calib::IdRecord row;

        for (const std::string& file : files) {
            calib::IdRecord globals;
            std::uint64_t file_records = 0;
            calib::CaliReader::read_file_batches(
                file, registry, calib::RecordBatch::default_rows,
                [&](calib::RecordBatch& batch) {
                    records += batch.rows();
                    file_records += batch.rows();
                    for (std::size_t r = 0; r < batch.rows(); ++r) {
                        batch.materialize(r, row);
                        for (const calib::Entry& e : row) {
                            ++entries;
                            if (e.attribute >= by_id.size())
                                by_id.resize(e.attribute + 1);
                            by_id[e.attribute].update(e.value);
                        }
                    }
                },
                &globals);

            std::printf("%s: %llu records\n", file.c_str(),
                        static_cast<unsigned long long>(file_records));
            if (show_globals)
                for (const calib::Entry& e : globals)
                    std::printf("    %s = %s\n", registry.get(e.attribute).name(),
                                e.value.to_string().c_str());
        }

        // restore names for the report, sorted as before (by name)
        std::map<std::string, AttributeStats> attributes;
        for (calib::id_t id = 0; id < by_id.size(); ++id)
            if (by_id[id].occurrences > 0)
                attributes.emplace(registry.get(id).name_view(),
                                   std::move(by_id[id]));

        std::printf("\n%llu records, %llu entries, %zu attributes\n\n",
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(entries), attributes.size());

        std::printf("%-32s %-8s %12s %10s %14s %14s\n", "attribute", "type",
                    "occurrences", "distinct", "min", "max");
        for (const auto& [name, stat] : attributes) {
            std::string distinct = std::to_string(stat.values.size());
            if (stat.values_capped)
                distinct = ">" + distinct;
            char min_s[32] = "-", max_s[32] = "-";
            if (stat.numeric && stat.occurrences > 0) {
                std::snprintf(min_s, sizeof(min_s), "%.6g", stat.min);
                std::snprintf(max_s, sizeof(max_s), "%.6g", stat.max);
            }
            std::printf("%-32s %-8s %12llu %10s %14s %14s\n", name.c_str(),
                        calib::Variant::type_name(stat.type),
                        static_cast<unsigned long long>(stat.occurrences),
                        distinct.c_str(), min_s, max_s);
            if (show_values && !stat.numeric) {
                std::string line;
                for (const std::string& v : stat.values) {
                    if (!line.empty())
                        line += ", ";
                    if (line.size() > 90) {
                        line += "...";
                        break;
                    }
                    line += v;
                }
                std::printf("    values: %s\n", line.c_str());
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cali-stat: %s\n", e.what());
        return 1;
    }
    return 0;
}
