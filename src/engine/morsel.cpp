#include "morsel.hpp"

#include "../obs/metrics.hpp"

namespace calib::engine {

namespace {
obs::Counter engine_morsels("engine.morsels");
// record count per morsel; known up front for byte-range chunks (the
// planning scan counts 'R' lines per chunk as it finds the split points)
obs::Histogram engine_morsel_records("engine.morsel_records");
} // namespace

std::vector<Morsel> make_morsels(const std::vector<std::string>& files,
                                 const MorselOptions& opts) {
    std::vector<Morsel> morsels;

    if (opts.json_input) {
        for (const std::string& f : files)
            morsels.push_back({Morsel::Kind::JsonFile, f, 0, nullptr});
        engine_morsels.add(morsels.size());
        return morsels;
    }

    if (files.size() != 1) {
        for (const std::string& f : files)
            morsels.push_back({Morsel::Kind::CaliFile, f, 0, nullptr});
        engine_morsels.add(morsels.size());
        return morsels;
    }

    // single file: map it once and split into line-aligned byte ranges
    // (stdin and pipes cannot be planned twice — the source slurps them
    // into its fallback buffer, so chunked reads still work)
    const std::string& file = files.front();
    const std::size_t chunk_bytes =
        opts.bytes_per_morsel > 0 ? opts.bytes_per_morsel : SIZE_MAX;
    auto source = std::make_shared<const CaliFileSource>(file, chunk_bytes);

    if (source->chunks().size() <= 1) {
        // too small to split: a whole-file morsel (the serial path re-reads
        // the file; dropping the source unmaps it)
        morsels.push_back({Morsel::Kind::CaliFile, file, 0, nullptr});
        engine_morsels.add(1);
        engine_morsel_records.record(source->num_records());
        return morsels;
    }
    for (std::size_t i = 0; i < source->chunks().size(); ++i) {
        morsels.push_back({Morsel::Kind::CaliBytes, file, i, source});
        engine_morsel_records.record(source->chunks()[i].records);
    }
    engine_morsels.add(morsels.size());
    return morsels;
}

} // namespace calib::engine
