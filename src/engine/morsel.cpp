#include "morsel.hpp"

#include "../obs/metrics.hpp"

#include <optional>

#include <sys/stat.h>

namespace calib::engine {

namespace {
obs::Counter engine_morsels("engine.morsels");
// planned input bytes per morsel: with engine.morsel_records (recorded per
// morsel after phase 1), --stats shows the plan the target produced
obs::Histogram engine_morsel_bytes("engine.morsel_bytes");

/// Size of a regular file; none for '-' (stdin), pipes and other
/// non-regular files, or a failed stat().
std::optional<std::uint64_t> regular_file_size(const std::string& path) {
    struct stat st;
    if (path == "-" || ::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
        return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
}

/// Pack consecutive whole files into morsels of at least \a target bytes.
void pack_files(const std::vector<std::string>& files, Morsel::Kind kind,
                std::size_t target, std::vector<Morsel>& morsels) {
    const Morsel empty{kind, {}, 0, 0, nullptr};
    Morsel open = empty;
    const auto close = [&] {
        if (!open.paths.empty())
            morsels.push_back(std::move(open));
        open = empty;
    };
    for (const std::string& f : files) {
        const std::optional<std::uint64_t> size = regular_file_size(f);
        if (!size || *size >= target) {
            // unknown or at-target sizes never share a morsel
            close();
            morsels.push_back({kind, {f}, size.value_or(0), 0, nullptr});
            continue;
        }
        open.paths.push_back(f);
        open.bytes += *size;
        if (open.bytes >= target)
            close();
    }
    close();
}

} // namespace

std::vector<Morsel> make_morsels(const std::vector<std::string>& files,
                                 const MorselOptions& opts) {
    std::vector<Morsel> morsels;

    if (opts.json_input || files.size() != 1) {
        pack_files(files,
                   opts.json_input ? Morsel::Kind::JsonFiles : Morsel::Kind::CaliFiles,
                   opts.bytes_per_morsel, morsels);
    } else {
        // single file: map it once and split into line-aligned byte ranges
        // (stdin and pipes cannot be planned twice — the source slurps them
        // into its fallback buffer, so chunked reads still work)
        const std::string& file = files.front();
        const std::size_t chunk_bytes =
            opts.bytes_per_morsel > 0 ? opts.bytes_per_morsel : SIZE_MAX;
        auto source = std::make_shared<const CaliFileSource>(file, chunk_bytes);
        const auto& chunks = source->chunks();
        if (chunks.size() <= 1) {
            // too small to split: a whole-file morsel (the serial path
            // re-reads the file; dropping the source unmaps it)
            morsels.push_back(
                {Morsel::Kind::CaliFiles, {file}, source->size_bytes(), 0, nullptr});
        } else {
            for (std::size_t i = 0; i < chunks.size(); ++i)
                morsels.push_back({Morsel::Kind::CaliBytes, {file},
                                   chunks[i].end - chunks[i].begin, i, source});
        }
    }

    engine_morsels.add(morsels.size());
    for (const Morsel& m : morsels)
        engine_morsel_bytes.record(m.bytes);
    return morsels;
}

} // namespace calib::engine
