// Path service: exports the *full nesting stack* of selected attributes as
// a '/'-joined path attribute — the classic per-thread call-path profile
// dimension of traditional profilers (paper §VII), expressed as just
// another key:value attribute in our model.
//
// For an attribute "function" with stack [main, solve, kernel], every
// snapshot gains "function.path" = "main/solve/kernel". Grouping by the
// path attribute yields a call-path profile; FORMAT tree renders it.
//
// Config:
//   path.attributes   comma list of nested attributes to export
//                     (default "function")
#include "../caliper.hpp"
#include "../channel.hpp"

#include "../../common/util.hpp"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace calib {

namespace {

struct PathExport {
    std::string source;  ///< nested attribute to fold
    /// source id, resolved on blackboard updates (the attribute may be
    /// created after the channel); shared across threads, hence atomic
    std::atomic<id_t> source_id{invalid_id};
    Attribute path_attr; ///< "<source>.path"
};

} // namespace

void register_path_service();

void register_path_service() {
    ServiceRegistry::instance().add(
        "path", /*priority=*/14, [](Caliper& c, Channel& channel) {
            // keep the config string alive: split() returns views into it
            const std::string attr_list =
                channel.config().get("path.attributes", "function");
            std::vector<std::string> sources;
            for (std::string_view tok : util::split(attr_list, ',')) {
                tok = util::trim(tok);
                if (!tok.empty())
                    sources.emplace_back(tok);
            }
            auto exports = std::make_shared<std::vector<PathExport>>(sources.size());
            for (std::size_t i = 0; i < sources.size(); ++i) {
                PathExport& e = (*exports)[i];
                e.source      = sources[i];
                e.path_attr   = c.create_attribute(e.source + ".path",
                                                   Variant::Type::String,
                                                   prop::as_value);
            }

            // resolve late-created sources on updates, never per snapshot:
            // the snapshot path may run in the sampler's signal handler
            auto resolve = [exports](Caliper& c) {
                for (PathExport& e : *exports)
                    if (e.source_id.load(std::memory_order_relaxed) == invalid_id) {
                        const Attribute a = c.registry().find(e.source);
                        if (a.valid())
                            e.source_id.store(a.id(), std::memory_order_relaxed);
                    }
            };
            resolve(c);
            auto update_cb = [resolve](Caliper& c, Channel&, ThreadData&,
                                       const Attribute&, const Variant&) { resolve(c); };
            channel.pre_begin_cbs.push_back(update_cb);
            channel.pre_set_cbs.push_back(update_cb);

            channel.snapshot_cbs.push_back(
                [exports](Caliper&, Channel&, ThreadData& td, ThreadChannelState&,
                          SnapshotRecord& rec) {
                    std::vector<Variant> stack;
                    for (const PathExport& e : *exports) {
                        const id_t src = e.source_id.load(std::memory_order_relaxed);
                        if (src == invalid_id)
                            continue;
                        td.blackboard.values(src, stack);
                        if (stack.empty())
                            continue;
                        std::string path;
                        for (const Variant& v : stack) {
                            if (!path.empty())
                                path += '/';
                            path += v.to_string();
                        }
                        rec.append(e.path_attr.id(), Variant(path));
                    }
                });
        });
}

} // namespace calib
