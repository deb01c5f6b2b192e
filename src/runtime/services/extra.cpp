// Additional built-in services:
//
//   report   — at channel close, run a CalQL query over all threads'
//              buffered data and print the formatted result (Caliper's
//              runtime-report functionality; on-line analytical
//              aggregation, paper §II-C).
//              config: report.query, report.filename (stderr|stdout|path)
//
//   textlog  — print every snapshot as attr=value text (debugging aid).
//              config: textlog.filename (stderr|stdout|path)
//
//   cycles   — contribute a "cycles.duration" CPU-cycle counter delta to
//              every snapshot (TSC-based stand-in for the paper's hardware
//              performance counter access).
//
//   memusage — contribute "mem.highwater.kb" (peak RSS) to snapshots.
#include "../caliper.hpp"
#include "../channel.hpp"

#include "../../common/log.hpp"
#include "../../query/processor.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace calib {

namespace {

std::uint64_t read_cycle_counter() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

/// Shared output stream for textlog/report: stderr, stdout, or a file.
class OutputStream {
public:
    explicit OutputStream(const std::string& target) {
        if (target.empty() || target == "stderr")
            os_ = &std::cerr;
        else if (target == "stdout")
            os_ = &std::cout;
        else {
            file_ = std::make_unique<std::ofstream>(target);
            if (*file_)
                os_ = file_.get();
            else {
                log_error() << "cannot open output file " << target;
                os_ = &std::cerr;
            }
        }
    }

    std::ostream& stream() { return *os_; }
    std::mutex& mutex() { return mutex_; }

private:
    std::ostream* os_;
    std::unique_ptr<std::ofstream> file_;
    std::mutex mutex_;
};

} // namespace

void register_report_service();
void register_textlog_service();
void register_cycles_service();
void register_memusage_service();

void register_report_service() {
    ServiceRegistry::instance().add(
        "report", /*priority=*/60, [](Caliper&, Channel& channel) {
            const std::string query = channel.config().get(
                "report.query",
                "AGGREGATE count,sum(time.duration) GROUP BY * "
                "ORDER BY sum#time.duration DESC");
            const std::string target = channel.config().get("report.filename",
                                                            "stderr");

            channel.finish_cbs.push_back([query, target](Caliper& c, Channel& ch) {
                try {
                    QueryProcessor proc(parse_calql(query));
                    RecordMapFeeder feed(proc);
                    c.flush_all(&ch, [&feed](RecordMap&& r) { feed.add(r); });
                    feed.flush();
                    OutputStream out(target);
                    std::lock_guard<std::mutex> lock(out.mutex());
                    out.stream() << "== report: channel '" << ch.name() << "' ==\n";
                    proc.write(out.stream());
                    out.stream().flush();
                } catch (const std::exception& e) {
                    log_error() << "report service: " << e.what();
                }
            });
        });
}

void register_textlog_service() {
    ServiceRegistry::instance().add(
        "textlog", /*priority=*/45, [](Caliper&, Channel& channel) {
            auto out = std::make_shared<OutputStream>(
                channel.config().get("textlog.filename", "stderr"));

            channel.process_cbs.push_back(
                [out](Caliper& c, Channel&, ThreadData& td, ThreadChannelState&,
                      const SnapshotRecord& rec) {
                    std::string line = "calib[" + td.label + "]:";
                    for (const Entry& e : rec) {
                        const Attribute a = c.registry().get(e.attribute);
                        if (!a.valid() || a.is_hidden())
                            continue;
                        line += ' ';
                        line += a.name();
                        line += '=';
                        line += e.value.to_string();
                    }
                    std::lock_guard<std::mutex> lock(out->mutex());
                    out->stream() << line << '\n';
                });

            channel.finish_cbs.push_back([out](Caliper&, Channel&) {
                std::lock_guard<std::mutex> lock(out->mutex());
                out->stream().flush();
            });
        });
}

void register_cycles_service() {
    ServiceRegistry::instance().add(
        "cycles", /*priority=*/11, [](Caliper& c, Channel& channel) {
            const Attribute attr = c.create_attribute(
                "cycles.duration", Variant::Type::UInt,
                prop::as_value | prop::aggregatable | prop::skip_key);

            channel.snapshot_cbs.push_back(
                [attr](Caliper&, Channel&, ThreadData&, ThreadChannelState& state,
                       SnapshotRecord& rec) {
                    const std::uint64_t tsc = read_cycle_counter();
                    if (state.last_tsc == 0)
                        state.last_tsc = tsc;
                    rec.append(attr.id(),
                               Variant(static_cast<unsigned long long>(
                                   tsc - state.last_tsc)));
                    state.last_tsc = tsc;
                });
        });
}

void register_memusage_service() {
    ServiceRegistry::instance().add(
        "memusage", /*priority=*/12, [](Caliper& c, Channel& channel) {
            const Attribute attr = c.create_attribute(
                "mem.highwater.kb", Variant::Type::UInt,
                prop::as_value | prop::aggregatable | prop::skip_key);

            channel.snapshot_cbs.push_back(
                [attr](Caliper&, Channel&, ThreadData&, ThreadChannelState&,
                       SnapshotRecord& rec) {
                    rusage ru{};
                    getrusage(RUSAGE_SELF, &ru);
                    rec.append(attr.id(), Variant(static_cast<unsigned long long>(
                                              ru.ru_maxrss)));
                });
        });
}

} // namespace calib
