// Caliper runtime tests: blackboard semantics, snapshot contents, and the
// event/timer/aggregate/trace/recorder service stack on a single thread.
//
// All tests share the process-global Caliper instance; each test creates
// its own uniquely-named channel and closes it before returning.
#include "calib.hpp"
#include "runtime/services/aggregate_config.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <span>
#include <thread>

using namespace calib;
using calib::test::find_record;

namespace {

/// RAII channel: closes on destruction.
struct TestChannel {
    TestChannel(const std::string& name, const RuntimeConfig& cfg)
        : channel(Caliper::instance().create_channel(name, cfg)) {}
    ~TestChannel() { Caliper::instance().close_channel(channel); }
    Channel* operator->() const { return channel; }
    Channel* get() const { return channel; }
    Channel* channel;
};

std::vector<RecordMap> flush_records(Channel* channel) {
    std::vector<RecordMap> out;
    Caliper::instance().flush_thread(
        channel, [&out](RecordMap&& r) { out.push_back(std::move(r)); });
    return out;
}

} // namespace

TEST(Blackboard, BeginEndNesting) {
    Caliper& c        = Caliper::instance();
    const Attribute a = c.create_attribute("bb.region", Variant::Type::String);

    EXPECT_TRUE(c.current(a).empty());
    c.begin(a, Variant("outer"));
    EXPECT_EQ(c.current(a), Variant("outer"));
    c.begin(a, Variant("inner"));
    EXPECT_EQ(c.current(a), Variant("inner"));
    EXPECT_EQ(c.depth(a), 2u);
    c.end(a);
    EXPECT_EQ(c.current(a), Variant("outer"));
    c.end(a);
    EXPECT_TRUE(c.current(a).empty());
    EXPECT_EQ(c.depth(a), 0u);
}

TEST(Blackboard, EndWithoutBeginIsSafe) {
    Caliper& c        = Caliper::instance();
    const Attribute a = c.create_attribute("bb.unbalanced", Variant::Type::String);
    c.end(a); // must not crash or corrupt
    EXPECT_EQ(c.depth(a), 0u);
}

TEST(Blackboard, SetOverwritesTop) {
    Caliper& c        = Caliper::instance();
    const Attribute a = c.create_attribute("bb.value", Variant::Type::Int,
                                           prop::as_value);
    c.set(a, Variant(1));
    c.set(a, Variant(2));
    EXPECT_EQ(c.current(a), Variant(2));
    EXPECT_EQ(c.depth(a), 1u);
}

TEST(Blackboard, PullSnapshotCapturesInnermostValues) {
    Caliper& c        = Caliper::instance();
    const Attribute r = c.create_attribute("bb.snap.region", Variant::Type::String);
    const Attribute i = c.create_attribute("bb.snap.iter", Variant::Type::Int,
                                           prop::as_value);
    c.begin(r, Variant("a"));
    c.begin(r, Variant("b"));
    c.set(i, Variant(17));

    SnapshotRecord snap;
    c.pull_snapshot(snap);
    EXPECT_EQ(snap.get(r.id()), Variant("b"));
    EXPECT_EQ(snap.get(i.id()), Variant(17));

    c.end(r);
    c.end(r);
}

TEST(Runtime, EventAggregationCountsAnnotationEvents) {
    TestChannel ch("evt-agg", RuntimeConfig{
                                  {"services.enable", "event,aggregate"},
                                  {"aggregate.key", "test.fn"},
                                  {"aggregate.ops", "count"},
                              });
    Annotation fn("test.fn");
    for (int i = 0; i < 3; ++i) {
        fn.begin(Variant("work"));
        fn.end();
    }

    auto out = flush_records(ch.get());
    // begin-snapshots (before push: no value) and end-snapshots (value set)
    RecordMap in_work = find_record(out, "test.fn", Variant("work"));
    EXPECT_EQ(in_work.get("count"), Variant(3ull)) << "one end event per region";
    double total = 0;
    for (const RecordMap& r : out)
        total += r.get("count").to_double();
    EXPECT_EQ(total, 6.0) << "3 begin + 3 end events";
}

TEST(Runtime, TimerProducesPlausibleDurations) {
    TestChannel ch("evt-timer", RuntimeConfig{
                                    {"services.enable", "event,timer,aggregate"},
                                    {"aggregate.key", "test.timed"},
                                    {"aggregate.ops", "count,sum(time.duration),"
                                                      "sum(time.inclusive.duration)"},
                                });
    Annotation fn("test.timed");
    fn.begin(Variant("spin"));
    // burn a little time so durations are strictly positive
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i)
        x = x + i * 0.5;
    fn.end();

    auto out = flush_records(ch.get());
    RecordMap in_spin = find_record(out, "test.timed", Variant("spin"));
    ASSERT_FALSE(in_spin.empty());
    EXPECT_GT(in_spin.get("sum#time.duration").to_double(), 0.0);
    EXPECT_GE(in_spin.get("sum#time.inclusive.duration").to_double(),
              in_spin.get("sum#time.duration").to_double() * 0.99)
        << "inclusive time covers the exclusive segment";
}

TEST(Runtime, TraceStoresEverySnapshot) {
    TestChannel ch("evt-trace", RuntimeConfig{
                                    {"services.enable", "event,trace"},
                                });
    Annotation fn("test.traced");
    for (int i = 0; i < 5; ++i) {
        fn.begin(Variant(i));
        fn.end();
    }
    auto out = flush_records(ch.get());
    EXPECT_EQ(out.size(), 10u) << "one trace record per begin/end event";
    // end-event records carry the region value
    int with_value = 0;
    for (const RecordMap& r : out)
        if (r.contains("test.traced"))
            ++with_value;
    EXPECT_EQ(with_value, 5);
}

TEST(Runtime, SetEventsTriggerSnapshots) {
    TestChannel ch("evt-set", RuntimeConfig{
                                  {"services.enable", "event,trace"},
                              });
    Annotation iter("test.seti", prop::as_value);
    iter.set(Variant(1));
    iter.set(Variant(2));
    EXPECT_EQ(flush_records(ch.get()).size(), 2u);
}

TEST(Runtime, SetEventsCanBeDisabled) {
    TestChannel ch("evt-noset", RuntimeConfig{
                                    {"services.enable", "event,trace"},
                                    {"event.enable_set", "false"},
                                });
    Annotation iter("test.noseti", prop::as_value);
    iter.set(Variant(1));
    iter.set(Variant(2));
    EXPECT_TRUE(flush_records(ch.get()).empty());
}

TEST(Runtime, AggregateQueryConfigWithWhere) {
    TestChannel ch("evt-query",
                   RuntimeConfig{
                       {"services.enable", "event,aggregate"},
                       {"aggregate.query",
                        "AGGREGATE count WHERE not(test.excluded) GROUP BY test.kept"},
                   });
    Annotation kept("test.kept"), excluded("test.excluded");

    kept.begin(Variant("visible"));
    kept.end();
    excluded.begin(Variant("hidden"));
    kept.begin(Variant("visible")); // while excluded is on the blackboard
    kept.end();
    excluded.end();

    auto out = flush_records(ch.get());
    double total = 0;
    for (const RecordMap& r : out) {
        EXPECT_FALSE(r.contains("test.excluded"));
        total += r.get("count").to_double();
    }
    // counted: first begin, first end, and excluded.begin (whose snapshot
    // fires *before* the excluded region lands on the blackboard)
    EXPECT_EQ(total, 3.0) << "events inside the excluded region filtered out";
}

TEST(Runtime, ClosedChannelStopsProcessing) {
    auto* channel =
        Caliper::instance().create_channel("evt-closed", RuntimeConfig{
                                                             {"services.enable",
                                                              "event,trace"},
                                                         });
    Annotation fn("test.closed");
    fn.begin(Variant(1));
    fn.end();
    auto before = flush_records(channel);
    EXPECT_EQ(before.size(), 2u);

    Caliper::instance().close_channel(channel);
    fn.begin(Variant(2));
    fn.end();
    EXPECT_EQ(flush_records(channel).size(), 2u) << "no new snapshots after close";
}

TEST(Runtime, TwoChannelsIndependentSchemes) {
    TestChannel by_fn("multi-a", RuntimeConfig{
                                     {"services.enable", "event,aggregate"},
                                     {"aggregate.key", "test.multi.fn"},
                                     {"aggregate.ops", "count"},
                                 });
    TestChannel by_iter("multi-b", RuntimeConfig{
                                       {"services.enable", "event,aggregate"},
                                       {"aggregate.key", "test.multi.iter"},
                                       {"aggregate.ops", "count"},
                                   });
    Annotation fn("test.multi.fn");
    Annotation iter("test.multi.iter", prop::as_value);
    for (int i = 0; i < 2; ++i) {
        iter.set(Variant(i));
        fn.begin(Variant("f"));
        fn.end();
    }
    auto a = flush_records(by_fn.get());
    auto b = flush_records(by_iter.get());
    EXPECT_FALSE(find_record(a, "test.multi.fn", Variant("f")).empty());
    EXPECT_FALSE(find_record(b, "test.multi.iter", Variant(1)).empty());
}

TEST(Runtime, PushSnapshotWithTriggerEntries) {
    TestChannel ch("trigger", RuntimeConfig{
                                  {"services.enable", "trace"},
                              });
    Caliper& c = Caliper::instance();
    const Attribute t =
        c.create_attribute("test.trigger", Variant::Type::Int, prop::as_value);
    SnapshotRecord trigger;
    trigger.append(t.id(), Variant(99));
    c.push_snapshot(ch.get(), &trigger);

    auto out = flush_records(ch.get());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("test.trigger"), Variant(99));
}

TEST(Runtime, RecorderWritesPerThreadFile) {
    calib::test::TempDir dir("recorder");
    TestChannel ch("rec", RuntimeConfig{
                              {"services.enable", "event,aggregate,recorder"},
                              {"aggregate.key", "test.rec"},
                              {"aggregate.ops", "count"},
                              {"recorder.filename", "out-%r.cali"},
                              {"recorder.directory", dir.str()},
                          });
    Caliper& c = Caliper::instance();
    c.set_thread_label("main");

    Annotation fn("test.rec");
    fn.begin(Variant("r"));
    fn.end();
    c.flush_thread(ch.get()); // recorder sink path

    auto records = CaliReader::read_file(dir.file("out-main.cali"));
    EXPECT_FALSE(records.empty());
    EXPECT_FALSE(find_record(records, "test.rec", Variant("r")).empty());
}

TEST(Runtime, ServiceListAndUnknownServiceTolerated) {
    TestChannel ch("svc", RuntimeConfig{
                              {"services.enable", "event,bogus-service,trace"},
                          });
    EXPECT_EQ(ch->services(), (std::vector<std::string>{"event", "trace"}));
    EXPECT_FALSE(ServiceRegistry::instance().available().empty());
}

TEST(Runtime, FindChannelByName) {
    TestChannel ch("findable", RuntimeConfig{});
    EXPECT_EQ(Caliper::instance().find_channel("findable"), ch.get());
    EXPECT_EQ(Caliper::instance().find_channel("no-such-channel"), nullptr);
}

TEST(Runtime, EventTriggerWhitelist) {
    TestChannel ch("evt-trigger", RuntimeConfig{
                                      {"services.enable", "event,trace"},
                                      {"event.trigger", "trig.wanted"},
                                  });
    Annotation wanted("trig.wanted"), ignored("trig.ignored");
    wanted.begin(Variant(1));
    ignored.begin(Variant(2)); // not in the trigger list: no snapshot
    ignored.end();
    wanted.end();
    EXPECT_EQ(flush_records(ch.get()).size(), 2u)
        << "only trig.wanted events trigger snapshots";
}

TEST(Runtime, EventTriggerResolvesLateAttributes) {
    // the trigger attribute is created *after* the channel
    TestChannel ch("evt-trigger-late", RuntimeConfig{
                                           {"services.enable", "event,trace"},
                                           {"event.trigger", "trig.late"},
                                       });
    Annotation late("trig.late");
    late.begin(Variant("x"));
    late.end();
    EXPECT_EQ(flush_records(ch.get()).size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential test: the context tree and the aggregate memo against a
// per-attribute-stack model of the blackboard. Random annotation programs
// run under an event+trace channel and an event+aggregate channel at once;
// every trace record must equal the model's capture, the aggregate flush
// must equal AggregationDB::process over the trace records, and current()
// and depth() must follow the model after every step.

namespace {

/// The pre-tree blackboard: one value stack per attribute id.
struct StackModel {
    std::map<id_t, std::vector<Variant>> stacks;

    void begin(id_t a, const Variant& v) { stacks[a].push_back(v); }
    bool end(id_t a) {
        auto& s = stacks[a];
        if (s.empty())
            return false;
        s.pop_back();
        return true;
    }
    void set(id_t a, const Variant& v) {
        auto& s = stacks[a];
        if (s.empty())
            s.push_back(v);
        else
            s.back() = v;
    }
    Variant current(id_t a) const {
        auto it = stacks.find(a);
        return it == stacks.end() || it->second.empty() ? Variant() : it->second.back();
    }
    std::size_t depth(id_t a) const {
        auto it = stacks.find(a);
        return it == stacks.end() ? 0 : it->second.size();
    }
    /// Innermost values, ascending attribute id.
    std::vector<Entry> capture() const {
        std::vector<Entry> out;
        for (const auto& [a, s] : stacks)
            if (!s.empty())
                out.emplace_back(a, s.back());
        return out;
    }
};

/// Fields in order, "name=value;..." (readable failures, order-exact).
std::string row_text(const RecordMap& r) {
    std::string out;
    for (const auto& [name, value] : r)
        out += std::string(name) + "=" + Variant::type_name(value.type()) + ":" +
               value.to_string() + ";";
    return out;
}

/// Attributes of one program; names are unique per \a tag so the
/// mid-program attribute really is created mid-program.
struct ProgramAttributes {
    std::vector<Attribute> nested; ///< three nested, a fourth created late
    Attribute in_key, out_of_key;  ///< as_value
    Attribute metric;              ///< as_value, aggregatable: sum() input
    Attribute trigger;             ///< as_value, only in trigger entries
    std::string late_name;

    explicit ProgramAttributes(const std::string& tag) {
        Caliper& c = Caliper::instance();
        for (int i = 0; i < 3; ++i)
            nested.push_back(c.create_attribute(tag + ".n" + std::to_string(i),
                                                Variant::Type::String));
        in_key  = c.create_attribute(tag + ".v.key", Variant::Type::Int, prop::as_value);
        out_of_key =
            c.create_attribute(tag + ".v.other", Variant::Type::Int, prop::as_value);
        metric = c.create_attribute(tag + ".metric", Variant::Type::Int,
                                    prop::as_value | prop::aggregatable | prop::skip_key);
        trigger = c.create_attribute(tag + ".trigger", Variant::Type::Int, prop::as_value);
        late_name = tag + ".late";
    }

    std::string key_list_with_value() const {
        return std::string(nested[0].name()) + "," + nested[1].name() + "," +
               in_key.name() + "," + nested[2].name() + "," + late_name;
    }
    std::string key_list_nested() const {
        return std::string(nested[2].name()) + "," + late_name + "," + nested[0].name();
    }
};

/// Run one seeded program on the calling thread under \a trace_ch and
/// \a agg_ch; EXPECTs the three properties. Returns the number of
/// snapshots the program took.
std::size_t run_differential_program(std::uint32_t seed, const std::string& tag,
                                      Channel* trace_ch, Channel* agg_ch) {
    Caliper& c = Caliper::instance();
    ProgramAttributes attrs(tag);
    std::vector<Attribute> nested = attrs.nested;
    std::vector<Attribute> all    = nested;
    all.insert(all.end(), {attrs.in_key, attrs.out_of_key, attrs.metric});

    std::mt19937 rng(seed);
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % static_cast<std::uint32_t>(n));
    };
    const char* names[] = {"a", "b", "c"};

    // values earlier tests left on this thread's blackboard stay put
    StackModel model;
    SnapshotRecord before;
    c.pull_snapshot(before);
    for (const Entry& e : before)
        model.begin(e.attribute, e.value);
    std::vector<std::vector<Entry>> expected; // trace records, in order
    constexpr int steps = 400;
    for (int step = 0; step < steps; ++step) {
        if (step == steps / 3) {
            // created mid-program: resolves into the key lists now
            Attribute late = c.create_attribute(attrs.late_name, Variant::Type::String);
            nested.push_back(late);
            all.push_back(late);
        }
        const std::size_t op = pick(100);
        if (op < 30) {
            const Attribute& a = nested[pick(nested.size())];
            const Variant v(names[pick(3)]);
            expected.push_back(model.capture());
            model.begin(a.id(), v);
            c.begin(a, v);
        } else if (op < 55) {
            // innermost or not, with or without a matching begin
            const Attribute& a = nested[pick(nested.size())];
            if (model.depth(a.id()) > 0)
                expected.push_back(model.capture());
            model.end(a.id());
            c.end(a);
        } else if (op < 62) {
            const Attribute& a = nested[pick(nested.size())];
            const Variant v(names[pick(3)]);
            expected.push_back(model.capture());
            model.set(a.id(), v);
            c.set(a, v);
        } else if (op < 72) {
            const Variant v(static_cast<int>(pick(3)));
            expected.push_back(model.capture());
            model.set(attrs.in_key.id(), v);
            c.set(attrs.in_key, v);
        } else if (op < 78) {
            const Variant v(static_cast<int>(pick(4)));
            expected.push_back(model.capture());
            model.set(attrs.out_of_key.id(), v);
            c.set(attrs.out_of_key, v);
        } else if (op < 82) {
            // as_value stacks: begin pushes, end pops (or warns when empty)
            const Attribute& a = pick(2) ? attrs.in_key : attrs.out_of_key;
            if (pick(2)) {
                const Variant v(static_cast<int>(pick(3)));
                expected.push_back(model.capture());
                model.begin(a.id(), v);
                c.begin(a, v);
            } else {
                if (model.depth(a.id()) > 0)
                    expected.push_back(model.capture());
                model.end(a.id());
                c.end(a);
            }
        } else if (op < 94) {
            const Variant v(static_cast<int>(1 + pick(100)));
            expected.push_back(model.capture());
            model.set(attrs.metric.id(), v);
            c.set(attrs.metric, v);
        } else {
            // trigger entries come first; sometimes one is a key attribute
            SnapshotRecord trigger;
            trigger.append(attrs.trigger.id(), Variant(static_cast<int>(pick(2))));
            if (pick(2))
                trigger.append(attrs.in_key.id(), Variant(static_cast<int>(pick(3))));
            std::vector<Entry> rec(trigger.begin(), trigger.end());
            for (const Entry& e : model.capture())
                rec.push_back(e);
            expected.push_back(rec);
            c.push_snapshot(nullptr, &trigger);
        }
        for (const Attribute& a : all) {
            EXPECT_EQ(c.current(a), model.current(a.id()))
                << tag << " step " << step << " attribute " << a.name();
            EXPECT_EQ(c.depth(a), model.depth(a.id()))
                << tag << " step " << step << " attribute " << a.name();
        }
    }

    // (a) every trace record equals the model's
    const ThreadChannelState& traced = c.thread_data().channel_state(trace_ch->id());
    EXPECT_TRUE(traced.trace != nullptr);
    if (!traced.trace)
        return 0;
    EXPECT_EQ(traced.trace->size(), expected.size()) << tag;
    const std::size_t n = std::min(traced.trace->size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) {
        auto [entries, len] = traced.trace->get(i);
        EXPECT_EQ(std::vector<Entry>(entries, entries + len), expected[i])
            << tag << " trace record " << i;
    }

    // (b) the aggregate flush equals process() over the trace records
    AggregationDB reference(read_aggregate_config(agg_ch->config()), &c.registry());
    for (std::size_t i = 0; i < traced.trace->size(); ++i) {
        auto [entries, len] = traced.trace->get(i);
        reference.process(std::span<const Entry>(entries, len));
    }
    const std::vector<RecordMap> want = reference.flush();
    const std::vector<RecordMap> got  = flush_records(agg_ch);
    EXPECT_EQ(got.size(), want.size()) << tag;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
        EXPECT_EQ(row_text(got[i]), row_text(want[i])) << tag << " aggregate row " << i;

    // unwind this thread's blackboard for the next program
    for (const Attribute& a : all)
        while (c.depth(a) > 0)
            c.end(a);
    return expected.size();
}

std::string differential_ops(const ProgramAttributes& attrs) {
    return std::string("count,sum(") + attrs.metric.name() + ")";
}

} // namespace

TEST(ContextTree, DifferentialAgainstStackModel) {
    const int verbosity = Log::verbosity();
    Log::set_verbosity(Log::Error); // ends without begin warn by design
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        for (int k = 0; k < 3; ++k) {
            const std::string tag = "dt" + std::to_string(seed) + "k" + std::to_string(k);
            const ProgramAttributes names(tag); // the program re-creates them
            const std::string key = k == 0   ? names.key_list_with_value()
                                    : k == 1 ? names.key_list_nested()
                                             : std::string("*");
            TestChannel trace(tag + "-trace", RuntimeConfig{{"services.enable", "event,trace"},
                                                            {"trace.reserve", "1024"}});
            TestChannel agg(tag + "-agg",
                            RuntimeConfig{{"services.enable", "event,aggregate"},
                                          {"aggregate.key", key},
                                          {"aggregate.ops", differential_ops(names)}});
            EXPECT_GT(run_differential_program(seed, tag, trace.get(), agg.get()), 100u);
            Caliper::instance().release_thread_states(trace.get());
            Caliper::instance().release_thread_states(agg.get());
        }
    }
    Log::set_verbosity(verbosity);
}

TEST(ContextTree, PerThreadTreesDoNotInteract) {
    const int verbosity = Log::verbosity();
    Log::set_verbosity(Log::Error);
    constexpr int n_threads = 3;
    std::vector<std::thread> threads;
    std::vector<std::unique_ptr<TestChannel>> channels;
    // one channel pair per thread, each with its own key
    for (int t = 0; t < n_threads; ++t) {
        const std::string tag = "dtmt" + std::to_string(t);
        const ProgramAttributes names(tag);
        const std::string key = t == 0   ? names.key_list_with_value()
                                : t == 1 ? names.key_list_nested()
                                         : std::string("*");
        channels.push_back(std::make_unique<TestChannel>(
            tag + "-trace", RuntimeConfig{{"services.enable", "event,trace"},
                                          {"trace.reserve", "1024"}}));
        channels.push_back(std::make_unique<TestChannel>(
            tag + "-agg", RuntimeConfig{{"services.enable", "event,aggregate"},
                                        {"aggregate.key", key},
                                        {"aggregate.ops", differential_ops(names)}}));
    }
    std::vector<std::size_t> snapshots(n_threads, 0);
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([t, &channels, &snapshots] {
            // every thread's events reach every channel; each channel pair
            // checks only the records of the thread that owns its names
            snapshots[t] = run_differential_program(
                100 + static_cast<std::uint32_t>(t), "dtmt" + std::to_string(t),
                channels[2 * t]->get(), channels[2 * t + 1]->get());
        });
    for (auto& th : threads)
        th.join();
    for (std::size_t s : snapshots)
        EXPECT_GT(s, 100u);
    Log::set_verbosity(verbosity);
}

TEST(ContextTree, NestedPerIterationLoopStaysBounded) {
    // The paper's Listing 1 pattern, a nested per-iteration value, enters
    // a new context every iteration. Run long enough to rebuild the tree
    // several times: the node count stays at the bound, the path survives
    // each rebuild, and the aggregate memo follows the rebuilds (its key
    // holds nested attributes only, so a hit checks nothing but the node).
    Caliper& c                = Caliper::instance();
    const Attribute phase     = c.create_attribute("bounded.phase", Variant::Type::String);
    const Attribute iteration = c.create_attribute("bounded.iteration", Variant::Type::Int);
    const Attribute function  = c.create_attribute("bounded.function", Variant::Type::String);
    TestChannel agg("bounded-agg", RuntimeConfig{{"services.enable", "event,aggregate"},
                                                 {"aggregate.key", "bounded.function"},
                                                 {"aggregate.ops", "count"}});
    const Blackboard& bb      = c.thread_data().blackboard;
    const std::uint64_t epoch = bb.epoch();
    const Variant main_phase("main"), foo("foo"), bar("bar");

    constexpr int iterations = 5000;
    std::size_t max_nodes    = 0;
    c.begin(phase, main_phase);
    for (int i = 0; i < iterations; ++i) {
        c.begin(iteration, Variant(i));
        for (const Variant* f : {&foo, &foo, &bar}) {
            c.begin(function, *f);
            ASSERT_EQ(c.current(function), *f) << "iteration " << i;
            ASSERT_EQ(c.current(iteration), Variant(i)) << "iteration " << i;
            ASSERT_EQ(c.current(phase), main_phase) << "iteration " << i;
            c.end(function);
        }
        c.end(iteration);
        max_nodes = std::max(max_nodes, bb.node_count());
    }
    c.end(phase);
    EXPECT_EQ(c.depth(iteration), 0u);
    EXPECT_EQ(c.depth(phase), 0u);
    // one node per (iteration) and per (iteration, function) context: the
    // loop holds far more contexts than the bound allows
    EXPECT_LE(max_nodes, Blackboard::entry_limit + 2);
    EXPECT_GE(bb.epoch() - epoch, 3u);

    // snapshots precede each update: per iteration, the function is
    // absent at begin(iteration), each begin(function) and end(iteration)
    std::map<std::string, std::uint64_t> counts;
    for (const RecordMap& r : flush_records(agg.get())) {
        const Variant f = r.get("bounded.function");
        counts[f.empty() ? "" : f.to_string()] += r.get("count").to_uint();
    }
    const std::uint64_t n = iterations;
    EXPECT_EQ(counts[""], 5 * n + 2); // + begin(phase) and end(phase)
    EXPECT_EQ(counts["foo"], 2 * n);
    EXPECT_EQ(counts["bar"], n);
}
