// End-to-end query pipeline tests: filter -> aggregate -> sort -> limit,
// plus cross-processor merge (the local stage of §IV-C).
#include "oracle.hpp"
#include "query/processor.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace calib;
using calib::test::find_record;
using calib::test::record;

namespace {

std::vector<RecordMap> event_stream() {
    std::vector<RecordMap> out;
    for (int iter = 0; iter < 3; ++iter) {
        for (int call = 0; call < 2; ++call)
            out.push_back(record({{"function", Variant("foo")},
                                  {"loop.iteration", Variant(iter)},
                                  {"time", Variant(10)}}));
        out.push_back(record({{"function", Variant("bar")},
                              {"loop.iteration", Variant(iter)},
                              {"time", Variant(5)}}));
        out.push_back(record({{"mpi.function", Variant("MPI_Barrier")},
                              {"loop.iteration", Variant(iter)},
                              {"time", Variant(7)}}));
    }
    return out;
}

} // namespace

TEST(QueryProcessor, BasicAggregation) {
    auto out = run_query("AGGREGATE count,sum(time) GROUP BY function",
                         event_stream());
    ASSERT_EQ(out.size(), 3u); // foo, bar, (none)
    EXPECT_EQ(find_record(out, "function", Variant("foo")).get("sum#time"),
              Variant(60LL));
    EXPECT_EQ(find_record(out, "function", Variant("bar")).get("count"),
              Variant(3ull));
}

TEST(QueryProcessor, WhereFiltersBeforeAggregation) {
    auto out = run_query(
        "AGGREGATE sum(time) WHERE not(mpi.function) GROUP BY loop.iteration",
        event_stream());
    ASSERT_EQ(out.size(), 3u);
    for (const RecordMap& r : out)
        EXPECT_EQ(r.get("sum#time"), Variant(25LL))
            << "barrier time excluded from every iteration";
}

TEST(QueryProcessor, WhereEqualityOnIteration) {
    auto out = run_query("AGGREGATE count WHERE loop.iteration=1 GROUP BY function",
                         event_stream());
    double total = 0;
    for (const RecordMap& r : out)
        total += r.get("count").to_double();
    EXPECT_EQ(total, 4.0);
}

TEST(QueryProcessor, OrderByDescending) {
    auto out = run_query(
        "AGGREGATE sum(time) GROUP BY function ORDER BY sum#time DESC",
        event_stream());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].get("function"), Variant("foo"));
    EXPECT_GE(out[0].get("sum#time").to_double(), out[1].get("sum#time").to_double());
    EXPECT_GE(out[1].get("sum#time").to_double(), out[2].get("sum#time").to_double());
}

TEST(QueryProcessor, OrderByMultipleKeys) {
    auto out = run_query(
        "AGGREGATE count GROUP BY function,loop.iteration "
        "ORDER BY function,loop.iteration DESC",
        event_stream());
    ASSERT_EQ(out.size(), 9u);
    // within equal function, iterations descend
    for (std::size_t i = 1; i < out.size(); ++i) {
        if (out[i].get("function") == out[i - 1].get("function")) {
            EXPECT_LT(out[i].get("loop.iteration").to_int(),
                      out[i - 1].get("loop.iteration").to_int());
        }
    }
}

TEST(QueryProcessor, LimitTruncates) {
    auto out = run_query(
        "AGGREGATE count GROUP BY function,loop.iteration LIMIT 4", event_stream());
    EXPECT_EQ(out.size(), 4u);

    // LIMIT k keeps the head of the full order, whose order is the
    // reference one (fuzz/oracle.hpp), on rows that tie every way result()
    // must break: +-0.0 and NaN keys, an ORDER BY column mixing Int 5 and
    // Double 5.0 (equal under compare(), distinct under identity_compare()),
    // and tied sums. 21 groups exceed the 16-entry table a 1-byte budget
    // allows, so that flush is spilled.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Variant ks[] = {Variant(0.0), Variant(-0.0), Variant(nan), Variant(1.5),
                          Variant(5LL), Variant(5.0),  Variant("a")};
    const Variant ms[] = {Variant(5LL), Variant(5.0), Variant(2LL)};
    std::vector<RecordMap> input;
    for (long long i = 0; i < 84; ++i)
        input.push_back(record({{"k", ks[i % 7]},
                                {"m", ms[(i / 7) % 3]},
                                {"v", Variant(i % 4)},
                                {"t", Variant(i)}}));
    const std::string queries[] = {
        "AGGREGATE count,sum(v) GROUP BY k,m",
        "AGGREGATE count,sum(v) AS total GROUP BY k,m ORDER BY total DESC",
        "AGGREGATE count,sum(v) GROUP BY k,m ORDER BY m",
        "AGGREGATE count,sum(v) GROUP BY k,m ORDER BY m DESC,k",
        "AGGREGATE count,sum(v) GROUP BY k,m ORDER BY no.such.attribute",
        "AGGREGATE count,sum(v) AS total GROUP BY k,m WINDOW 40 BY t "
        "ORDER BY total DESC",
        "WHERE v ORDER BY m DESC",
    };
    for (const std::size_t budget : {std::size_t(0), std::size_t(1)}) {
        for (const std::string& q : queries) {
            const auto run = [&](const std::string& text) {
                QueryProcessor proc(parse_calql(text));
                proc.set_aggregation_memory_budget(budget);
                proc.add(input);
                if (budget && proc.aggregation_db()) {
                    EXPECT_TRUE(proc.aggregation_db()->spilled()) << text;
                }
                return proc.result();
            };
            const std::vector<RecordMap> all = run(q);
            const std::size_t n              = all.size();
            ASSERT_GE(n, 4u) << q;
            EXPECT_EQ(fuzz::first_row_difference(
                          fuzz::reference_order(parse_calql(q), all), all),
                      n)
                << q << " (budget " << budget << ")";
            for (const std::size_t k :
                 {std::size_t(1), std::size_t(3), n - 1, n, n + 1}) {
                const std::string limited = q + " LIMIT " + std::to_string(k);
                const std::vector<RecordMap> top = run(limited);
                ASSERT_EQ(top.size(), std::min(k, n)) << limited;
                EXPECT_EQ(fuzz::first_row_difference(top, all), top.size())
                    << limited << " (budget " << budget << ")";
            }
        }
    }
}

TEST(QueryProcessor, OrderBySelectAliasOfColumn) {
    const std::vector<RecordMap> input = {
        record({{"k", Variant("b")}, {"v", Variant(3)}}),
        record({{"k", Variant("a")}, {"v", Variant(5)}}),
        record({{"k", Variant("c")}, {"v", Variant(1)}}),
        record({{"k", Variant("a")}, {"v", Variant(2)}}),
    };
    const char* query =
        "SELECT k AS name,sum(v) GROUP BY k ORDER BY name DESC FORMAT csv";
    std::ostringstream os;
    run_query(query, input, os);
    EXPECT_EQ(os.str(), "name,sum#v\nc,1\nb,3\na,7\n");

    // the alias is a known name, not an attribute missing from the input
    QueryProcessor proc(parse_calql(query));
    proc.add(input);
    EXPECT_TRUE(unknown_query_attributes(proc.spec(), *proc.registry()).empty());

    // passthrough rows sort by the aliased column too, ties in input order
    const auto rows = run_query("SELECT k AS name,v ORDER BY name", input);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].get("v"), Variant(5));
    EXPECT_EQ(rows[1].get("v"), Variant(2));
    EXPECT_EQ(rows[2].get("k"), Variant("b"));
    EXPECT_EQ(rows[3].get("k"), Variant("c"));

    // a row that carries the name itself still sorts by it
    const auto own = run_query("SELECT k AS v ORDER BY v", input);
    ASSERT_EQ(own.size(), 4u);
    EXPECT_EQ(own[0].get("v"), Variant(1));
    EXPECT_EQ(own[3].get("v"), Variant(5));
}

TEST(QueryProcessor, NoAggregationPassesThrough) {
    auto out = run_query("WHERE function=foo", event_stream());
    EXPECT_EQ(out.size(), 6u);
    for (const RecordMap& r : out)
        EXPECT_EQ(r.get("function"), Variant("foo"));
}

TEST(QueryProcessor, GroupByWithoutAggregateDefaultsToCount) {
    auto out = run_query("GROUP BY function", event_stream());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(find_record(out, "function", Variant("foo")).get("count"),
              Variant(6ull));
}

TEST(QueryProcessor, InputStatistics) {
    QueryProcessor proc(parse_calql("AGGREGATE count WHERE function=foo GROUP BY *"));
    proc.add(event_stream());
    EXPECT_EQ(proc.num_records_in(), 12u);
    EXPECT_EQ(proc.num_records_kept(), 6u);
}

TEST(QueryProcessor, MergeAggregatingProcessors) {
    const auto stream = event_stream();
    QueryProcessor whole(parse_calql("AGGREGATE count,sum(time) GROUP BY function"));
    whole.add(stream);

    QueryProcessor a(parse_calql("AGGREGATE count,sum(time) GROUP BY function"));
    QueryProcessor b(parse_calql("AGGREGATE count,sum(time) GROUP BY function"));
    std::vector<RecordMap> odd, even;
    for (std::size_t i = 0; i < stream.size(); ++i)
        (i % 2 ? odd : even).push_back(stream[i]);
    a.add(odd);
    b.add(even);
    a.merge(std::move(b));

    auto direct = whole.result();
    auto merged = a.result();
    ASSERT_EQ(direct.size(), merged.size());
    for (const RecordMap& r : direct)
        EXPECT_EQ(find_record(merged, "function", r.get("function")), r);
}

TEST(QueryProcessor, SerializedPartialRoundTrip) {
    const auto stream = event_stream();
    QueryProcessor src(parse_calql("AGGREGATE sum(time) GROUP BY function"));
    src.add(stream);

    QueryProcessor dst(parse_calql("AGGREGATE sum(time) GROUP BY function"));
    dst.merge_serialized(src.serialize_partial());
    EXPECT_EQ(dst.result().size(), src.result().size());
}

TEST(QueryProcessor, SerializedPartialWithoutAggregation) {
    QueryProcessor src(parse_calql("WHERE function=bar"));
    src.add(event_stream());

    QueryProcessor dst(parse_calql("WHERE function=bar"));
    dst.merge_serialized(src.serialize_partial());
    EXPECT_EQ(dst.result().size(), 3u);
    EXPECT_EQ(dst.result()[0].get("function"), Variant("bar"));
}

TEST(QueryProcessor, WriteRendersWithSpecFormat) {
    QueryProcessor proc(
        parse_calql("AGGREGATE count GROUP BY function FORMAT csv ORDER BY function"));
    proc.add(event_stream());
    std::ostringstream os;
    proc.write(os);
    EXPECT_EQ(os.str().substr(0, os.str().find('\n')), "function,count");
}

TEST(QueryProcessor, TwoStageEqualsOneStage) {
    // stage 1 per-"process" profiles, stage 2 cross-process aggregation;
    // the composition equals direct aggregation (paper §VI-F)
    const auto stream = event_stream();

    QueryProcessor direct(parse_calql("AGGREGATE sum(time) GROUP BY function"));
    direct.add(stream);

    std::vector<RecordMap> stage1_out;
    for (int part = 0; part < 2; ++part) {
        QueryProcessor stage1(parse_calql("AGGREGATE sum(time) GROUP BY function"));
        std::vector<RecordMap> share;
        for (std::size_t i = part; i < stream.size(); i += 2)
            share.push_back(stream[i]);
        stage1.add(share);
        for (const RecordMap& r : stage1.result())
            stage1_out.push_back(r);
    }
    QueryProcessor stage2(parse_calql("AGGREGATE sum(time) GROUP BY function"));
    stage2.add(stage1_out);

    auto a = direct.result();
    auto b = stage2.result();
    ASSERT_EQ(a.size(), b.size());
    for (const RecordMap& r : a)
        EXPECT_EQ(find_record(b, "function", r.get("function")).get("sum#time"),
                  r.get("sum#time"));
}
