// Differential fuzz harness smoke tests: the generators are deterministic,
// the oracle agrees with the engine on a seed sweep, and — just as
// important — the comparator actually has teeth (a tampered result is
// rejected, so a green sweep means something).
#include "../fuzz/corpus.hpp"
#include "../fuzz/differential.hpp"
#include "../fuzz/oracle.hpp"
#include "../fuzz/querygen.hpp"

#include "../src/query/calql.hpp"
#include "../src/query/processor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace cf = calib::fuzz;
using calib::RecordMap;
using calib::Variant;

TEST(FuzzGenerators, CorpusIsDeterministic) {
    for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 42ULL, 12345ULL}) {
        const cf::Corpus a = cf::generate_corpus(seed);
        const cf::Corpus b = cf::generate_corpus(seed);
        EXPECT_EQ(a.cali_text, b.cali_text) << "seed " << seed;
        EXPECT_EQ(a.well_formed, b.well_formed) << "seed " << seed;
        EXPECT_EQ(a.records.size(), b.records.size()) << "seed " << seed;
    }
}

TEST(FuzzGenerators, QueryIsDeterministicAndParses) {
    const cf::Corpus corpus = cf::generate_corpus(3);
    ASSERT_TRUE(corpus.well_formed);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const std::string a = cf::generate_query(seed, corpus);
        const std::string b = cf::generate_query(seed, corpus);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_NO_THROW(calib::parse_calql(a)) << a;
    }
}

TEST(FuzzGenerators, CorpusCoversAdversarialValues) {
    // across a seed sweep the corpora must actually contain the edge
    // values the harness exists for — guard against the generator
    // silently degenerating into benign data
    bool saw_nan = false, saw_inf = false, saw_int64_min = false,
         saw_big_uint = false, saw_empty_string = false;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const cf::Corpus c = cf::generate_corpus(seed);
        for (const RecordMap& r : c.records) {
            for (const auto& [name, v] : r) {
                if (v.type() == Variant::Type::Double) {
                    if (std::isnan(v.as_double())) saw_nan = true;
                    if (std::isinf(v.as_double())) saw_inf = true;
                }
                if (v.type() == Variant::Type::Int &&
                    v.as_int() == INT64_MIN)
                    saw_int64_min = true;
                if (v.type() == Variant::Type::UInt &&
                    v.as_uint() > static_cast<std::uint64_t>(INT64_MAX))
                    saw_big_uint = true;
                if (v.is_string() && v.to_string().empty())
                    saw_empty_string = true;
            }
        }
    }
    EXPECT_TRUE(saw_nan);
    EXPECT_TRUE(saw_inf);
    EXPECT_TRUE(saw_int64_min);
    EXPECT_TRUE(saw_big_uint);
    EXPECT_TRUE(saw_empty_string);
}

TEST(FuzzOracle, AgreesWithEngineOnSimpleInput) {
    std::vector<RecordMap> records;
    for (int i = 1; i <= 4; ++i) {
        RecordMap r;
        r.append("region", Variant(std::string(i % 2 ? "a" : "b")));
        r.append("time", Variant(static_cast<std::int64_t>(i)));
        records.push_back(std::move(r));
    }
    const calib::QuerySpec spec =
        calib::parse_calql("AGGREGATE sum(time),count GROUP BY region");
    const cf::OracleResult oracle = cf::oracle_run(spec, records);
    const std::vector<RecordMap> rows =
        calib::run_query("AGGREGATE sum(time),count GROUP BY region", records);
    EXPECT_TRUE(cf::oracle_compare(spec, oracle, rows).empty());
}

TEST(FuzzOracle, RejectsTamperedResult) {
    std::vector<RecordMap> records;
    for (int i = 1; i <= 4; ++i) {
        RecordMap r;
        r.append("time", Variant(static_cast<std::int64_t>(i)));
        records.push_back(std::move(r));
    }
    const calib::QuerySpec spec = calib::parse_calql("AGGREGATE sum(time)");
    const cf::OracleResult oracle = cf::oracle_run(spec, records);

    std::vector<RecordMap> rows =
        calib::run_query("AGGREGATE sum(time)", records);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(cf::oracle_compare(spec, oracle, rows).empty());

    // an off-by-one sum must be flagged
    rows[0].set("sum#time", Variant(static_cast<std::int64_t>(11)));
    EXPECT_FALSE(cf::oracle_compare(spec, oracle, rows).empty());

    // ...and so must a dropped row
    rows.clear();
    EXPECT_FALSE(cf::oracle_compare(spec, oracle, rows).empty());
}

TEST(FuzzDifferential, CheckCaseFlagsNothingOnCleanPair) {
    const cf::Corpus corpus = cf::generate_corpus(11);
    ASSERT_TRUE(corpus.well_formed);
    const std::string query = cf::generate_query(11, corpus);
    cf::DiffOptions opts;
    opts.work_dir = ::testing::TempDir();
    const std::vector<std::string> failures =
        cf::check_case(corpus, query, 11, opts);
    for (const std::string& f : failures)
        ADD_FAILURE() << f;
}

TEST(FuzzDifferential, SeedSweepIsClean) {
    // a compressed version of the CI fuzz-smoke job; the full sweep is
    // `calib-fuzz --seed-range 0:1000`
    cf::DiffOptions opts;
    opts.work_dir         = ::testing::TempDir();
    opts.queries_per_seed = 2;
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const cf::SeedOutcome outcome = cf::run_seed(seed, opts);
        for (const std::string& f : outcome.failures)
            ADD_FAILURE() << "seed " << seed << ": " << f;
    }
}

TEST(FuzzGenerators, QuerySweepEmitsWindowClauses) {
    // the windowed family must actually appear in the generated stream —
    // guard against the WINDOW branch silently rotting away
    const cf::Corpus corpus = cf::generate_corpus(3);
    bool saw_window = false, saw_slide = false, saw_by = false;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const std::string q = cf::generate_query(seed, corpus);
        if (q.find("WINDOW ") == std::string::npos)
            continue;
        saw_window = true;
        if (q.find("SLIDE ") != std::string::npos)
            saw_slide = true;
        if (q.find(" BY ", q.find("WINDOW ")) != std::string::npos)
            saw_by = true;
        EXPECT_NO_THROW(calib::parse_calql(q)) << q;
    }
    EXPECT_TRUE(saw_window);
    EXPECT_TRUE(saw_slide);
    EXPECT_TRUE(saw_by);
}

TEST(FuzzOracle, WindowRestrictsToTrailingPanes) {
    // pinned windowed case: times 0..90 in steps of 10, WINDOW 40 SLIDE 20
    // -> watermark pane 4, live panes {3, 4} = times [60, 90]
    std::vector<RecordMap> records;
    for (int i = 0; i < 10; ++i) {
        RecordMap r;
        r.append("region", Variant(std::string(i % 2 ? "a" : "b")));
        r.append("t", Variant(static_cast<double>(i * 10)));
        records.push_back(std::move(r));
    }
    { // a record without the time attribute drops
        RecordMap r;
        r.append("region", Variant(std::string("a")));
        records.push_back(std::move(r));
    }
    const std::string query =
        "AGGREGATE count GROUP BY region WINDOW 40 BY t SLIDE 20";
    const calib::QuerySpec spec  = calib::parse_calql(query);
    const cf::OracleResult oracle = cf::oracle_run(spec, records);
    std::uint64_t total = 0;
    for (const cf::OracleGroup& g : oracle.groups)
        total += g.ops[0].exact.to_uint();
    EXPECT_EQ(total, 4u); // times 60, 70, 80, 90

    const std::vector<RecordMap> rows = calib::run_query(query, records);
    EXPECT_TRUE(cf::oracle_compare(spec, oracle, rows).empty());

    // the comparator still has teeth on the windowed path
    std::vector<RecordMap> tampered = rows;
    ASSERT_FALSE(tampered.empty());
    tampered[0].set("count", Variant(static_cast<unsigned long long>(99)));
    EXPECT_FALSE(cf::oracle_compare(spec, oracle, tampered).empty());
}

TEST(FuzzGenerators, QuerySweepOrdersByResultsAndAliases) {
    // the top-N family must appear: ORDER BY op result labels, op aliases
    // and SELECT aliases of GROUP BY keys, with one and with two terms
    const cf::Corpus corpus = cf::generate_corpus(3);
    bool saw_label = false, saw_op_alias = false, saw_key_alias = false,
         saw_two_terms = false;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        const std::string q     = cf::generate_query(seed, corpus);
        const std::size_t order = q.find("ORDER BY ");
        if (order == std::string::npos)
            continue;
        const calib::QuerySpec spec = calib::parse_calql(q);
        for (const calib::SortSpec& s : spec.sort) {
            if (s.attribute.find('#') != std::string::npos || s.attribute == "count")
                saw_label = true;
            if (s.attribute.rfind("alias", 0) == 0)
                saw_op_alias = true;
            if (s.attribute == "key.alias")
                saw_key_alias = true;
        }
        if (spec.sort.size() == 2)
            saw_two_terms = true;
    }
    EXPECT_TRUE(saw_label);
    EXPECT_TRUE(saw_op_alias);
    EXPECT_TRUE(saw_key_alias);
    EXPECT_TRUE(saw_two_terms);
}

TEST(FuzzOracle, ReferenceOrderRejectsReorderedRows) {
    std::vector<RecordMap> records;
    for (int i = 0; i < 6; ++i) {
        RecordMap r;
        r.append("region", Variant(std::string(1, static_cast<char>('a' + i % 3))));
        r.append("time", Variant(static_cast<std::int64_t>(i)));
        records.push_back(std::move(r));
    }
    const char* query = "AGGREGATE sum(time) AS t GROUP BY region ORDER BY t DESC";
    const calib::QuerySpec spec = calib::parse_calql(query);
    std::vector<RecordMap> rows = calib::run_query(query, records);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(cf::first_row_difference(cf::reference_order(spec, rows), rows), 3u);

    // swapped rows are out of order, and no longer a prefix of the result
    const std::vector<RecordMap> result = rows;
    std::swap(rows[0], rows[1]);
    EXPECT_EQ(cf::first_row_difference(cf::reference_order(spec, rows), rows), 0u);
    EXPECT_EQ(cf::first_row_difference(rows, result), 0u);
}
