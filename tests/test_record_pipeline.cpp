// Offline record pipeline: the two ways records enter the batch path —
// RecordMapFeeder (name-based records, default batch size) and the .cali
// reader (here in one-row batches) — render byte-identical output, and
// the readers resolve attribute names once per definition (the "reader.*"
// metrics).
#include "aggregate/aggregation_db.hpp"
#include "io/calireader.hpp"
#include "io/caliwriter.hpp"
#include "io/jsonreader.hpp"
#include "obs/metrics.hpp"
#include "query/calql.hpp"
#include "query/processor.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace calib;
using calib::test::record;

namespace {

std::string to_stream(const std::vector<RecordMap>& records) {
    std::ostringstream os;
    CaliWriter w(os);
    for (const RecordMap& r : records)
        w.write_record(r);
    return os.str();
}

/// Name-based records through RecordMapFeeder at the default batch size.
std::string run_feeder_path(const std::string& query,
                            const std::vector<RecordMap>& records) {
    QueryProcessor proc(parse_calql(query));
    proc.add(records);
    std::ostringstream os;
    proc.write(os);
    return os.str();
}

/// The same records round-trip through a .cali stream and enter the
/// processor as one-row batches resolved against its registry.
std::string run_reader_path(const std::string& query,
                            const std::vector<RecordMap>& records) {
    const std::string text = to_stream(records);
    QueryProcessor proc(parse_calql(query));
    CaliReader::read_buffer_batches(text, *proc.registry(), 1,
                                    [&proc](RecordBatch& b) { proc.add_batch(b); });
    std::ostringstream os;
    proc.write(os);
    return os.str();
}

void expect_paths_agree(const std::string& query,
                        const std::vector<RecordMap>& records) {
    EXPECT_EQ(run_feeder_path(query, records), run_reader_path(query, records))
        << "query: " << query;
}

std::vector<RecordMap> sample_records() {
    std::vector<RecordMap> rs;
    const char* kernels[] = {"stress", "force", "collision", "remesh"};
    for (int i = 0; i < 64; ++i) {
        rs.push_back(record({{"kernel", Variant(kernels[i % 4])},
                             {"rank", Variant(static_cast<long long>(i % 8))},
                             {"time", Variant(0.25 + 0.5 * (i % 13))},
                             {"bytes", Variant(static_cast<long long>(100 * i))}}));
    }
    return rs;
}

} // namespace

// --- feeder vs reader equivalence over every kernel op ----------------------

TEST(RecordPipeline, AllKernelOpsAgree) {
    const auto rs = sample_records();
    expect_paths_agree("AGGREGATE count GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE sum(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE min(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE max(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE avg(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE variance(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE histogram(time) GROUP BY kernel", rs);
    expect_paths_agree("AGGREGATE percent_total(time) GROUP BY kernel", rs);
    expect_paths_agree(
        "AGGREGATE count,sum(time),min(bytes),max(bytes),avg(time),"
        "variance(time),histogram(bytes),percent_total(time) "
        "GROUP BY kernel,rank FORMAT csv ORDER BY kernel,rank",
        rs);
}

TEST(RecordPipeline, ImplicitKeyAgrees) {
    expect_paths_agree("AGGREGATE count,sum(time) GROUP BY *", sample_records());
}

TEST(RecordPipeline, PassthroughAgrees) {
    expect_paths_agree("WHERE kernel=stress FORMAT csv", sample_records());
}

// --- awkward attribute situations -------------------------------------------

TEST(RecordPipeline, UnknownOpAttributeAgrees) {
    // the aggregated attribute never appears in any record or registry
    expect_paths_agree("AGGREGATE count,sum(no.such.metric) GROUP BY kernel",
                       sample_records());
}

TEST(RecordPipeline, LateCreatedAttributeAgrees) {
    // the op target and one key attribute only appear mid-stream, after the
    // processor compiled its specs — exercises lazy id re-resolution
    std::vector<RecordMap> rs;
    for (int i = 0; i < 10; ++i)
        rs.push_back(record({{"kernel", Variant("early")}, {"time", Variant(1.0)}}));
    for (int i = 0; i < 10; ++i)
        rs.push_back(record({{"kernel", Variant("late")},
                             {"time", Variant(2.0)},
                             {"energy", Variant(0.5 * i)},
                             {"phase", Variant("extra")}}));
    expect_paths_agree("AGGREGATE count,sum(energy) GROUP BY kernel,phase", rs);
    expect_paths_agree("AGGREGATE avg(energy) GROUP BY *", rs);
}

TEST(RecordPipeline, AbsentKeyAttributeAgrees) {
    // records missing a key attribute group under the absent key
    std::vector<RecordMap> rs;
    rs.push_back(record({{"kernel", Variant("a")}, {"time", Variant(1.0)}}));
    rs.push_back(record({{"time", Variant(2.0)}}));
    rs.push_back(record({{"kernel", Variant("a")}, {"time", Variant(4.0)}}));
    rs.push_back(record({{"time", Variant(8.0)}}));
    expect_paths_agree("AGGREGATE count,sum(time) GROUP BY kernel", rs);
}

TEST(RecordPipeline, LetAndWhereAgree) {
    const auto rs = sample_records();
    expect_paths_agree("LET ms=scale(time,1000.0) "
                       "AGGREGATE sum(ms),count WHERE rank>2 GROUP BY kernel",
                       rs);
    expect_paths_agree("LET bucket=truncate(bytes,1000) "
                       "AGGREGATE count GROUP BY bucket",
                       rs);
    expect_paths_agree("LET r=ratio(bytes,time) "
                       "AGGREGATE max(r) WHERE kernel=force GROUP BY rank",
                       rs);
    expect_paths_agree("LET v=first(missing,time) "
                       "AGGREGATE sum(v) GROUP BY kernel",
                       rs);
}

// --- AggregationDB: process_batch vs process(IdRecord) ----------------------

TEST(RecordPipeline, DbBatchMatchesRecordAtATime) {
    const auto rs = sample_records();
    const AggregationConfig cfg = AggregationConfig::parse(
        "count,sum(time),min(time),max(time),avg(time),variance(time),"
        "histogram(bytes),percent_total(time)",
        "kernel,rank");

    AttributeRegistry registry;
    AggregationDB via_batch(cfg, &registry);
    AggregationDB via_records(cfg, &registry);

    RecordBatch batch;
    std::vector<std::uint32_t> selection;
    for (const RecordMap& r : rs) {
        IdRecord id_rec;
        for (const auto& [name, value] : r)
            id_rec.append(registry.create(name, value.type()).id(), value);
        via_records.process(id_rec);
        selection.push_back(static_cast<std::uint32_t>(batch.rows()));
        batch.append_record(id_rec);
    }
    via_batch.process_batch(batch, selection);

    const std::vector<RecordMap> a = via_batch.flush();
    const std::vector<RecordMap> b = via_records.flush();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "entry " << i;
}

TEST(RecordPipeline, FeederReplayAcrossBatchBoundaries) {
    // one record added with a weight above a batch's row count, between
    // others: the weighted row must answer like the expanded input
    const auto rs = sample_records();
    const std::string query =
        "LET ms=scale(time,1000.0) AGGREGATE count,sum(ms) WHERE rank>0 "
        "GROUP BY kernel,rank FORMAT csv";
    QueryProcessor proc(parse_calql(query));
    RecordMapFeeder feed(proc);
    std::vector<RecordMap> expanded;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const std::uint64_t copies = i == 5 ? 2500 : 1;
        feed.add(rs[i], copies);
        expanded.insert(expanded.end(), copies, rs[i]);
    }
    feed.flush();
    std::ostringstream os;
    proc.write(os);
    EXPECT_EQ(proc.num_records_in(), expanded.size());
    EXPECT_EQ(os.str(), run_reader_path(query, expanded));
}

namespace {

/// Feed \a records with multiplicities \a copies — as weighted rows, or
/// expanded one copy at a time — and render the answer plus its counts.
std::string weighted_answer(const std::string& query,
                            const std::vector<RecordMap>& records,
                            const std::vector<std::uint64_t>& copies,
                            bool weighted, std::size_t budget) {
    QueryProcessor proc(parse_calql(query));
    proc.set_aggregation_memory_budget(budget);
    RecordMapFeeder feed(proc);
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (weighted)
            feed.add(records[i], copies[i]);
        else
            for (std::uint64_t c = 0; c < copies[i]; ++c)
                feed.add(records[i]);
    }
    feed.flush();
    std::ostringstream os;
    os << proc.num_records_in() << " in, " << proc.num_records_kept() << " kept\n";
    proc.write(os);
    return os.str();
}

} // namespace

TEST(RecordPipeline, WeightedRowsSpillWhereTheirCopiesDid) {
    // a 1-byte budget caps the group table at 16 entries. The weighted row
    // whose insert fills it must fold one copy, spill, and fold the other
    // copies into the fresh table, as its copies one by one would. The sum
    // makes the split visible: 0.5 + ((0.5 + 0.5 + 1e16) - 1e16) is 0.5,
    // while (0.5 + 0.5 + 0.5) + (1e16 - 1e16) is 1.5. Reversed field order
    // turns the rows of "k15" into overflow rows, which fold on the record
    // path.
    for (const bool reversed : {false, true}) {
        std::vector<RecordMap> records;
        std::vector<std::uint64_t> copies;
        const auto add = [&](const std::string& k, double v, std::uint64_t n) {
            records.push_back(reversed && k == "k15"
                                  ? record({{"v", Variant(v)}, {"k", Variant(k)}})
                                  : record({{"k", Variant(k)}, {"v", Variant(v)}}));
            copies.push_back(n);
        };
        for (int i = 0; i < 15; ++i)
            add("k" + std::to_string(i), 1.0 + i, 1 + i % 3);
        add("k15", 0.5, 3); // the 16th group: spills after its first copy
        add("k15", 1e16, 1);
        add("k3", 0.25, 2);
        add("k15", -1e16, 1);
        const std::string query =
            "AGGREGATE count,sum(v),avg(v) GROUP BY k ORDER BY k FORMAT csv";
        const std::string spilled = weighted_answer(query, records, copies, true, 1);
        EXPECT_EQ(spilled, weighted_answer(query, records, copies, false, 1))
            << (reversed ? "overflow rows" : "column rows");
        EXPECT_NE(spilled, weighted_answer(query, records, copies, true, 0))
            << "the input must regroup the sum when it spills";
        EXPECT_EQ(weighted_answer(query, records, copies, true, 0),
                  weighted_answer(query, records, copies, false, 0));
    }
}

// --- resolve-once accounting -------------------------------------------------

// Read accounting lives in the global metrics registry ("reader.*"); tests
// enable metrics around the read and assert on counter deltas.
namespace {

struct ReaderCounters {
    std::int64_t records, entries, name_resolutions;

    static ReaderCounters sample() {
        const auto& reg = obs::MetricsRegistry::instance();
        return {reg.value("reader.records"), reg.value("reader.entries"),
                reg.value("reader.name_resolutions")};
    }
    ReaderCounters operator-(const ReaderCounters& o) const {
        return {records - o.records, entries - o.entries,
                name_resolutions - o.name_resolutions};
    }
};

} // namespace

TEST(RecordPipeline, CaliReaderResolvesNamesOncePerDefinition) {
    const auto rs = sample_records(); // 64 records x 4 attributes
    std::istringstream is(to_stream(rs));

    obs::set_enabled(true);
    const ReaderCounters before = ReaderCounters::sample();

    AttributeRegistry registry;
    std::uint64_t seen = 0;
    CaliReader::read_buffer_batches(is.str(), registry, 16,
                                    [&seen](RecordBatch& b) { seen += b.rows(); });

    const ReaderCounters delta = ReaderCounters::sample() - before;
    obs::set_enabled(false);

    EXPECT_EQ(seen, rs.size());
    EXPECT_EQ(delta.records, static_cast<std::int64_t>(rs.size()));
    EXPECT_EQ(delta.entries, static_cast<std::int64_t>(4 * rs.size()));
    // the resolve-once contract: one registry resolution per attribute
    // *definition*, strictly fewer than one per entry
    EXPECT_EQ(delta.name_resolutions, 4);
    EXPECT_LT(delta.name_resolutions, delta.entries);
}

TEST(RecordPipeline, JsonReaderResolvesKeysOncePerStream) {
    std::istringstream is(R"([
        {"kernel": "a", "time": 1.5},
        {"kernel": "b", "time": 2.5, "rank": 3},
        {"kernel": "a", "time": 4.5, "rank": 1}
    ])");

    obs::set_enabled(true);
    const ReaderCounters before = ReaderCounters::sample();

    const std::vector<RecordMap> out = read_json_records(is);

    const ReaderCounters delta = ReaderCounters::sample() - before;
    obs::set_enabled(false);

    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(delta.records, 3);
    EXPECT_EQ(delta.entries, 2 + 3 + 3);
    EXPECT_EQ(delta.name_resolutions, 3); // kernel, time, rank
    EXPECT_LT(delta.name_resolutions, delta.entries);
}

// --- batch API vs name API produce identical records ------------------------

namespace {

/// Every row of \a batch, in order, converted back to names.
void append_rows(const RecordBatch& batch, const AttributeRegistry& registry,
                 std::vector<RecordMap>& out) {
    IdRecord row;
    for (std::size_t r = 0; r < batch.rows(); ++r) {
        batch.materialize(r, row);
        out.push_back(to_recordmap(row, registry));
    }
}

} // namespace

TEST(RecordPipeline, CaliBatchAndNameApisAgree) {
    const auto rs = sample_records();
    const std::string stream = to_stream(rs);

    std::istringstream is_name(stream);
    const std::vector<RecordMap> by_name = CaliReader::read_all(is_name);

    AttributeRegistry registry;
    std::vector<RecordMap> by_batch;
    CaliReader::read_buffer_batches(stream, registry, 7, [&](RecordBatch& b) {
        append_rows(b, registry, by_batch);
    });

    ASSERT_EQ(by_name.size(), by_batch.size());
    for (std::size_t i = 0; i < by_name.size(); ++i)
        EXPECT_EQ(by_name[i], by_batch[i]) << "record " << i;
}

TEST(RecordPipeline, JsonBatchAndNameApisAgree) {
    const std::string text = R"([{"a": 1, "b": "x"}, {"a": 2.5, "c": true}])";

    const std::vector<RecordMap> by_name = read_json_records(text);

    calib::test::TempDir dir("json-batch");
    const std::string path = dir.file("r.json");
    std::ofstream(path) << text;
    AttributeRegistry registry;
    std::vector<RecordMap> by_batch;
    read_json_file_batches(path, registry, 1, [&](RecordBatch& b) {
        append_rows(b, registry, by_batch);
    });

    ASSERT_EQ(by_name.size(), by_batch.size());
    for (std::size_t i = 0; i < by_name.size(); ++i)
        EXPECT_EQ(by_name[i], by_batch[i]) << "record " << i;
}

TEST(RecordPipeline, GlobalsThroughBatchApi) {
    std::ostringstream os;
    CaliWriter w(os);
    w.write_global("problem.size", Variant(4096ll));
    w.write_global("run.id", Variant("exp-17"));
    w.write_record(record({{"kernel", Variant("k")}, {"time", Variant(1.0)}}));

    AttributeRegistry registry;
    IdRecord globals;
    std::uint64_t records = 0;
    CaliReader::read_buffer_batches(
        os.str(), registry, 1024, [&records](RecordBatch& b) { records += b.rows(); },
        &globals);

    EXPECT_EQ(records, 1u);
    const RecordMap g = to_recordmap(globals, registry);
    EXPECT_EQ(g.get("problem.size").to_int(), 4096);
    EXPECT_EQ(g.get("run.id"), Variant("exp-17"));
}

// --- records wider than snapshot capacity -----------------------------------

TEST(RecordPipeline, WideRecordTruncationAgrees) {
    // both paths must agree on aggregation over records wider than
    // SnapshotRecord::max_entries (the first max_entries are processed)
    RecordMap wide;
    wide.append("kernel", Variant("w"));
    for (int i = 0; i < 80; ++i) {
        const std::string name = "attr." + std::to_string(i);
        wide.append(std::string_view(name), Variant(1.0 * i));
    }
    expect_paths_agree("AGGREGATE count,sum(attr.5) GROUP BY kernel", {wide});
}
