#include "differential.hpp"

#include "fuzz_rng.hpp"
#include "oracle.hpp"
#include "querygen.hpp"

#include "../src/engine/parallel_processor.hpp"
#include "../src/io/calireader.hpp"
#include "../src/io/caliwriter.hpp"
#include "../src/io/filebuffer.hpp"
#include "../src/io/jsonreader.hpp"
#include "../src/query/calql.hpp"
#include "../src/query/processor.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace calib::fuzz {

namespace {

namespace fs = std::filesystem;

/// Tolerant value equality for round-trip checks: strings and bools are
/// type-strict, numerics compare by value (a serialized Double 5.0 may
/// legally come back as Int 5 through a type-drifted column).
bool value_equivalent(const Variant& a, const Variant& b) {
    const bool an = a.is_numeric() || a.is_bool();
    const bool bn = b.is_numeric() || b.is_bool();
    if (an != bn)
        return false;
    if (an)
        return a.compare(b) == 0;
    return a == b;
}

bool rows_equivalent(const RecordMap& a, const RecordMap& b) {
    if (a.size() != b.size())
        return false;
    for (const auto& [name, value] : a) {
        const Variant* other = b.find(name);
        if (!other || !value_equivalent(value, *other))
            return false;
    }
    return true;
}

/// A scratch input file that cleans up after itself.
class TempFile {
public:
    TempFile(const std::string& dir, const std::string& name,
             const std::string& content)
        : path_(dir + "/" + name) {
        std::ofstream os(path_, std::ios::binary);
        os << content;
    }
    ~TempFile() {
        std::error_code ec;
        fs::remove(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

struct EngineRun {
    std::string label;
    bool threw = false;
    std::string error;
    std::string output;
    std::vector<RecordMap> rows;
};

EngineRun run_engine(const QuerySpec& spec, const std::string& path,
                     std::size_t threads, bool use_mmap,
                     std::size_t morsel_bytes, std::size_t flush_limit,
                     std::size_t batch_size,
                     std::size_t memory_budget,
                     engine::MergeStrategy strategy =
                         engine::MergeStrategy::Adaptive) {
    EngineRun run;
    run.label = "t" + std::to_string(threads) + (use_mmap ? "/mmap" : "/read") +
                "/m" + std::to_string(morsel_bytes) +
                (flush_limit ? "/flush" : "") +
                "/b" + std::to_string(batch_size) +
                (memory_budget ? "/spill" : "");
    if (strategy != engine::MergeStrategy::Adaptive)
        run.label += std::string("/") + engine::merge_strategy_name(strategy);
    const bool mmap_before = FileBuffer::mmap_enabled();
    FileBuffer::set_mmap_enabled(use_mmap);
    try {
        engine::EngineOptions opts;
        opts.threads         = threads;
        opts.bytes_per_morsel = morsel_bytes;
        if (flush_limit)
            opts.max_partial_entries = flush_limit;
        opts.batch_size = batch_size;
        // explicit (not the SIZE_MAX sentinel), so CALIB_AGG_MEM in the
        // environment cannot perturb fuzz determinism; same for the merge
        // strategy vs CALIB_MERGE_STRATEGY
        opts.agg_memory_budget = memory_budget;
        opts.merge_strategy    = strategy;
        engine::ParallelQueryProcessor engine(spec, opts);
        QueryProcessor& proc = engine.run({path});
        std::ostringstream os;
        proc.write(os);
        run.output = os.str();
        run.rows   = proc.result();
    } catch (const std::exception& e) {
        run.threw = true;
        run.error = e.what();
    }
    FileBuffer::set_mmap_enabled(mmap_before);
    return run;
}

std::string first_difference(const std::string& a, const std::string& b) {
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return "byte " + std::to_string(i) + " (sizes " + std::to_string(a.size()) +
           " vs " + std::to_string(b.size()) + ")";
}

void check_json_roundtrip(const QuerySpec& spec,
                          const std::vector<RecordMap>& rows,
                          const std::string& json_text,
                          std::vector<std::string>* failures) {
    std::vector<RecordMap> parsed;
    try {
        parsed = read_json_records(std::string_view(json_text));
    } catch (const std::exception& e) {
        failures->push_back(std::string("json round-trip: formatter output "
                                        "does not re-parse: ") +
                            e.what());
        return;
    }
    // expected: the result rows under their display names (JSON emits
    // aliases), minus non-finite doubles (emitted as null, which the
    // reader maps to an absent field)
    std::vector<RecordMap> expected;
    for (const RecordMap& row : rows) {
        RecordMap e;
        for (const auto& [name, value] : row) {
            if (value.type() == Variant::Type::Double &&
                !std::isfinite(value.as_double()))
                continue;
            const auto alias = spec.aliases.find(name);
            e.append(alias != spec.aliases.end() ? alias->second : name, value);
        }
        expected.push_back(std::move(e));
    }
    if (parsed.size() != expected.size()) {
        failures->push_back("json round-trip: " + std::to_string(parsed.size()) +
                            " rows re-parsed, expected " +
                            std::to_string(expected.size()));
        return;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (!rows_equivalent(expected[i], parsed[i])) {
            failures->push_back("json round-trip: row " + std::to_string(i) +
                                " changed value across write -> parse");
            return;
        }
    }
}

void check_cali_roundtrip(const std::vector<RecordMap>& rows,
                          std::vector<std::string>* failures,
                          const std::string& what) {
    std::ostringstream os;
    CaliWriter writer(os);
    for (const RecordMap& row : rows)
        writer.write_record(row);
    const std::string text = os.str();
    std::vector<RecordMap> parsed;
    try {
        std::istringstream is(text);
        parsed = CaliReader::read_all(is);
    } catch (const std::exception& e) {
        failures->push_back(what + " round-trip: written stream does not "
                                   "re-parse: " +
                            e.what());
        return;
    }
    if (parsed.size() != rows.size()) {
        failures->push_back(what + " round-trip: " + std::to_string(parsed.size()) +
                            " records re-parsed, expected " +
                            std::to_string(rows.size()));
        return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rows_equivalent(rows[i], parsed[i])) {
            failures->push_back(what + " round-trip: record " + std::to_string(i) +
                                " changed value across write -> parse");
            return;
        }
    }
}

/// Re-serialize a (possibly shrunk) well-formed corpus.
void rebuild_text(Corpus& corpus) {
    std::ostringstream os;
    CaliWriter writer(os);
    for (const RecordMap& record : corpus.records)
        writer.write_record(record);
    corpus.cali_text = os.str();
}

} // namespace

std::vector<std::string> check_case(const Corpus& corpus, const std::string& query,
                                    std::uint64_t case_salt,
                                    const DiffOptions& opts) {
    std::vector<std::string> failures;

    QuerySpec spec;
    try {
        spec = parse_calql(query);
    } catch (const std::exception& e) {
        failures.push_back(std::string("generated query failed to parse: ") +
                           e.what() + " [" + query + "]");
        return failures;
    }

    // per-case engine knobs, deterministic in the salt
    Rng rng(case_salt ^ 0xd1fbeefULL);
    static const std::size_t kMorselBytes[] = {0, 256, 1024, std::size_t(4) << 20};
    const std::size_t morsel_bytes = kMorselBytes[rng.below(4)];
    const std::size_t flush_limit  = rng.chance(25) ? 2 : 0;

    TempFile input(opts.work_dir,
                   "calib-fuzz-" + std::to_string(case_salt) + ".cali",
                   corpus.cali_text);

    // the engine family: 3 thread counts x 2 I/O paths, one morsel plan,
    // the default batch size
    std::vector<EngineRun> runs;
    for (std::size_t threads : {std::size_t(1), std::size_t(2), std::size_t(4)})
        for (bool use_mmap : {true, false})
            runs.push_back(run_engine(spec, input.path(), threads, use_mmap,
                                      morsel_bytes, flush_limit,
                                      /*batch_size=*/1024,
                                      /*memory_budget=*/0));
    // merge-strategy matrix: every phase-2 strategy must be byte-identical
    // to the adaptive head at every thread count (the strategies realize
    // the same per-key reduction DAG; only the schedule differs). Runs
    // share the case's morsel and flush plan — the flush plan fixes the
    // reduction DAG, the strategy must not.
    for (engine::MergeStrategy strategy :
         {engine::MergeStrategy::Pairwise, engine::MergeStrategy::Tree,
          engine::MergeStrategy::Radix})
        for (std::size_t threads :
             {std::size_t(1), std::size_t(2), std::size_t(4)})
            runs.push_back(run_engine(spec, input.path(), threads,
                                      /*use_mmap=*/true, morsel_bytes,
                                      flush_limit, /*batch_size=*/1024,
                                      /*memory_budget=*/0, strategy));
    // batch-size invariance family: one-row batches (at one and two
    // threads) and other forced tiny batch sizes must be byte-identical to
    // the 1024-row default (the columnar-pipeline claim: results do not
    // depend on where batches are cut). Early flush triggers at batch — not
    // record —
    // granularity, so its cut points move with the batch size and regroup
    // floating-point reductions; this family therefore always runs with
    // early flush off, joining the base family directly when the case's
    // flush plan is also off (otherwise it gets its own reference head).
    std::vector<EngineRun> batch_runs;
    std::vector<EngineRun>& famB = flush_limit == 0 ? runs : batch_runs;
    if (flush_limit != 0)
        famB.push_back(run_engine(spec, input.path(), 1, true, morsel_bytes, 0,
                                  /*batch_size=*/1024, 0));
    famB.push_back(run_engine(spec, input.path(), 1, true, morsel_bytes, 0,
                              /*batch_size=*/1, 0));
    famB.push_back(run_engine(spec, input.path(), 2, true, morsel_bytes, 0,
                              /*batch_size=*/1, 0));
    for (std::size_t bs : {std::size_t(2), std::size_t(7)})
        famB.push_back(run_engine(spec, input.path(), bs == 7 ? 4 : 1, true,
                                  morsel_bytes, 0, bs, 0));

    auto compare_family = [&](const std::vector<EngineRun>& family) {
        const EngineRun& head = family.front();
        for (std::size_t i = 1; i < family.size(); ++i) {
            const EngineRun& run = family[i];
            if (run.threw != head.threw) {
                failures.push_back("engine disagreement: " + head.label +
                                   (head.threw ? " rejected (" + head.error + ")"
                                               : " accepted") +
                                   " but " + run.label +
                                   (run.threw ? " rejected (" + run.error + ")"
                                              : " accepted"));
                continue;
            }
            if (!run.threw && run.output != head.output)
                failures.push_back("output of " + run.label + " differs from " +
                                   head.label + " at " +
                                   first_difference(head.output, run.output));
        }
    };
    compare_family(runs);
    if (!batch_runs.empty())
        compare_family(batch_runs);
    const EngineRun& base = runs.front();

    // forced-spill family: a 1-byte budget clamps the live group table to
    // the 16-entry floor, so any aggregation with >16 groups spills sorted
    // runs and merges at flush. The spill trigger is deterministic, so
    // every member is byte-identical; spilled floating-point sums may
    // regroup additions, so the family is compared within itself (plus the
    // tolerant oracle below), not byte-compared against the unspilled base.
    std::vector<EngineRun> spill_runs;
    spill_runs.push_back(run_engine(spec, input.path(), 1, true, morsel_bytes, 0,
                                    /*batch_size=*/1024,
                                    /*memory_budget=*/1));
    spill_runs.push_back(run_engine(spec, input.path(), 1, true, morsel_bytes, 0,
                                    /*batch_size=*/1, 1));
    spill_runs.push_back(run_engine(spec, input.path(), 4, false, morsel_bytes, 0,
                                    /*batch_size=*/7, 1));
    compare_family(spill_runs);

    // radix under spill: the spill run boundaries depend on the insertion
    // sequence, so strategies need not agree with each other here — but each
    // strategy must still be thread-count-deterministic within itself
    std::vector<EngineRun> radix_spill_runs;
    for (std::size_t threads : {std::size_t(1), std::size_t(4)})
        radix_spill_runs.push_back(
            run_engine(spec, input.path(), threads, true, morsel_bytes, 0,
                       /*batch_size=*/1024, /*memory_budget=*/1,
                       engine::MergeStrategy::Radix));
    compare_family(radix_spill_runs);

    // result order: rows come out already in the reference order, and a
    // LIMIT k answer is the first k rows of the same query without LIMIT
    // (run with the base run's engine plan, so the values are bitwise equal)
    const auto check_order = [&](const std::vector<RecordMap>& rows,
                                 const std::string& what) {
        const std::vector<RecordMap> want = reference_order(spec, rows);
        const std::size_t at = first_row_difference(want, rows);
        if (at != rows.size())
            failures.push_back(what + " rows are out of reference order at row " +
                               std::to_string(at));
    };
    QuerySpec no_limit = spec;
    no_limit.limit     = 0;
    std::optional<EngineRun> unlimited;
    if (!base.threw) {
        check_order(base.rows, base.label);
        if (!spill_runs.front().threw)
            check_order(spill_runs.front().rows, spill_runs.front().label);
        if (spec.limit > 0) {
            unlimited = run_engine(no_limit, input.path(), 1, true, morsel_bytes,
                                   flush_limit, /*batch_size=*/1024,
                                   /*memory_budget=*/0);
            if (unlimited->threw) {
                failures.push_back("query without LIMIT rejected: " + unlimited->error);
            } else {
                check_order(unlimited->rows, unlimited->label + " without LIMIT");
                const std::size_t want =
                    std::min(spec.limit, unlimited->rows.size());
                if (base.rows.size() != want ||
                    first_row_difference(base.rows, unlimited->rows) != want)
                    failures.push_back("LIMIT " + std::to_string(spec.limit) +
                                       " rows are not the first rows without LIMIT");
            }
        }
    }

    if (!corpus.well_formed)
        return failures; // mutated input: cross-engine agreement was the check
    if (base.threw) {
        failures.push_back("well-formed input rejected: " + base.error);
        return failures;
    }

    // weighted family: one RecordMapFeeder row of weight m (the record's
    // corpus multiplicity) must answer exactly like m rows of weight 1 —
    // output bytes and record counts — unbudgeted and under a 1-byte
    // budget (where a weighted row must spill where its copies did)
    {
        for (const std::size_t budget : {std::size_t(0), std::size_t(1)}) {
            const auto run = [&](bool weighted) {
                QueryProcessor proc(spec);
                proc.set_aggregation_memory_budget(budget);
                RecordMapFeeder feed(proc);
                for (std::size_t i = 0; i < corpus.records.size(); ++i) {
                    const std::uint64_t m = i < corpus.multiplicities.size()
                                                ? corpus.multiplicities[i]
                                                : 1;
                    if (weighted)
                        feed.add(corpus.records[i], m);
                    else
                        for (std::uint64_t c = 0; c < m; ++c)
                            feed.add(corpus.records[i]);
                }
                feed.flush();
                std::ostringstream os;
                proc.write(os);
                return std::to_string(proc.num_records_in()) + " in, " +
                       std::to_string(proc.num_records_kept()) + " kept\n" +
                       os.str();
            };
            const std::string expanded = run(false);
            const std::string weighted = run(true);
            if (weighted != expanded)
                failures.push_back(std::string("weighted rows differ from expanded "
                                               "rows") +
                                   (budget ? " under spill" : "") + " at " +
                                   first_difference(expanded, weighted));
        }
    }

    // oracle agreement: engine rows and serial-processor rows
    const OracleResult oracle = oracle_run(spec, corpus.records);
    for (const std::string& m : oracle_compare(spec, oracle, base.rows))
        failures.push_back("engine vs oracle: " + m);
    const std::vector<RecordMap> serial_rows = run_query(query, corpus.records);
    for (const std::string& m : oracle_compare(spec, oracle, serial_rows))
        failures.push_back("serial processor vs oracle: " + m);
    check_order(serial_rows, "serial processor");
    if (unlimited && !unlimited->threw) {
        for (const std::string& m : oracle_compare(no_limit, oracle, unlimited->rows))
            failures.push_back("engine without LIMIT vs oracle: " + m);
    }
    // the spilled result is checked against the oracle with numeric
    // tolerance (it need not be byte-identical to the unspilled run)
    if (!spill_runs.front().threw)
        for (const std::string& m :
             oracle_compare(spec, oracle, spill_runs.front().rows))
            failures.push_back("spilled engine vs oracle: " + m);

    // round trips
    {
        std::vector<RecordMap> reread;
        try {
            std::istringstream is(corpus.cali_text);
            reread = CaliReader::read_all(is);
        } catch (const std::exception& e) {
            failures.push_back(std::string("well-formed corpus rejected: ") +
                               e.what());
        }
        if (reread.size() != corpus.records.size()) {
            failures.push_back("corpus round-trip: " +
                               std::to_string(reread.size()) +
                               " records re-parsed, expected " +
                               std::to_string(corpus.records.size()));
        } else {
            for (std::size_t i = 0; i < reread.size(); ++i) {
                if (!rows_equivalent(corpus.records[i], reread[i])) {
                    failures.push_back("corpus round-trip: record " +
                                       std::to_string(i) + " changed value");
                    break;
                }
            }
        }
    }
    check_cali_roundtrip(base.rows, &failures, "result");
    if (spec.format == "json")
        check_json_roundtrip(spec, base.rows, base.output, &failures);

    return failures;
}

namespace {

/// Shrink a failing case: ddmin over records, then drop query clauses.
/// Returns the minimized corpus/query (the failure itself is re-derived).
void shrink(Corpus& corpus, std::string& query, std::uint64_t case_salt,
            const DiffOptions& opts) {
    if (!corpus.well_formed)
        return; // mutated byte streams shrink poorly; keep as-is

    auto still_fails = [&](const Corpus& c, const std::string& q) {
        return !check_case(c, q, case_salt, opts).empty();
    };

    // ddmin-lite over records: remove windows while the failure persists
    std::size_t window = corpus.records.size() / 2;
    while (window >= 1) {
        bool removed_any = false;
        for (std::size_t start = 0; start < corpus.records.size();) {
            Corpus candidate = corpus;
            const std::size_t end =
                std::min(start + window, candidate.records.size());
            candidate.records.erase(candidate.records.begin() +
                                        static_cast<std::ptrdiff_t>(start),
                                    candidate.records.begin() +
                                        static_cast<std::ptrdiff_t>(end));
            // each surviving record keeps its multiplicity
            candidate.multiplicities.erase(
                candidate.multiplicities.begin() + static_cast<std::ptrdiff_t>(start),
                candidate.multiplicities.begin() + static_cast<std::ptrdiff_t>(end));
            rebuild_text(candidate);
            if (still_fails(candidate, query)) {
                corpus      = std::move(candidate);
                removed_any = true; // same start now names the next window
            } else {
                start += window;
            }
        }
        if (window == 1 && !removed_any)
            break;
        window /= 2;
    }

    // drop whole query clauses that are not needed to reproduce
    QuerySpec spec;
    try {
        spec = parse_calql(query);
    } catch (const std::exception&) {
        return;
    }
    auto try_spec = [&](QuerySpec candidate) {
        const std::string q = to_calql(candidate);
        if (still_fails(corpus, q)) {
            spec  = std::move(candidate);
            query = q;
        }
    };
    {
        QuerySpec c = spec;
        c.sort.clear();
        try_spec(std::move(c));
    }
    {
        QuerySpec c = spec;
        c.filters.clear();
        try_spec(std::move(c));
    }
    {
        QuerySpec c = spec;
        c.lets.clear();
        try_spec(std::move(c));
    }
    {
        QuerySpec c = spec;
        c.limit = 0;
        try_spec(std::move(c));
    }
    {
        QuerySpec c = spec;
        c.select.clear();
        c.aliases.clear();
        try_spec(std::move(c));
    }
}

void dump_reproducer(const Corpus& corpus, const std::string& query,
                     const SeedOutcome& outcome, std::size_t case_index,
                     const DiffOptions& opts) {
    if (opts.out_dir.empty())
        return;
    const std::string dir = opts.out_dir + "/seed-" +
                            std::to_string(outcome.seed) + "-q" +
                            std::to_string(case_index);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return;
    std::ofstream(dir + "/input.cali", std::ios::binary) << corpus.cali_text;
    std::ofstream(dir + "/query.calql", std::ios::binary) << query << "\n";
    if (!corpus.multiplicities.empty()) {
        // line i: the weighted family's multiplicity of input.cali record i
        std::ofstream mult(dir + "/multiplicities.txt", std::ios::binary);
        for (const std::uint64_t m : corpus.multiplicities)
            mult << m << "\n";
    }
    std::ofstream failure(dir + "/failure.txt", std::ios::binary);
    for (const std::string& f : outcome.failures)
        failure << f << "\n";
}

} // namespace

SeedOutcome run_seed(std::uint64_t seed, const DiffOptions& opts) {
    SeedOutcome outcome;
    outcome.seed = seed;

    Corpus corpus = generate_corpus(seed);
    for (int q = 0; q < opts.queries_per_seed; ++q) {
        const std::uint64_t case_salt = seed * 1000003ULL + static_cast<std::uint64_t>(q);
        std::string query = generate_query(case_salt, corpus);
        std::vector<std::string> failures =
            check_case(corpus, query, case_salt, opts);
        if (failures.empty())
            continue;

        Corpus shrunk = corpus;
        shrink(shrunk, query, case_salt, opts);
        // re-derive the failure from the minimized case (shrinking keeps
        // "some failure", not necessarily the identical message)
        std::vector<std::string> minimized =
            check_case(shrunk, query, case_salt, opts);
        if (minimized.empty())
            minimized = std::move(failures); // paranoia: shrink went flaky

        SeedOutcome case_outcome;
        case_outcome.seed     = seed;
        case_outcome.failures = minimized;
        dump_reproducer(shrunk, query, case_outcome,
                        static_cast<std::size_t>(q), opts);
        for (std::string& f : minimized)
            outcome.failures.push_back("q" + std::to_string(q) + " [" + query +
                                       "]: " + std::move(f));
    }
    return outcome;
}

} // namespace calib::fuzz
