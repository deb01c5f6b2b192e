#include "processor.hpp"

#include "../obs/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace calib {

namespace {
// Pipeline-stage timers; the report merges "phase.*" timers into the
// per-phase table (see obs/report.cpp).
obs::Timer let_time("phase.let");
obs::Timer filter_time("phase.filter");
obs::Timer aggregate_time("phase.aggregate");
// Rows entering add_batch() and rows surviving the WHERE selection vector
// (their ratio is the batch selectivity).
obs::Counter batch_rows("batch.rows");
obs::Counter batch_selectivity("batch.selectivity");
} // namespace

QueryProcessor::QueryProcessor(QuerySpec spec)
    : spec_(std::move(spec)), owned_registry_(std::make_unique<AttributeRegistry>()),
      registry_(owned_registry_.get()), id_filter_(spec_.filters, registry_),
      id_lets_(spec_.lets, registry_) {
    if (spec_.has_aggregation()) {
        AggregationConfig cfg = spec_.aggregation;
        // GROUP BY without AGGREGATE: default to count (record frequency),
        // so a bare "GROUP BY function" query is meaningful.
        if (cfg.ops.empty())
            cfg.ops.push_back(AggOpConfig{AggOp::Count, "", ""});
        if (spec_.window.enabled())
            wdb_.emplace(std::move(cfg), spec_.window, registry_);
        else
            db_.emplace(std::move(cfg), registry_);
    }
}

QueryProcessor::QueryProcessor(QuerySpec spec, AttributeRegistry* registry)
    : spec_(std::move(spec)), registry_(registry), id_filter_(spec_.filters, registry_),
      id_lets_(spec_.lets, registry_) {
    if (spec_.has_aggregation()) {
        AggregationConfig cfg = spec_.aggregation;
        if (cfg.ops.empty())
            cfg.ops.push_back(AggOpConfig{AggOp::Count, "", ""});
        if (spec_.window.enabled())
            wdb_.emplace(std::move(cfg), spec_.window, registry_);
        else
            db_.emplace(std::move(cfg), registry_);
    }
}

Variant QueryProcessor::passthrough_timestamp(const IdRecord& record) {
    if (pass_time_id_ == invalid_id && pass_time_gen_ != registry_->generation()) {
        pass_time_gen_ = registry_->generation();
        pass_time_id_  = registry_->find(spec_.window.time_attribute()).id();
    }
    return pass_time_id_ != invalid_id ? record.get(pass_time_id_) : Variant();
}

void QueryProcessor::add_passthrough(RecordMap&& row, const Variant& timestamp) {
    if (!spec_.window.enabled()) {
        passthrough_.push_back(std::move(row));
        return;
    }
    const std::optional<std::int64_t> p =
        pane_index(timestamp, spec_.window.slide());
    if (!p) {
        ++pass_dropped_;
        return;
    }
    passthrough_.push_back(std::move(row));
    passthrough_panes_.push_back(*p);
    if (!pass_watermark_ || *p > *pass_watermark_)
        pass_watermark_ = *p;
}

void QueryProcessor::add_batch(RecordBatch& batch) {
    const std::size_t n = batch.rows();
    if (n == 0)
        return;
    in_ += batch.total_weight();
    batch_rows.add(n);
    if (!id_lets_.empty()) {
        obs::Timer::Scope t(let_time);
        id_lets_.apply(batch);
    }
    {
        obs::Timer::Scope t(filter_time);
        id_filter_.matches(batch, sel_);
    }
    kept_ += batch.total_weight(sel_);
    batch_selectivity.add(sel_.size());
    if (sel_.empty())
        return;
    if (db_) {
        obs::Timer::Scope t(aggregate_time);
        db_->process_batch(batch, sel_);
    } else if (wdb_) {
        obs::Timer::Scope t(aggregate_time);
        wdb_->process_batch(batch, sel_);
    } else {
        for (const std::uint32_t r : sel_) {
            batch.materialize(r, rec_scratch_);
            const Variant ts = spec_.window.enabled()
                                   ? passthrough_timestamp(rec_scratch_)
                                   : Variant();
            RecordMap row = to_recordmap(rec_scratch_, *registry_);
            for (std::uint64_t c = batch.weight(r); c > 1; --c)
                add_passthrough(RecordMap(row), ts);
            add_passthrough(std::move(row), ts);
        }
    }
}

void QueryProcessor::set_aggregation_memory_budget(std::size_t bytes) {
    if (db_)
        db_->set_memory_budget(bytes);
    if (wdb_)
        wdb_->set_memory_budget(bytes);
}

void QueryProcessor::add(IdRecord&& record) {
    one_.clear();
    one_.append_record(record);
    add_batch(one_);
}

void QueryProcessor::add(const std::vector<RecordMap>& records) {
    RecordMapFeeder feed(*this);
    for (const RecordMap& r : records)
        feed.add(r);
    feed.flush();
}

void RecordMapFeeder::add(const RecordMap& record, std::uint64_t copies) {
    row_.clear();
    for (const auto& [name, value] : record) {
        auto [it, fresh] = ids_.try_emplace(name, invalid_id);
        if (fresh)
            it->second = proc_.registry()->create(name, value.type()).id();
        row_.append(it->second, value);
    }
    if (copies == 0)
        return;
    batch_.append_record(row_);
    batch_.set_weight(batch_.rows() - 1, copies);
    if (batch_.rows() >= RecordBatch::default_rows)
        flush();
}

void RecordMapFeeder::flush() {
    if (batch_.empty())
        return;
    proc_.add_batch(batch_);
    batch_.clear();
}

void QueryProcessor::merge(QueryProcessor& other) {
    in_ += other.in_;
    kept_ += other.kept_;
    if (db_ && other.db_) {
        // registries differ; go through the name-based serialized form
        db_->merge_serialized(other.db_->serialize());
    } else if (wdb_ && other.wdb_) {
        wdb_->merge_serialized(other.wdb_->serialize());
    } else {
        passthrough_.insert(passthrough_.end(), other.passthrough_.begin(),
                            other.passthrough_.end());
        passthrough_panes_.insert(passthrough_panes_.end(),
                                  other.passthrough_panes_.begin(),
                                  other.passthrough_panes_.end());
        pass_dropped_ += other.pass_dropped_;
        if (other.pass_watermark_ &&
            (!pass_watermark_ || *other.pass_watermark_ > *pass_watermark_))
            pass_watermark_ = other.pass_watermark_;
    }
}

void QueryProcessor::merge(QueryProcessor&& other) {
    in_ += other.in_;
    kept_ += other.kept_;
    other.in_ = other.kept_ = 0;
    if (db_ && other.db_) {
        if (registry_ == other.registry_)
            db_->merge(std::move(*other.db_));
        else
            db_->merge_serialized(other.db_->serialize());
    } else if (wdb_ && other.wdb_) {
        if (registry_ == other.registry_)
            wdb_->merge(std::move(*other.wdb_));
        else
            wdb_->merge_serialized(other.wdb_->serialize());
    } else {
        passthrough_.insert(passthrough_.end(),
                            std::make_move_iterator(other.passthrough_.begin()),
                            std::make_move_iterator(other.passthrough_.end()));
        other.passthrough_.clear();
        passthrough_panes_.insert(passthrough_panes_.end(),
                                  other.passthrough_panes_.begin(),
                                  other.passthrough_panes_.end());
        other.passthrough_panes_.clear();
        pass_dropped_ += other.pass_dropped_;
        other.pass_dropped_ = 0;
        if (other.pass_watermark_ &&
            (!pass_watermark_ || *other.pass_watermark_ > *pass_watermark_))
            pass_watermark_ = other.pass_watermark_;
    }
}

std::size_t QueryProcessor::aggregation_entries() const noexcept {
    return db_ ? db_->size() : wdb_ ? wdb_->entries() : 0;
}

std::vector<std::byte> QueryProcessor::take_partial() {
    if (db_ && !db_->empty()) {
        // the record count travels inside the buffer (db.processed_);
        // in_/kept_ stay here so they are counted exactly once
        std::vector<std::byte> buf = db_->serialize();
        db_->clear();
        return buf;
    }
    if (wdb_ && !wdb_->empty()) {
        std::vector<std::byte> buf = wdb_->serialize();
        wdb_->clear(); // keeps the watermark: late records must stay late
        return buf;
    }
    return {};
}

std::vector<std::byte> QueryProcessor::serialize_partial() const {
    if (db_)
        return db_->serialize();
    if (wdb_)
        return wdb_->serialize();
    // no aggregation: serialize raw records. In windowed passthrough mode
    // the magic changes and every record carries its pane index.
    const bool windowed = spec_.window.enabled();
    std::vector<std::byte> buf;
    ByteWriter w(buf);
    w.put(static_cast<std::uint32_t>(windowed ? 0x0CA11B10u : 0x0CA11B0Fu));
    w.put(static_cast<std::uint64_t>(in_));
    if (windowed) {
        w.put(static_cast<std::uint8_t>(pass_watermark_.has_value() ? 1 : 0));
        w.put(static_cast<std::int64_t>(pass_watermark_.value_or(0)));
        w.put(pass_dropped_);
    }
    w.put(static_cast<std::uint32_t>(passthrough_.size()));
    for (std::size_t i = 0; i < passthrough_.size(); ++i) {
        const RecordMap& r = passthrough_[i];
        if (windowed)
            w.put(passthrough_panes_[i]);
        w.put(static_cast<std::uint32_t>(r.size()));
        for (const auto& [name, value] : r) {
            w.put_string(name);
            w.put_variant(value);
        }
    }
    return buf;
}

void QueryProcessor::merge_serialized(std::span<const std::byte> data) {
    if (db_) {
        db_->merge_serialized(data);
        return;
    }
    if (wdb_) {
        wdb_->merge_serialized(data);
        return;
    }
    ByteReader r(data);
    const auto magic    = r.get<std::uint32_t>();
    const bool windowed = magic == 0x0CA11B10u;
    if (!windowed && magic != 0x0CA11B0Fu)
        throw std::runtime_error("QueryProcessor: bad record-buffer magic");
    in_ += r.get<std::uint64_t>();
    if (windowed) {
        const bool has_wm     = r.get<std::uint8_t>() != 0;
        const std::int64_t wm = r.get<std::int64_t>();
        if (has_wm && (!pass_watermark_ || wm > *pass_watermark_))
            pass_watermark_ = wm;
        pass_dropped_ += r.get<std::uint64_t>();
    }
    const auto n = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
        if (windowed)
            passthrough_panes_.push_back(r.get<std::int64_t>());
        RecordMap rec;
        const auto fields = r.get<std::uint32_t>();
        for (std::uint32_t f = 0; f < fields; ++f) {
            const std::string_view name = r.get_string();
            rec.append(name, r.get_variant());
        }
        passthrough_.push_back(std::move(rec));
        ++kept_;
    }
}

namespace {

using Field = RowArena::Field;

/// Where each ORDER BY term reads its value: the term's own (interned)
/// name first, then, in SELECT order, every column SELECT aliases to it.
std::vector<std::vector<const char*>> sort_columns(const QuerySpec& spec) {
    std::vector<std::vector<const char*>> out;
    for (const SortSpec& s : spec.sort) {
        std::vector<const char*> names{intern(s.attribute)};
        for (const std::string& column : spec.select) {
            const auto alias = spec.aliases.find(column);
            if (alias != spec.aliases.end() && alias->second == s.attribute)
                names.push_back(intern(column));
        }
        out.push_back(std::move(names));
    }
    return out;
}

/// Append one row's ORDER BY values to \a keys (empty where the row has
/// none of a term's columns). Row names are interned, so they match the
/// resolved names by pointer.
void append_sort_keys(std::span<const Field> row,
                      const std::vector<std::vector<const char*>>& columns,
                      std::vector<Variant>& keys) {
    for (const std::vector<const char*>& names : columns) {
        const Variant* value = nullptr;
        for (std::size_t n = 0; n < names.size() && !value; ++n)
            for (const Field& f : row)
                if (f.first == names[n]) {
                    value = &f.second;
                    break;
                }
        keys.push_back(value ? *value : Variant());
    }
}

/// Row indices [0, n) ordered by the ORDER BY values (keys[r * terms + t])
/// with \a tie deciding equal ones; with a LIMIT below n only the first
/// \a limit are sorted (partial_sort) and returned.
template <typename Tie>
std::vector<std::uint32_t> ordered_rows(std::size_t n, const std::vector<Variant>& keys,
                                        const std::vector<SortSpec>& sort,
                                        std::size_t limit, const Tie& tie) {
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const std::size_t terms = sort.size();
    const auto less = [&](std::uint32_t a, std::uint32_t b) {
        const Variant* ka = keys.data() + a * terms;
        const Variant* kb = keys.data() + b * terms;
        for (std::size_t t = 0; t < terms; ++t) {
            const int c = ka[t].compare(kb[t]);
            if (c != 0)
                return sort[t].descending ? c > 0 : c < 0;
        }
        return tie(a, b);
    };
    if (limit > 0 && limit < n) {
        const auto head = order.begin() + static_cast<std::ptrdiff_t>(limit);
        std::partial_sort(order.begin(), head, order.end(), less);
        order.resize(limit);
    } else {
        std::sort(order.begin(), order.end(), less);
    }
    return order;
}

/// Canonical order of aggregated rows. Groups come out of the hash table
/// in insertion order, which depends on how the input was partitioned;
/// ordering rows by their name-sorted (name, value) field sequences makes
/// the order a function of row contents alone, so serial and parallel
/// runs (any thread count, merge strategy or spill) emit identical bytes.
/// The order is total on distinct rows.
class CanonicalOrder {
public:
    explicit CanonicalOrder(const RowArena& rows) : rows_(rows), layout_(rows.rows()) {
        for (std::size_t r = 0; r < rows.rows(); ++r) {
            const std::span<const Field> row = rows.row(r);
            // rows mostly share one field layout: sort names only when the
            // layout changes. Names are unique within a row except in
            // overflow records; a stable sort keeps those in emission order.
            if (r > 0 && same_names(rows.row(r - 1), row)) {
                layout_[r] = layout_[r - 1];
                continue;
            }
            const std::size_t b = perm_.size();
            layout_[r]          = static_cast<std::uint32_t>(b);
            perm_.resize(b + row.size());
            std::iota(perm_.begin() + static_cast<std::ptrdiff_t>(b), perm_.end(), 0u);
            std::stable_sort(perm_.begin() + static_cast<std::ptrdiff_t>(b), perm_.end(),
                             [&row](std::uint32_t x, std::uint32_t y) {
                                 return std::strcmp(row[x].first, row[y].first) < 0;
                             });
        }
    }

    bool less(std::uint32_t a, std::uint32_t b) const {
        const std::span<const Field> x = rows_.row(a);
        const std::span<const Field> y = rows_.row(b);
        const std::uint32_t* px        = perm_.data() + layout_[a];
        const std::uint32_t* py        = perm_.data() + layout_[b];
        for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
            const Field& fx = x[px[i]];
            const Field& fy = y[py[i]];
            if (fx.first != fy.first)
                if (const int c = std::strcmp(fx.first, fy.first); c != 0)
                    return c < 0;
            // compare() ranks 0 and -0 (and NaN payloads) equal, but they
            // are distinct groups: break its ties by identity, or such rows
            // keep the hash table's (merge-strategy dependent) order
            if (const int c = fx.second.compare(fy.second); c != 0)
                return c < 0;
            if (const int c = fx.second.identity_compare(fy.second); c != 0)
                return c < 0;
        }
        return x.size() < y.size();
    }

private:
    static bool same_names(std::span<const Field> a, std::span<const Field> b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].first != b[i].first)
                return false;
        return true;
    }

    const RowArena& rows_;
    /// Name order of each distinct run of field layouts: field positions
    /// within a row, back to back.
    std::vector<std::uint32_t> perm_;
    std::vector<std::uint32_t> layout_; ///< per row: its name order in perm_
};

} // namespace

std::vector<RecordMap> QueryProcessor::top_rows(const RowArena& rows) const {
    const auto columns = sort_columns(spec_);
    std::vector<Variant> keys;
    keys.reserve(rows.rows() * columns.size());
    for (std::size_t r = 0; r < rows.rows(); ++r)
        append_sort_keys(rows.row(r), columns, keys);
    const CanonicalOrder canonical(rows);
    const std::vector<std::uint32_t> order = ordered_rows(
        rows.rows(), keys, spec_.sort, spec_.limit,
        [&canonical](std::uint32_t a, std::uint32_t b) { return canonical.less(a, b); });
    std::vector<RecordMap> out;
    out.reserve(order.size());
    for (const std::uint32_t r : order)
        out.push_back(rows.record(r));
    return out;
}

void QueryProcessor::sort_records(std::vector<RecordMap>& records) const {
    if (spec_.sort.empty())
        return;
    const auto columns = sort_columns(spec_);
    std::vector<Variant> keys;
    keys.reserve(records.size() * columns.size());
    for (const RecordMap& r : records)
        append_sort_keys(r.fields(), columns, keys);
    // input order breaks ties
    const std::vector<std::uint32_t> order =
        ordered_rows(records.size(), keys, spec_.sort, spec_.limit,
                     [](std::uint32_t a, std::uint32_t b) { return a < b; });
    std::vector<RecordMap> sorted;
    sorted.reserve(order.size());
    for (const std::uint32_t r : order)
        sorted.push_back(std::move(records[r]));
    records = std::move(sorted);
}

const std::vector<RecordMap>& QueryProcessor::result() {
    if (result_)
        return *result_;
    if (db_ || wdb_) {
        // a window's rows are the fold of its live panes
        result_ = top_rows(db_ ? db_->flush_rows() : wdb_->flush_rows());
        return *result_;
    }
    std::vector<RecordMap> out;
    if (spec_.window.enabled()) {
        // windowed passthrough: keep rows whose pane lies in the trailing
        // window ending at the watermark, preserving input order
        if (pass_watermark_) {
            const std::int64_t lo =
                *pass_watermark_ -
                static_cast<std::int64_t>(spec_.window.pane_count()) + 1;
            for (std::size_t i = 0; i < passthrough_.size(); ++i)
                if (passthrough_panes_[i] >= lo)
                    out.push_back(std::move(passthrough_[i]));
        }
        passthrough_.clear();
        passthrough_panes_.clear();
    } else {
        out = std::move(passthrough_);
    }
    sort_records(out);
    if (spec_.limit > 0 && out.size() > spec_.limit)
        out.resize(spec_.limit);
    result_ = std::move(out);
    return *result_;
}

void QueryProcessor::write(std::ostream& os) {
    format_records(os, result(), spec_);
}

std::vector<std::string> unknown_query_attributes(const QuerySpec& spec,
                                                  const AttributeRegistry& registry) {
    // names the query itself introduces; referencing them is always fine
    std::vector<std::string> produced;
    for (const LetSpec& let : spec.lets)
        produced.push_back(let.target);
    for (const AggOpConfig& op : spec.aggregation.ops) {
        produced.push_back(op.result_label());
        if (!op.alias.empty())
            produced.push_back(op.alias);
    }

    auto is_produced = [&produced](const std::string& name) {
        return std::find(produced.begin(), produced.end(), name) != produced.end();
    };
    auto known = [&](const std::string& name) {
        return is_produced(name) || registry.find(name).valid();
    };

    std::vector<std::string> warnings;
    auto warn = [&warnings](const std::string& clause, const std::string& name,
                            const char* effect) {
        warnings.push_back(clause + " references attribute '" + name +
                           "' which never appears in the input; " + effect);
    };

    for (const FilterSpec& f : spec.filters)
        if (f.op != FilterSpec::Op::NotExist && !known(f.attribute))
            warn("WHERE", f.attribute, "no record can match this condition");
    if (!spec.aggregation.key.all)
        for (const std::string& k : spec.aggregation.key.attributes)
            if (!known(k))
                warn("GROUP BY", k, "all records collapse into one group");
    for (const AggOpConfig& op : spec.aggregation.ops) {
        if (agg_op_is_nullary(op.op))
            continue;
        // re-aggregating an aggregated profile reads the "op#attr" column
        const std::string fallback =
            AggOpConfig{op.op, op.attribute, ""}.result_label();
        if (!known(op.attribute) && !registry.find(fallback).valid())
            warn("AGGREGATE", op.attribute, "the result will be empty");
    }
    // ORDER BY may also name a SELECT alias of a column
    auto aliases_known = [&](const std::string& name) {
        for (const auto& [column, alias] : spec.aliases)
            if (alias == name && known(column))
                return true;
        return false;
    };
    for (const SortSpec& s : spec.sort)
        if (!known(s.attribute) && !aliases_known(s.attribute))
            warn("ORDER BY", s.attribute, "it has no effect on the order");
    return warnings;
}

std::vector<RecordMap> run_query(std::string_view query,
                                 const std::vector<RecordMap>& records) {
    QueryProcessor proc(parse_calql(query));
    proc.add(records);
    return proc.result();
}

void run_query(std::string_view query, const std::vector<RecordMap>& records,
               std::ostream& os) {
    QueryProcessor proc(parse_calql(query));
    proc.add(records);
    proc.write(os);
}

} // namespace calib
