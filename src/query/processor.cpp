#include "processor.hpp"

#include "../obs/metrics.hpp"

#include <algorithm>
#include <cstring>

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
    in_ += n;
    batch_rows.add(n);
    if (!id_lets_.empty()) {
        obs::Timer::Scope t(let_time);
        id_lets_.apply(batch);
    }
    {
        obs::Timer::Scope t(filter_time);
        id_filter_.matches(batch, sel_);
    }
    kept_ += sel_.size();
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
            add_passthrough(to_recordmap(rec_scratch_, *registry_), ts);
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
    for (std::uint64_t i = 0; i < copies; ++i) {
        batch_.append_record(row_);
        if (batch_.rows() >= RecordBatch::default_rows)
            flush();
    }
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

void QueryProcessor::sort_records(std::vector<RecordMap>& records) const {
    if (spec_.sort.empty())
        return;
    std::stable_sort(records.begin(), records.end(),
                     [this](const RecordMap& a, const RecordMap& b) {
                         for (const SortSpec& s : spec_.sort) {
                             const Variant va = a.get(s.attribute);
                             const Variant vb = b.get(s.attribute);
                             const int c      = va.compare(vb);
                             if (c != 0)
                                 return s.descending ? c > 0 : c < 0;
                         }
                         return false;
                     });
}

// Aggregated rows come out of the hash table in insertion order, which
// depends on how the input was partitioned. Re-sorting them by their
// name-sorted (name, value) field sequences yields an order determined only
// by the row *contents* — so serial and parallel runs (any thread count)
// emit identical bytes. User ORDER BY is applied afterwards with a stable
// sort, preserving this canonical order among ties.
void QueryProcessor::canonicalize_rows(std::vector<RecordMap>& records) const {
    if (records.size() < 2)
        return;
    using FieldPtr = const RecordMap::value_type*;
    std::vector<std::pair<std::vector<FieldPtr>, std::size_t>> keys;
    keys.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        std::vector<FieldPtr> fields;
        fields.reserve(records[i].size());
        for (const auto& field : records[i])
            fields.push_back(&field);
        // field order inside a record can differ across registries
        // (attribute-id order); names are unique within a row
        std::sort(fields.begin(), fields.end(), [](FieldPtr a, FieldPtr b) {
            return std::strcmp(a->first, b->first) < 0;
        });
        keys.emplace_back(std::move(fields), i);
    }
    std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
        const std::size_t n = std::min(a.first.size(), b.first.size());
        for (std::size_t i = 0; i < n; ++i) {
            const int c = std::strcmp(a.first[i]->first, b.first[i]->first);
            if (c != 0)
                return c < 0;
            if (a.first[i]->second < b.first[i]->second)
                return true;
            if (b.first[i]->second < a.first[i]->second)
                return false;
        }
        return a.first.size() < b.first.size();
    });
    std::vector<RecordMap> out;
    out.reserve(records.size());
    for (auto& [fields, index] : keys)
        out.push_back(std::move(records[index]));
    records = std::move(out);
}

const std::vector<RecordMap>& QueryProcessor::result() {
    if (result_)
        return *result_;
    std::vector<RecordMap> out;
    if (db_) {
        out = db_->flush();
        canonicalize_rows(out);
    } else if (wdb_) {
        out = wdb_->flush(); // fold of the live panes
        canonicalize_rows(out);
    } else if (spec_.window.enabled()) {
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
    for (const SortSpec& s : spec.sort)
        if (!known(s.attribute))
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
