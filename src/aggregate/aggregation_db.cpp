#include "aggregation_db.hpp"

#include "../common/bytebuf.hpp"
#include "../common/hash.hpp"
#include "../common/log.hpp"
#include "../obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include <unistd.h>

namespace calib {

namespace {

// Global mirrors of the per-DB Stats: every AggregationDB instance (all
// workers, online channels) feeds the same instruments, so --stats shows
// whole-process hash-table behavior.
obs::Counter aggdb_records("aggdb.records");
obs::Counter aggdb_lookups("aggdb.lookups");
obs::Counter aggdb_probe_steps("aggdb.probe_steps");
obs::Counter aggdb_inserts("aggdb.inserts");
obs::Counter aggdb_merges("aggdb.merges");
obs::Counter aggdb_spill_runs("aggdb.spill_runs");
obs::Counter aggdb_spill_bytes("aggdb.spill_bytes");
obs::Timer aggdb_flush("aggdb.flush");

constexpr std::size_t initial_table_slots = 256;
constexpr std::uint32_t serialize_magic   = 0xCA11B0DBu;

std::uint64_t hash_key(const Entry* key, std::size_t len) {
    std::uint64_t h = fnv1a_offset;
    for (std::size_t i = 0; i < len; ++i) {
        h = fnv1a_value(key[i].attribute, h);
        h = fnv1a_value(key[i].value.hash(), h);
    }
    return mix64(h);
}

bool keys_equal(const Entry* a, const Entry* b, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i)
        if (!(a[i] == b[i]))
            return false;
    return true;
}

const Variant* find_entry(std::span<const Entry> record, id_t attribute) {
    for (const Entry& e : record)
        if (e.attribute == attribute)
            return &e.value;
    return nullptr;
}

/// Fold \a copies copies of \a value into \a state; one copy takes the
/// plain update, the unweighted hot path.
void update_copies(AggOp op, std::uint64_t* state, const Variant& value,
                   std::uint64_t copies) {
    if (copies == 1)
        kernel::state_update(op, state, value);
    else
        kernel::state_update_n(op, state, value, copies);
}

/// Lexicographic total order on whole keys, consistent with keys_equal().
/// All spill runs are sorted by this order, so finalize merges them with
/// one streaming cursor per run.
int compare_keys(const Entry* a, std::size_t alen, const Entry* b, std::size_t blen) {
    const std::size_t n = alen < blen ? alen : blen;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].attribute != b[i].attribute)
            return a[i].attribute < b[i].attribute ? -1 : 1;
        const int c = a[i].value.identity_compare(b[i].value);
        if (c != 0)
            return c;
    }
    return alen == blen ? 0 : alen < blen ? -1 : 1;
}

/// Streaming cursor over one key-sorted spill run. Frames are
/// [u32 payload_len][payload] with payload = [u32 states_off][u16 key_len]
/// [key: u32 attr + variant, ...][serialized op states]. load_next() keeps
/// the whole frame contiguous in the buffer, so key() and states() stay
/// valid until the next load_next() call.
class SpillRunCursor {
public:
    SpillRunCursor(int fd, std::uint64_t begin, std::uint64_t end)
        : fd_(fd), next_read_(begin), end_(end) {}

    bool load_next() {
        off_ += frame_size_;
        frame_size_ = 0;
        if (!ensure(4)) {
            if (avail_ != off_ || next_read_ < end_)
                throw std::runtime_error("AggregationDB: truncated spill run");
            return false;
        }
        std::uint32_t payload_len = 0;
        std::memcpy(&payload_len, buf_.data() + off_, sizeof(payload_len));
        if (!ensure(4 + static_cast<std::size_t>(payload_len)))
            throw std::runtime_error("AggregationDB: truncated spill frame");
        const std::byte* p = buf_.data() + off_ + 4;
        ByteReader r(std::span<const std::byte>(p, payload_len));
        const auto states_off = r.get<std::uint32_t>();
        const auto key_len    = r.get<std::uint16_t>();
        key_.clear();
        for (std::uint16_t k = 0; k < key_len; ++k) {
            const id_t attr = r.get<std::uint32_t>();
            key_.push_back(Entry(attr, r.get_variant()));
        }
        states_     = std::span<const std::byte>(p + states_off, payload_len - states_off);
        frame_size_ = 4 + payload_len;
        return true;
    }

    const Entry* key() const noexcept { return key_.data(); }
    std::size_t key_len() const noexcept { return key_.size(); }
    std::span<const std::byte> states() const noexcept { return states_; }

private:
    bool ensure(std::size_t need) {
        if (avail_ - off_ >= need)
            return true;
        if (off_ > 0) {
            std::memmove(buf_.data(), buf_.data() + off_, avail_ - off_);
            avail_ -= off_;
            off_ = 0;
        }
        if (buf_.size() < need)
            buf_.resize(std::max<std::size_t>(need, 256 * 1024));
        while (avail_ < need) {
            if (next_read_ >= end_)
                return false;
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(buf_.size() - avail_, end_ - next_read_));
            const ssize_t n = ::pread(fd_, buf_.data() + avail_, want,
                                      static_cast<off_t>(next_read_));
            if (n <= 0)
                throw std::runtime_error("AggregationDB: spill read failed");
            avail_ += static_cast<std::size_t>(n);
            next_read_ += static_cast<std::uint64_t>(n);
        }
        return true;
    }

    int fd_;
    std::uint64_t next_read_;
    std::uint64_t end_;
    std::vector<std::byte> buf_;
    std::size_t off_        = 0;
    std::size_t avail_      = 0;
    std::size_t frame_size_ = 0;
    std::vector<Entry> key_;
    std::span<const std::byte> states_;
};

} // namespace

AggregationDB::AggregationDB(AggregationConfig config, AttributeRegistry* registry)
    : config_(std::move(config)), registry_(registry) {
    assert(registry_);

    key_ids_.assign(config_.key.attributes.size(), invalid_id);
    op_ids_.assign(config_.ops.size(), invalid_id);
    op_fallback_ids_.assign(config_.ops.size(), invalid_id);

    op_state_offsets_.reserve(config_.ops.size());
    for (const AggOpConfig& op : config_.ops) {
        op_state_offsets_.push_back(state_stride_);
        state_stride_ += kernel::state_size(op.op) / sizeof(std::uint64_t);
    }

    table_.assign(initial_table_slots, 0);
}

// Temp spill file: key-sorted runs of serialized partial aggregates,
// appended by spill_current_run() and merged by for_each_merged_group().
struct AggregationDB::SpillFile {
    std::FILE* file = nullptr;
    std::vector<std::uint64_t> run_offsets; ///< byte offset of each run start
    std::uint64_t bytes = 0;                ///< total bytes written
    ~SpillFile() {
        if (file)
            std::fclose(file);
    }
};

// out of line: SpillFile is incomplete in the header
AggregationDB::AggregationDB(AggregationDB&&) noexcept            = default;
AggregationDB& AggregationDB::operator=(AggregationDB&&) noexcept = default;
AggregationDB::~AggregationDB()                                   = default;

void AggregationDB::set_memory_budget(std::size_t bytes) {
    memory_budget_ = bytes;
    if (bytes == 0) {
        spill_limit_ = 0;
        return;
    }
    // deterministic entry-count threshold derived from the configuration
    // alone (never allocator state), so every run over equal input spills
    // at identical record boundaries, whatever the batch size
    const std::size_t est_key =
        config_.key.all ? 8
                        : std::max<std::size_t>(std::size_t(1),
                                                config_.key.attributes.size());
    const std::size_t per_entry = est_key * sizeof(Entry) +
                                  state_stride_ * sizeof(std::uint64_t) +
                                  sizeof(EntryRec) + 2 * sizeof(std::uint32_t);
    spill_limit_ = std::max<std::size_t>(16, bytes / per_entry);
}

void AggregationDB::maybe_spill() {
    if (spill_limit_ != 0 && entries_.size() >= spill_limit_)
        spill_current_run();
}

void AggregationDB::spill_current_run() {
    if (entries_.empty())
        return;
    if (!spill_) {
        spill_       = std::make_unique<SpillFile>();
        spill_->file = std::tmpfile();
        if (!spill_->file)
            throw std::runtime_error("AggregationDB: cannot create spill file");
    }

    // write the live entries as one key-sorted run
    std::vector<std::uint32_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
        const EntryRec& ra = entries_[a];
        const EntryRec& rb = entries_[b];
        return compare_keys(key_arena_.data() + ra.key_offset, ra.key_len,
                            key_arena_.data() + rb.key_offset, rb.key_len) < 0;
    });

    std::uint64_t run_bytes = 0;
    std::vector<std::byte> frame;
    for (const std::uint32_t idx : order) {
        const EntryRec& rec = entries_[idx];
        frame.clear();
        ByteWriter fw(frame);
        fw.put(static_cast<std::uint32_t>(0)); // states_off, patched below
        fw.put(static_cast<std::uint16_t>(rec.key_len));
        for (std::uint32_t k = 0; k < rec.key_len; ++k) {
            const Entry& ke = key_arena_[rec.key_offset + k];
            fw.put(static_cast<std::uint32_t>(ke.attribute));
            fw.put_variant(ke.value);
        }
        const std::uint32_t states_off = static_cast<std::uint32_t>(frame.size());
        std::memcpy(frame.data(), &states_off, sizeof(states_off));
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            kernel::state_serialize(config_.ops[i].op, entry_state(idx, i), fw);

        const std::uint32_t payload_len = static_cast<std::uint32_t>(frame.size());
        if (std::fwrite(&payload_len, sizeof(payload_len), 1, spill_->file) != 1 ||
            std::fwrite(frame.data(), payload_len, 1, spill_->file) != 1)
            throw std::runtime_error("AggregationDB: spill write failed");
        run_bytes += sizeof(payload_len) + payload_len;
    }
    std::fflush(spill_->file); // finalize reads through pread()

    spill_->run_offsets.push_back(spill_->bytes);
    spill_->bytes += run_bytes;
    ++stats_.spill_runs;
    stats_.spill_bytes += run_bytes;
    aggdb_spill_runs.add();
    aggdb_spill_bytes.add(run_bytes);

    // restart the live table; processed count, stats, and resolution state
    // carry over
    key_arena_.clear();
    state_arena_.clear();
    entries_.clear();
    table_.assign(initial_table_slots, 0);
}

void AggregationDB::reserve(std::size_t entries) {
    entries_.reserve(entries);
    key_arena_.reserve(entries * (config_.key.all ? 8 : config_.key.attributes.size()));
    state_arena_.reserve(entries * state_stride_);
    if (entries * 2 > table_.size())
        grow_table(entries * 2);
}

void AggregationDB::resolve_ids() {
    const std::size_t gen = registry_->generation();
    if (fully_resolved_ || gen == resolved_generation_)
        return;
    resolved_generation_ = gen;

    bool all     = true;
    bool changed = false;
    for (std::size_t i = 0; i < config_.key.attributes.size(); ++i) {
        if (key_ids_[i] == invalid_id) {
            Attribute a = registry_->find(config_.key.attributes[i]);
            if (a.valid()) {
                key_ids_[i] = a.id();
                changed     = true;
            } else {
                all = false;
            }
        }
    }
    for (std::size_t i = 0; i < config_.ops.size(); ++i) {
        const AggOpConfig& op = config_.ops[i];
        if (agg_op_is_nullary(op.op))
            continue;
        if (op_ids_[i] == invalid_id) {
            Attribute a = registry_->find(op.attribute);
            if (a.valid()) {
                op_ids_[i] = a.id();
                changed    = true;
            } else {
                all = false;
            }
        }
        if (op_fallback_ids_[i] == invalid_id) {
            // allow re-aggregating already-aggregated profiles: sum(x) also
            // accepts a "sum#x" input column (paper §VI-B second stage)
            Attribute a =
                registry_->find(AggOpConfig{op.op, op.attribute, ""}.result_label());
            if (a.valid()) {
                op_fallback_ids_[i] = a.id();
                changed             = true;
            } else {
                all = false;
            }
        }
    }
    // newly resolved targets invalidate the implicit-key skip cache
    if (changed)
        std::fill(implicit_skip_.begin(), implicit_skip_.end(),
                  static_cast<std::uint8_t>(2));
    fully_resolved_ = all;
}

bool AggregationDB::skip_in_implicit_key(id_t attr) {
    if (attr >= implicit_skip_.size()) {
        const std::size_t old = implicit_skip_.size();
        implicit_skip_.resize(attr + 1, 2); // 2 = unknown
        (void)old;
    }
    std::uint8_t& flag = implicit_skip_[attr];
    if (flag == 2) {
        Attribute a = registry_->get(attr);
        bool skip   = !a.valid() || a.skip_in_key() || a.is_hidden();
        if (!skip) {
            // aggregation targets never appear in implicit keys
            for (std::size_t i = 0; i < config_.ops.size(); ++i) {
                if (op_ids_[i] == attr || op_fallback_ids_[i] == attr) {
                    skip = true;
                    break;
                }
            }
            // aggregatable metric values (e.g. time.duration) are inputs,
            // not grouping dimensions
            if (a.is_aggregatable())
                skip = true;
        }
        flag = skip ? 1 : 0;
    }
    return flag != 0;
}

void AggregationDB::process(std::span<const Entry> record, std::uint64_t copies) {
    resolve_ids();

    // mirror snapshot capacity: entries beyond max_entries are dropped
    if (record.size() > SnapshotRecord::max_entries)
        record = record.first(SnapshotRecord::max_entries);

    Entry key[SnapshotRecord::max_entries];
    std::size_t key_len = 0;

    if (config_.key.all) {
        for (const Entry& e : record)
            if (!skip_in_implicit_key(e.attribute))
                key[key_len++] = e;
        // stable: duplicate attributes keep their record order, so two
        // records with the same entry multiset always map to the same key
        std::stable_sort(key, key + key_len, [](const Entry& a, const Entry& b) {
            return a.attribute < b.attribute;
        });
    } else {
        for (std::size_t i = 0; i < key_ids_.size(); ++i) {
            const id_t attr = key_ids_[i];
            const Variant* found =
                attr == invalid_id ? nullptr : find_entry(record, attr);
            const Variant v = found ? *found : Variant();
            // canonicalize: an absent key attribute always contributes the
            // same (invalid_id, empty) entry, so groups do not depend on
            // when the attribute was first defined
            key[key_len++] = Entry(v.empty() ? invalid_id : attr, v);
        }
    }

    const std::uint64_t h = hash_key(key, key_len);
    std::size_t index     = find_or_insert(key, key_len, h);
    processed_ += copies;
    aggdb_records.add(copies);
    if (copies > 1 && spill_limit_ != 0 && entries_.size() >= spill_limit_) {
        // see process_batch: the first copy spills alone
        update_ops(index, record, 1);
        spill_current_run();
        index = find_or_insert(key, key_len, h);
        --copies;
    }
    update_ops(index, record, copies);
    maybe_spill();
}

void AggregationDB::process_batch(const RecordBatch& batch,
                                  std::span<const std::uint32_t> selection) {
    if (selection.empty())
        return;
    resolve_ids();

    // resolve key and op attributes to columns once per batch (stream
    // causality makes this equivalent to per-record resolution: a record
    // can only carry an attribute the stream had already defined, so the
    // batch's columns cover everything any of its rows reference)
    if (config_.key.all) {
        key_plan_.clear();
        for (std::size_t ci = 0; ci < batch.num_columns(); ++ci)
            if (!skip_in_implicit_key(batch.column_at(ci).attribute))
                key_plan_.push_back(static_cast<std::uint32_t>(ci));
        // column attributes are unique, so a plain sort matches the record
        // path's stable_sort over per-record entries
        std::sort(key_plan_.begin(), key_plan_.end(),
                  [&batch](std::uint32_t a, std::uint32_t b) {
                      return batch.column_at(a).attribute < batch.column_at(b).attribute;
                  });
    } else {
        key_cols_.assign(key_ids_.size(), -1);
        for (std::size_t i = 0; i < key_ids_.size(); ++i)
            if (key_ids_[i] != invalid_id)
                key_cols_[i] = batch.column_index(key_ids_[i]);
    }
    op_cols_.assign(config_.ops.size(), -1);
    op_fallback_cols_.assign(config_.ops.size(), -1);
    for (std::size_t i = 0; i < config_.ops.size(); ++i) {
        if (op_ids_[i] != invalid_id)
            op_cols_[i] = batch.column_index(op_ids_[i]);
        if (op_fallback_ids_[i] != invalid_id)
            op_fallback_cols_[i] = batch.column_index(op_fallback_ids_[i]);
    }

    // pass 1: build every conforming row's key into one scratch arena and
    // hash it; overflow rows and rows beyond snapshot capacity (where
    // truncation applies) take the record-at-a-time fallback
    row_keys_.clear();
    scratch_keys_.clear();
    hash_scratch_.clear();
    for (const std::uint32_t r : selection) {
        if (batch.is_overflow(r) ||
            batch.entries_in_row(r) > SnapshotRecord::max_entries) {
            row_keys_.push_back(RowKey{0, 0, UINT32_MAX});
            continue;
        }
        const std::uint32_t off = static_cast<std::uint32_t>(scratch_keys_.size());
        if (config_.key.all) {
            for (const std::uint32_t ci : key_plan_) {
                const RecordBatch::Column& c = batch.column_at(ci);
                if (c.valid[r])
                    scratch_keys_.push_back(Entry(c.attribute, c.values[r]));
            }
        } else {
            for (std::size_t i = 0; i < key_ids_.size(); ++i) {
                const std::int32_t ci = key_cols_[i];
                const bool present =
                    ci >= 0 && batch.column_at(static_cast<std::size_t>(ci)).valid[r];
                const Variant v =
                    present ? batch.column_at(static_cast<std::size_t>(ci)).values[r]
                            : Variant();
                scratch_keys_.push_back(Entry(v.empty() ? invalid_id : key_ids_[i], v));
            }
        }
        const std::uint32_t len = static_cast<std::uint32_t>(scratch_keys_.size()) - off;
        const std::uint64_t h   = hash_key(scratch_keys_.data() + off, len);
        row_keys_.push_back(RowKey{h, off, len});
        hash_scratch_.push_back(h);
    }

    // reserve kernel-state capacity from the observed morsel cardinality
    // (distinct key hashes) before the probe loop, so low-duplication
    // batches do not rehash and reallocate mid-morsel
    if (!hash_scratch_.empty()) {
        std::sort(hash_scratch_.begin(), hash_scratch_.end());
        std::size_t distinct = 1;
        for (std::size_t i = 1; i < hash_scratch_.size(); ++i)
            if (hash_scratch_[i] != hash_scratch_[i - 1])
                ++distinct;
        std::size_t want = entries_.size() + distinct;
        if (spill_limit_ != 0)
            want = std::min(want, spill_limit_); // the table restarts at the budget
        if (want > entries_.capacity())
            reserve(want);
    }

    // pass 2, in selection order: probe (with a last-key memo for
    // clustered streams) and update the kernels straight from the columns
    std::uint64_t direct    = 0;
    std::size_t memo_index  = static_cast<std::size_t>(-1);
    std::uint64_t memo_hash = 0;
    std::uint32_t memo_off  = 0;
    std::uint32_t memo_len  = 0;
    std::size_t ki          = 0;
    for (const std::uint32_t r : selection) {
        const RowKey rk      = row_keys_[ki++];
        std::uint64_t copies = batch.weight(r);
        if (rk.len == UINT32_MAX) {
            // overflow rows keep their exact record; oversized conforming
            // rows materialize, then process() truncates them
            const IdRecord* rec = &fallback_rec_;
            if (batch.is_overflow(r))
                rec = &batch.overflow_record(r);
            else
                batch.materialize(r, fallback_rec_);
            process(rec->span(), copies);
            memo_index = static_cast<std::size_t>(-1); // process() may spill
            continue;
        }
        const Entry* key = scratch_keys_.data() + rk.offset;
        std::size_t index;
        if (memo_index != static_cast<std::size_t>(-1) && rk.hash == memo_hash &&
            rk.len == memo_len &&
            keys_equal(key, scratch_keys_.data() + memo_off, rk.len)) {
            index = memo_index;
            ++stats_.lookups; // memo hits still count as key lookups
            aggdb_lookups.add();
        } else {
            index      = find_or_insert(key, rk.len, rk.hash);
            memo_index = index;
            memo_hash  = rk.hash;
            memo_off   = rk.offset;
            memo_len   = rk.len;
        }
        if (copies > 1 && spill_limit_ != 0 && entries_.size() >= spill_limit_) {
            // the first copy fills the table to the spill limit: it spills
            // alone and the other copies start the fresh table, exactly
            // where copy-by-copy folding would put them
            update_ops_cols(index, batch, r, 1);
            ++processed_;
            ++direct;
            --copies;
            spill_current_run();
            index      = find_or_insert(key, rk.len, rk.hash);
            memo_index = index;
        }
        update_ops_cols(index, batch, r, copies);
        processed_ += copies;
        direct += copies;
        if (spill_limit_ != 0 && entries_.size() >= spill_limit_) {
            spill_current_run();
            memo_index = static_cast<std::size_t>(-1); // entries_ restarted
        }
    }
    aggdb_records.add(direct);
}

std::size_t AggregationDB::find_or_insert(const Entry* key, std::size_t key_len,
                                          std::uint64_t hash) {
    ++stats_.lookups;
    aggdb_lookups.add();
    const std::size_t mask = table_.size() - 1;
    std::size_t slot       = hash & mask;

    while (true) {
        const std::uint32_t stored = table_[slot];
        if (stored == 0)
            break;
        const EntryRec& e = entries_[stored - 1];
        if (e.hash == hash && e.key_len == key_len &&
            keys_equal(key_arena_.data() + e.key_offset, key, key_len))
            return stored - 1;
        ++stats_.collisions;
        aggdb_probe_steps.add();
        slot = (slot + 1) & mask;
    }

    // insert
    ++stats_.inserts;
    aggdb_inserts.add();
    EntryRec rec;
    rec.hash         = hash;
    rec.key_offset   = static_cast<std::uint32_t>(key_arena_.size());
    rec.key_len      = static_cast<std::uint32_t>(key_len);
    rec.state_offset = static_cast<std::uint32_t>(state_arena_.size());

    key_arena_.insert(key_arena_.end(), key, key + key_len);
    state_arena_.resize(state_arena_.size() + state_stride_, 0);
    for (std::size_t i = 0; i < config_.ops.size(); ++i)
        kernel::state_init(config_.ops[i].op,
                           state_arena_.data() + rec.state_offset + op_state_offsets_[i]);

    entries_.push_back(rec);
    table_[slot] = static_cast<std::uint32_t>(entries_.size());

    if (entries_.size() * 10 > table_.size() * 7)
        grow_table(table_.size() * 2);

    return entries_.size() - 1;
}

void AggregationDB::grow_table(std::size_t min_slots) {
    std::size_t slots = table_.size();
    while (slots < min_slots)
        slots *= 2;
    table_.assign(slots, 0);
    const std::size_t mask = slots - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        std::size_t slot = entries_[i].hash & mask;
        while (table_[slot] != 0)
            slot = (slot + 1) & mask;
        table_[slot] = static_cast<std::uint32_t>(i + 1);
    }
}

std::uint64_t* AggregationDB::entry_state(std::size_t entry_index, std::size_t op_index) {
    return state_arena_.data() + entries_[entry_index].state_offset +
           op_state_offsets_[op_index];
}

const std::uint64_t* AggregationDB::entry_state(std::size_t entry_index,
                                                std::size_t op_index) const {
    return state_arena_.data() + entries_[entry_index].state_offset +
           op_state_offsets_[op_index];
}

void AggregationDB::update_ops(std::size_t entry_index, std::span<const Entry> record,
                               std::uint64_t copies) {
    for (std::size_t i = 0; i < config_.ops.size(); ++i) {
        const AggOp op = config_.ops[i].op;
        if (agg_op_is_nullary(op)) {
            update_copies(op, entry_state(entry_index, i), Variant(), copies);
            continue;
        }
        const Variant* v =
            op_ids_[i] != invalid_id ? find_entry(record, op_ids_[i]) : nullptr;
        if ((!v || v->empty()) && op_fallback_ids_[i] != invalid_id)
            v = find_entry(record, op_fallback_ids_[i]);
        if (v && !v->empty())
            update_copies(op, entry_state(entry_index, i), *v, copies);
    }
}

void AggregationDB::update_ops_cols(std::size_t entry_index, const RecordBatch& batch,
                                    std::size_t row, std::uint64_t copies) {
    for (std::size_t i = 0; i < config_.ops.size(); ++i) {
        const AggOp op = config_.ops[i].op;
        if (agg_op_is_nullary(op)) {
            update_copies(op, entry_state(entry_index, i), Variant(), copies);
            continue;
        }
        const Variant* v      = nullptr;
        const std::int32_t pc = op_cols_[i];
        if (pc >= 0) {
            const RecordBatch::Column& c =
                batch.column_at(static_cast<std::size_t>(pc));
            if (c.valid[row])
                v = &c.values[row];
        }
        if ((!v || v->empty()) && op_fallback_cols_[i] >= 0) {
            const RecordBatch::Column& c =
                batch.column_at(static_cast<std::size_t>(op_fallback_cols_[i]));
            if (c.valid[row])
                v = &c.values[row];
        }
        if (v && !v->empty())
            update_copies(op, entry_state(entry_index, i), *v, copies);
    }
}

void AggregationDB::for_each_merged_group(
    const std::function<void(const Entry*, std::size_t, const std::uint64_t*)>& fn)
    const {
    if (!spill_) {
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            const EntryRec& rec = entries_[e];
            fn(key_arena_.data() + rec.key_offset, rec.key_len,
               state_arena_.data() + rec.state_offset);
        }
        return;
    }

    const int fd            = ::fileno(spill_->file);
    const std::size_t nruns = spill_->run_offsets.size();
    std::vector<SpillRunCursor> runs;
    runs.reserve(nruns);
    for (std::size_t i = 0; i < nruns; ++i) {
        const std::uint64_t begin = spill_->run_offsets[i];
        const std::uint64_t end =
            i + 1 < nruns ? spill_->run_offsets[i + 1] : spill_->bytes;
        runs.emplace_back(fd, begin, end);
    }
    std::vector<std::uint8_t> alive(nruns, 0);
    for (std::size_t i = 0; i < nruns; ++i)
        alive[i] = runs[i].load_next() ? 1 : 0;

    // the live table joins as one more key-sorted "run", merged after every
    // spilled run so its updates land last (chronological merge order)
    std::vector<std::uint32_t> live(entries_.size());
    std::iota(live.begin(), live.end(), 0u);
    std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
        const EntryRec& ra = entries_[a];
        const EntryRec& rb = entries_[b];
        return compare_keys(key_arena_.data() + ra.key_offset, ra.key_len,
                            key_arena_.data() + rb.key_offset, rb.key_len) < 0;
    });
    std::size_t live_pos = 0;

    std::vector<std::uint64_t> merged(state_stride_);
    std::uint64_t scratch[kernel::histogram_bins + 4]; // largest op state
    std::vector<std::uint32_t> equal_runs;

    while (true) {
        // minimal key across all run cursors and the live table. A key may
        // legitimately be zero-length (GROUP BY * on an empty record), so
        // "nothing left" needs an explicit flag, not a null key pointer.
        bool have_min        = false;
        const Entry* min_key = nullptr;
        std::size_t min_len  = 0;
        for (std::size_t i = 0; i < nruns; ++i) {
            if (!alive[i])
                continue;
            if (!have_min ||
                compare_keys(runs[i].key(), runs[i].key_len(), min_key, min_len) < 0) {
                have_min = true;
                min_key  = runs[i].key();
                min_len  = runs[i].key_len();
            }
        }
        bool have_live        = false;
        const Entry* live_key = nullptr;
        std::size_t live_len  = 0;
        if (live_pos < live.size()) {
            const EntryRec& rec = entries_[live[live_pos]];
            have_live           = true;
            live_key            = key_arena_.data() + rec.key_offset;
            live_len            = rec.key_len;
            if (!have_min || compare_keys(live_key, live_len, min_key, min_len) < 0) {
                have_min = true;
                min_key  = live_key;
                min_len  = live_len;
            }
        }
        if (!have_min)
            break;

        // merge every cursor positioned at this key, runs in write order
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            kernel::state_init(config_.ops[i].op, merged.data() + op_state_offsets_[i]);
        equal_runs.clear();
        for (std::size_t i = 0; i < nruns; ++i) {
            if (!alive[i] ||
                compare_keys(runs[i].key(), runs[i].key_len(), min_key, min_len) != 0)
                continue;
            equal_runs.push_back(static_cast<std::uint32_t>(i));
            ByteReader r(runs[i].states());
            for (std::size_t k = 0; k < config_.ops.size(); ++k) {
                kernel::state_init(config_.ops[k].op, scratch);
                kernel::state_deserialize(config_.ops[k].op, scratch, r);
                kernel::state_merge(config_.ops[k].op,
                                    merged.data() + op_state_offsets_[k], scratch);
            }
        }
        bool live_used = false;
        if (have_live && compare_keys(live_key, live_len, min_key, min_len) == 0) {
            const EntryRec& rec = entries_[live[live_pos]];
            for (std::size_t k = 0; k < config_.ops.size(); ++k)
                kernel::state_merge(
                    config_.ops[k].op, merged.data() + op_state_offsets_[k],
                    state_arena_.data() + rec.state_offset + op_state_offsets_[k]);
            live_used = true;
        }

        fn(min_key, min_len, merged.data());

        // advance only after fn: min_key may point into a cursor's buffer
        for (const std::uint32_t i : equal_runs)
            alive[i] = runs[i].load_next() ? 1 : 0;
        if (live_used)
            ++live_pos;
    }
}

std::size_t AggregationDB::bytes() const noexcept {
    return key_arena_.capacity() * sizeof(Entry) +
           state_arena_.capacity() * sizeof(std::uint64_t) +
           entries_.capacity() * sizeof(EntryRec) +
           table_.capacity() * sizeof(std::uint32_t);
}

std::vector<double> AggregationDB::percent_denominators() const {
    // one denominator per configured op, accumulated in canonical
    // (key-sorted) order, not insertion order: the double sum is then a
    // function of the group-state set alone, so every merge strategy —
    // which may assemble the table in a different entry order — yields
    // identical denominators. A spilled database merges its groups in the
    // same spill-key order.
    std::vector<double> denominators(config_.ops.size(), 0.0);
    if (std::none_of(config_.ops.begin(), config_.ops.end(),
                     [](const AggOpConfig& op) { return op.op == AggOp::PercentTotal; }))
        return denominators;
    const auto add = [&](const std::uint64_t* state) {
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            if (config_.ops[i].op == AggOp::PercentTotal)
                denominators[i] += kernel::state_sum_value(
                    config_.ops[i].op, state + op_state_offsets_[i]);
    };
    if (spill_) {
        for_each_merged_group(
            [&](const Entry*, std::size_t, const std::uint64_t* state) { add(state); });
        return denominators;
    }
    std::vector<std::uint32_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
        const EntryRec& ra = entries_[a];
        const EntryRec& rb = entries_[b];
        return compare_keys(key_arena_.data() + ra.key_offset, ra.key_len,
                            key_arena_.data() + rb.key_offset, rb.key_len) < 0;
    });
    for (const std::uint32_t e : order)
        add(state_arena_.data() + entries_[e].state_offset);
    return denominators;
}

RowArena AggregationDB::flush_rows() const {
    obs::Timer::Scope flush_scope(aggdb_flush);
    const std::vector<double> denominators = percent_denominators();
    std::vector<const char*> labels;
    labels.reserve(config_.ops.size());
    for (const AggOpConfig& op : config_.ops)
        labels.push_back(intern(op.result_label()));
    std::vector<const char*> names; // key attribute name by id, looked up once

    RowArena out;
    out.reserve(entries_.size(),
                key_arena_.size() + entries_.size() * config_.ops.size());
    const auto emit = [&](const Entry* key, std::size_t key_len,
                          const std::uint64_t* state) {
        for (std::size_t k = 0; k < key_len; ++k) {
            const Entry& ke = key[k];
            if (ke.value.empty() || ke.attribute == invalid_id)
                continue;
            if (ke.attribute >= names.size())
                names.resize(ke.attribute + 1, nullptr);
            const char*& name = names[ke.attribute];
            if (!name)
                name = registry_->get(ke.attribute).name();
            out.append(name, ke.value);
        }
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            kernel::state_result(config_.ops[i].op, state + op_state_offsets_[i],
                                 labels[i], out, denominators[i]);
        out.end_row();
    };
    if (spill_) {
        for_each_merged_group(emit);
    } else {
        for (const EntryRec& rec : entries_)
            emit(key_arena_.data() + rec.key_offset, rec.key_len,
                 state_arena_.data() + rec.state_offset);
    }
    return out;
}

void AggregationDB::flush(const std::function<void(RecordMap&&)>& sink) const {
    const RowArena rows = flush_rows();
    for (std::size_t r = 0; r < rows.rows(); ++r)
        sink(rows.record(r));
}

std::vector<RecordMap> AggregationDB::flush() const {
    return flush_rows().records();
}

void AggregationDB::merge(const AggregationDB& other) {
    assert(config_.ops.size() == other.config_.ops.size());
    assert(!other.spilled()); // sources drain before they spill
    aggdb_merges.add();
    std::size_t want = entries_.size() + other.entries_.size();
    if (spill_limit_ != 0)
        want = std::min(want, spill_limit_);
    reserve(want);
    for (std::size_t e = 0; e < other.entries_.size(); ++e) {
        const EntryRec& rec = other.entries_[e];
        const Entry* key    = other.key_arena_.data() + rec.key_offset;
        const std::size_t index = find_or_insert(key, rec.key_len, rec.hash);
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            kernel::state_merge(config_.ops[i].op, entry_state(index, i),
                                other.entry_state(e, i));
        maybe_spill();
    }
    processed_ += other.processed_;
}

void AggregationDB::merge(AggregationDB&& other) {
    assert(config_.ops.size() == other.config_.ops.size());
    assert(registry_ == other.registry_);
    assert(!other.spilled()); // sources drain before they spill
    // the fall-through path counts in merge(const&); count the fast paths here
    if (other.entries_.empty()) {
        aggdb_merges.add();
        processed_ += other.processed_;
        other.clear();
        return;
    }
    if (entries_.empty()) {
        aggdb_merges.add();
        // steal the arenas wholesale — no key copies, no rehashing
        key_arena_.swap(other.key_arena_);
        state_arena_.swap(other.state_arena_);
        entries_.swap(other.entries_);
        table_.swap(other.table_);
        key_ids_.swap(other.key_ids_);
        op_ids_.swap(other.op_ids_);
        op_fallback_ids_.swap(other.op_fallback_ids_);
        implicit_skip_.swap(other.implicit_skip_);
        std::swap(resolved_generation_, other.resolved_generation_);
        std::swap(fully_resolved_, other.fully_resolved_);
        processed_ += other.processed_;
        stats_.lookups += other.stats_.lookups;
        stats_.collisions += other.stats_.collisions;
        stats_.inserts += other.stats_.inserts;
        other.clear();
        maybe_spill(); // the stolen table may already exceed the budget
        return;
    }
    merge(static_cast<const AggregationDB&>(other));
    other.clear();
}

void AggregationDB::append_entry_unchecked(const AggregationDB& src,
                                           const EntryRec& rec) {
    EntryRec out     = rec;
    out.key_offset   = static_cast<std::uint32_t>(key_arena_.size());
    out.state_offset = static_cast<std::uint32_t>(state_arena_.size());
    key_arena_.insert(key_arena_.end(),
                      src.key_arena_.begin() + rec.key_offset,
                      src.key_arena_.begin() + rec.key_offset + rec.key_len);
    state_arena_.insert(state_arena_.end(),
                        src.state_arena_.begin() + rec.state_offset,
                        src.state_arena_.begin() + rec.state_offset +
                            state_stride_);
    entries_.push_back(out);
    const std::size_t mask = table_.size() - 1;
    std::size_t slot       = rec.hash & mask;
    while (table_[slot] != 0)
        slot = (slot + 1) & mask;
    table_[slot] = static_cast<std::uint32_t>(entries_.size());
    ++stats_.inserts;
    aggdb_inserts.add();
    if (entries_.size() * 10 > table_.size() * 7)
        grow_table(table_.size() * 2);
}

std::vector<AggregationDB> AggregationDB::extract_partitions(unsigned bits) {
    assert(bits >= 1 && bits <= 8);
    assert(!spilled()); // worker partials never spill (budget is root-only)
    const std::size_t nparts = std::size_t(1) << bits;
    const unsigned shift     = 64 - bits;

    std::vector<AggregationDB> parts;
    parts.reserve(nparts);
    for (std::size_t p = 0; p < nparts; ++p)
        parts.emplace_back(config_, registry_);
    if (entries_.empty())
        return parts;

    // size each partition exactly up front so the scatter loop below is a
    // pure cursor-bump memcpy per entry — no capacity checks, no rehash
    std::vector<std::uint32_t> counts(nparts, 0);
    std::vector<std::size_t> key_elems(nparts, 0);
    for (const EntryRec& rec : entries_) {
        const std::size_t p = rec.hash >> shift;
        ++counts[p];
        key_elems[p] += rec.key_len;
    }
    for (std::size_t p = 0; p < nparts; ++p) {
        if (counts[p] == 0)
            continue;
        AggregationDB& dst = parts[p];
        dst.entries_.reserve(counts[p]);
        dst.key_arena_.resize(key_elems[p]);
        dst.state_arena_.resize(counts[p] * state_stride_);
        if (std::size_t(counts[p]) * 2 > dst.table_.size())
            dst.grow_table(std::size_t(counts[p]) * 2);
        dst.stats_.inserts += counts[p];
    }
    aggdb_inserts.add(entries_.size());

    static_assert(std::is_trivially_copyable_v<Entry>,
                  "key arena scatter relies on memcpy");
    std::vector<std::uint32_t> key_cur(nparts, 0), state_cur(nparts, 0);
    for (const EntryRec& rec : entries_) {
        const std::size_t p = rec.hash >> shift;
        AggregationDB& dst = parts[p];
        EntryRec out       = rec;
        out.key_offset     = key_cur[p];
        out.state_offset   = state_cur[p];
        if (rec.key_len != 0) // a partition of empty keys has a null arena
            std::memcpy(dst.key_arena_.data() + key_cur[p],
                        key_arena_.data() + rec.key_offset,
                        rec.key_len * sizeof(Entry));
        std::memcpy(dst.state_arena_.data() + state_cur[p],
                    state_arena_.data() + rec.state_offset,
                    state_stride_ * sizeof(std::uint64_t));
        key_cur[p] += rec.key_len;
        state_cur[p] += static_cast<std::uint32_t>(state_stride_);
        dst.entries_.push_back(out);
        const std::size_t mask = dst.table_.size() - 1;
        std::size_t slot       = rec.hash & mask;
        while (dst.table_[slot] != 0)
            slot = (slot + 1) & mask;
        dst.table_[slot] = static_cast<std::uint32_t>(dst.entries_.size());
    }

    // the source restarts empty; processed count, stats, and resolution
    // state stay (the engine folds counts through the processor merge)
    key_arena_.clear();
    state_arena_.clear();
    entries_.clear();
    table_.assign(initial_table_slots, 0);
    return parts;
}

void AggregationDB::absorb_disjoint(AggregationDB&& other) {
    assert(config_.ops.size() == other.config_.ops.size());
    assert(registry_ == other.registry_);
    assert(!other.spilled());
    if (other.entries_.empty()) {
        processed_ += other.processed_;
        other.clear();
        return;
    }
    if (entries_.empty()) {
        merge(std::move(other)); // arena steal
        return;
    }
    aggdb_merges.add();
    if (spill_limit_ == 0) {
        // no budget → no spill can interleave, so concatenate the arenas
        // wholesale and fix entry offsets up instead of copying per entry
        reserve(entries_.size() + other.entries_.size());
        const auto key_base   = static_cast<std::uint32_t>(key_arena_.size());
        const auto state_base = static_cast<std::uint32_t>(state_arena_.size());
        key_arena_.insert(key_arena_.end(), other.key_arena_.begin(),
                          other.key_arena_.end());
        state_arena_.insert(state_arena_.end(), other.state_arena_.begin(),
                            other.state_arena_.end());
        const std::size_t mask = table_.size() - 1;
        for (const EntryRec& rec : other.entries_) {
            EntryRec out = rec;
            out.key_offset += key_base;
            out.state_offset += state_base;
            entries_.push_back(out);
            std::size_t slot = rec.hash & mask;
            while (table_[slot] != 0)
                slot = (slot + 1) & mask;
            table_[slot] = static_cast<std::uint32_t>(entries_.size());
            ++stats_.inserts;
            aggdb_inserts.add();
        }
        processed_ += other.processed_;
        other.clear();
        return;
    }
    std::size_t want = entries_.size() + other.entries_.size();
    want             = std::min(want, spill_limit_);
    reserve(want);
    for (const EntryRec& rec : other.entries_) {
        append_entry_unchecked(other, rec);
        maybe_spill();
    }
    processed_ += other.processed_;
    other.clear();
}

std::size_t AggregationDB::serialized_entry_count(std::span<const std::byte> data) {
    ByteReader r(data);
    if (r.get<std::uint32_t>() != serialize_magic)
        throw std::runtime_error("AggregationDB: bad serialization magic");
    r.get<std::uint32_t>(); // op count
    r.get<std::uint64_t>(); // processed
    return r.get<std::uint32_t>();
}

std::vector<std::byte> AggregationDB::serialize() const {
    std::vector<std::byte> buf;
    ByteWriter w(buf);
    w.put(serialize_magic);
    w.put(static_cast<std::uint32_t>(config_.ops.size()));
    w.put(static_cast<std::uint64_t>(processed_));

    if (spill_) {
        // the merged group count is only known after the pass; patch it in
        const std::size_t count_pos = buf.size();
        w.put(static_cast<std::uint32_t>(0));
        std::uint32_t groups = 0;
        for_each_merged_group([&](const Entry* key, std::size_t key_len,
                                  const std::uint64_t* state) {
            ++groups;
            w.put(static_cast<std::uint16_t>(key_len));
            for (std::size_t k = 0; k < key_len; ++k) {
                if (key[k].attribute == invalid_id)
                    w.put_string("");
                else
                    w.put_string(registry_->get(key[k].attribute).name_view());
                w.put_variant(key[k].value);
            }
            for (std::size_t i = 0; i < config_.ops.size(); ++i)
                kernel::state_serialize(config_.ops[i].op,
                                        state + op_state_offsets_[i], w);
        });
        std::memcpy(buf.data() + count_pos, &groups, sizeof(groups));
        return buf;
    }

    w.put(static_cast<std::uint32_t>(entries_.size()));

    for (std::size_t e = 0; e < entries_.size(); ++e) {
        const EntryRec& rec = entries_[e];
        w.put(static_cast<std::uint16_t>(rec.key_len));
        for (std::uint32_t k = 0; k < rec.key_len; ++k) {
            const Entry& ke = key_arena_[rec.key_offset + k];
            if (ke.attribute == invalid_id)
                w.put_string("");
            else
                w.put_string(registry_->get(ke.attribute).name_view());
            w.put_variant(ke.value);
        }
        for (std::size_t i = 0; i < config_.ops.size(); ++i)
            kernel::state_serialize(config_.ops[i].op, entry_state(e, i), w);
    }
    return buf;
}

void AggregationDB::merge_serialized(std::span<const std::byte> data) {
    merge_serialized_impl(data, 0, 0);
}

void AggregationDB::merge_serialized(std::span<const std::byte> data, unsigned bits,
                                     std::size_t partition) {
    assert(bits >= 1 && bits <= 8);
    assert(partition < (std::size_t(1) << bits));
    merge_serialized_impl(data, bits, partition);
}

/// bits == 0 folds every entry (plain merge_serialized); bits > 0 folds
/// only the entries whose key hash lands in \a partition — the rest are
/// still decoded (to advance the reader) but not applied. Record counts
/// are credited once per buffer: always when bits == 0, else only by the
/// partition-0 replay.
void AggregationDB::merge_serialized_impl(std::span<const std::byte> data,
                                          unsigned bits, std::size_t partition) {
    ByteReader r(data);
    if (r.get<std::uint32_t>() != serialize_magic)
        throw std::runtime_error("AggregationDB: bad serialization magic");
    const auto nops = r.get<std::uint32_t>();
    if (nops != config_.ops.size())
        throw std::runtime_error("AggregationDB: op-count mismatch in merge");
    const auto nprocessed = r.get<std::uint64_t>();
    const auto nentries   = r.get<std::uint32_t>();
    std::size_t want      = entries_.size() +
                       (bits == 0 ? nentries : nentries >> bits);
    if (spill_limit_ != 0)
        want = std::min<std::size_t>(want, spill_limit_);
    reserve(want);

    // scratch for one deserialized kernel state (largest op state)
    std::uint64_t scratch[kernel::histogram_bins + 4];

    Entry key[SnapshotRecord::max_entries];
    for (std::uint32_t e = 0; e < nentries; ++e) {
        const auto key_len = r.get<std::uint16_t>();
        if (key_len > SnapshotRecord::max_entries)
            throw std::runtime_error("AggregationDB: oversized key in merge buffer");
        for (std::uint16_t k = 0; k < key_len; ++k) {
            const std::string_view name = r.get_string();
            const Variant value         = r.get_variant();
            id_t attr                   = invalid_id;
            if (!name.empty())
                attr = registry_->create(name, value.type()).id();
            key[k] = Entry(attr, value);
        }
        const std::uint64_t h = hash_key(key, key_len);
        if (bits != 0 && (h >> (64 - bits)) != partition) {
            for (std::size_t i = 0; i < config_.ops.size(); ++i) {
                kernel::state_init(config_.ops[i].op, scratch);
                kernel::state_deserialize(config_.ops[i].op, scratch, r);
            }
            continue;
        }
        const std::size_t index = find_or_insert(key, key_len, h);
        for (std::size_t i = 0; i < config_.ops.size(); ++i) {
            kernel::state_init(config_.ops[i].op, scratch);
            kernel::state_deserialize(config_.ops[i].op, scratch, r);
            kernel::state_merge(config_.ops[i].op, entry_state(index, i), scratch);
        }
        maybe_spill();
    }
    if (bits == 0 || partition == 0)
        processed_ += nprocessed;
}

void AggregationDB::clear() {
    key_arena_.clear();
    state_arena_.clear();
    entries_.clear();
    table_.assign(initial_table_slots, 0);
    spill_.reset(); // the memory budget itself stays configured
    processed_ = 0;
    stats_     = Stats{};
}

} // namespace calib
