#include "windowed_db.hpp"

#include "../common/bytebuf.hpp"

#include <stdexcept>
#include <utility>

namespace calib {

namespace {
// Windowed partial-state buffer magic (pane-wise AggregationDB buffers
// inside; distinct from the processor's raw-record buffer 0x0CA11B0F).
constexpr std::uint32_t window_magic = 0x0CA11B11u;
} // namespace

WindowedAggregator::WindowedAggregator(AggregationConfig config, WindowSpec window,
                                       AttributeRegistry* registry)
    : config_(std::move(config)), window_(std::move(window)), registry_(registry) {}

std::int64_t WindowedAggregator::live_floor() const noexcept {
    return *watermark_ - static_cast<std::int64_t>(window_.pane_count()) + 1;
}

void WindowedAggregator::retire_expired() {
    if (!watermark_)
        return;
    panes_.erase(panes_.begin(), panes_.lower_bound(live_floor()));
}

AggregationDB* WindowedAggregator::pane_for(std::int64_t pane) {
    if (watermark_ && pane < live_floor())
        // the pane this row belongs to has already retired; dropping it
        // here (instead of resurrecting the pane) keeps retirement monotone
        return nullptr;
    auto it = panes_.find(pane);
    if (it == panes_.end()) {
        it = panes_.try_emplace(pane, config_, registry_).first;
        if (memory_budget_ > 0)
            it->second.set_memory_budget(memory_budget_);
    }
    if (!watermark_ || pane > *watermark_) {
        watermark_ = pane;
        retire_expired();
    }
    return &it->second;
}

void WindowedAggregator::process_batch(const RecordBatch& batch,
                                       std::span<const std::uint32_t> selection) {
    if (time_id_ == invalid_id && resolved_generation_ != registry_->generation()) {
        resolved_generation_ = registry_->generation();
        time_id_             = registry_->find(window_.time_attribute()).id();
    }
    const std::int32_t tcol =
        time_id_ == invalid_id ? -1 : batch.column_index(time_id_);
    // the open run: consecutive rows of pane run_pane, all accepted (the
    // watermark can only move when a different pane is looked up)
    AggregationDB* run_db = nullptr;
    std::int64_t run_pane = 0;
    const auto close_run  = [&] {
        if (run_db && !run_.empty())
            run_db->process_batch(batch, run_);
        run_.clear();
        run_db = nullptr;
    };
    for (const std::uint32_t r : selection) {
        Variant ts;
        if (batch.is_overflow(r)) {
            if (time_id_ != invalid_id)
                ts = batch.overflow_record(r).get(time_id_);
        } else if (tcol >= 0) {
            const RecordBatch::Column& c =
                batch.column_at(static_cast<std::size_t>(tcol));
            if (c.valid[r])
                ts = c.values[r];
        }
        const std::optional<std::int64_t> p = pane_index(ts, window_.slide());
        if (!p) {
            dropped_no_time_ += batch.weight(r);
            continue;
        }
        if (!run_db || *p != run_pane) {
            // flush before the lookup: advancing the watermark may retire
            // (and free) the run's pane
            close_run();
            run_db   = pane_for(*p);
            run_pane = *p;
            if (!run_db) {
                dropped_late_ += batch.weight(r);
                continue;
            }
        }
        run_.push_back(r);
    }
    close_run();
}

void WindowedAggregator::set_memory_budget(std::size_t bytes) {
    memory_budget_ = bytes;
    for (auto& [idx, db] : panes_)
        db.set_memory_budget(bytes);
}

void WindowedAggregator::merge(WindowedAggregator&& other) {
    dropped_late_ += other.dropped_late_;
    dropped_no_time_ += other.dropped_no_time_;
    other.dropped_late_ = other.dropped_no_time_ = 0;
    if (other.watermark_ && (!watermark_ || *other.watermark_ > *watermark_))
        watermark_ = other.watermark_;
    for (auto& [idx, db] : other.panes_) {
        auto it = panes_.find(idx);
        if (it == panes_.end()) {
            it = panes_.try_emplace(idx, config_, registry_).first;
            if (memory_budget_ > 0)
                it->second.set_memory_budget(memory_budget_);
        }
        it->second.merge(std::move(db));
    }
    other.panes_.clear();
    retire_expired();
}

std::vector<std::byte> WindowedAggregator::serialize() const {
    std::vector<std::byte> buf;
    ByteWriter w(buf);
    w.put(window_magic);
    w.put(static_cast<std::uint8_t>(watermark_.has_value() ? 1 : 0));
    w.put(static_cast<std::int64_t>(watermark_.value_or(0)));
    w.put(dropped_late_);
    w.put(dropped_no_time_);
    w.put(static_cast<std::uint32_t>(panes_.size()));
    for (const auto& [idx, db] : panes_) {
        w.put(static_cast<std::int64_t>(idx));
        const std::vector<std::byte> sub = db.serialize();
        w.put(static_cast<std::uint64_t>(sub.size()));
        w.put_bytes(sub.data(), sub.size());
    }
    return buf;
}

void WindowedAggregator::merge_serialized(std::span<const std::byte> data) {
    ByteReader r(data);
    if (r.get<std::uint32_t>() != window_magic)
        throw std::runtime_error("WindowedAggregator: bad buffer magic");
    const bool has_wm       = r.get<std::uint8_t>() != 0;
    const std::int64_t wm   = r.get<std::int64_t>();
    dropped_late_ += r.get<std::uint64_t>();
    dropped_no_time_ += r.get<std::uint64_t>();
    const auto npanes = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < npanes; ++i) {
        const auto idx = r.get<std::int64_t>();
        const auto len = static_cast<std::size_t>(r.get<std::uint64_t>());
        const std::span<const std::byte> sub = r.get_bytes(len);
        auto it = panes_.find(idx);
        if (it == panes_.end()) {
            it = panes_.try_emplace(idx, config_, registry_).first;
            if (memory_budget_ > 0)
                it->second.set_memory_budget(memory_budget_);
        }
        it->second.merge_serialized(sub);
    }
    if (has_wm && (!watermark_ || wm > *watermark_))
        watermark_ = wm;
    retire_expired();
}

RowArena WindowedAggregator::flush_rows() const {
    AggregationDB scratch(config_, registry_);
    if (memory_budget_ > 0)
        scratch.set_memory_budget(memory_budget_);
    if (watermark_) {
        // every pane is <= the watermark and retirement pruned anything
        // below the live floor, so the whole map is the live range
        for (const auto& [idx, db] : panes_) {
            if (db.spilled())
                // merge(const&) only folds the live table; a pane that
                // spilled under the memory budget must go through its
                // spill-aware serialized form or the spilled runs are lost
                scratch.merge_serialized(db.serialize());
            else
                scratch.merge(db);
        }
    }
    return scratch.flush_rows();
}

} // namespace calib
