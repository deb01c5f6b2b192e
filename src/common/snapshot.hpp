// Snapshot records: a flat set of (attribute-id, value) entries capturing
// the blackboard state at one point in time. This is the unit of data that
// flows from the measurement layer into the aggregation service.
//
// SnapshotRecord has fixed inline capacity and never allocates, so it is
// safe to build inside a sampling signal handler.
#pragma once

#include "attribute.hpp"
#include "types.hpp"
#include "variant.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace calib {

/// One attribute:value pair inside a snapshot.
struct Entry {
    id_t attribute = invalid_id;
    Variant value;

    Entry() = default;
    Entry(id_t a, const Variant& v) : attribute(a), value(v) {}

    bool operator==(const Entry& rhs) const noexcept {
        return attribute == rhs.attribute && value == rhs.value;
    }
};

static_assert(std::is_trivially_copyable_v<Entry> &&
                  std::is_trivially_destructible_v<Entry>,
              "entries live in uninitialized storage and copy as bytes");

/// Fixed-capacity, allocation-free snapshot record. The entry slots are
/// left uninitialized until appended, so a record costs nothing per unused
/// slot; copies move only the live entries.
class SnapshotRecord {
public:
    static constexpr std::size_t max_entries = 64;

    /// context_node() of a record that holds no blackboard capture.
    static constexpr std::uint32_t no_context = UINT32_MAX;

    SnapshotRecord() noexcept {}
    SnapshotRecord(const SnapshotRecord& rhs) noexcept { *this = rhs; }
    SnapshotRecord& operator=(const SnapshotRecord& rhs) noexcept {
        if (this != &rhs) {
            std::memcpy(static_cast<void*>(storage_), rhs.storage_,
                        rhs.size_ * sizeof(Entry));
            size_          = rhs.size_;
            dropped_       = rhs.dropped_;
            context_node_  = rhs.context_node_;
            capture_begin_ = rhs.capture_begin_;
        }
        return *this;
    }

    /// Append an entry; silently drops entries beyond capacity and records
    /// the overflow in dropped(). (Real tools surface this as a warning.)
    void append(id_t attribute, const Variant& value) noexcept {
        if (size_ < max_entries)
            ::new (static_cast<void*>(storage_ + size_++ * sizeof(Entry)))
                Entry(attribute, value);
        else
            ++dropped_;
    }
    void append(const Entry& e) noexcept { append(e.attribute, e.value); }

    /// Append or overwrite the entry for \a attribute.
    void set(id_t attribute, const Variant& value) noexcept {
        for (std::size_t i = 0; i < size_; ++i)
            if (data()[i].attribute == attribute) {
                data()[i].value = value;
                return;
            }
        append(attribute, value);
    }

    /// First entry for \a attribute, or nullptr (one scan for
    /// presence + value).
    const Entry* find(id_t attribute) const noexcept {
        for (const Entry& e : *this)
            if (e.attribute == attribute)
                return &e;
        return nullptr;
    }

    /// First value recorded for \a attribute, or an empty Variant.
    Variant get(id_t attribute) const noexcept {
        const Entry* e = find(attribute);
        return e ? e->value : Variant();
    }

    bool contains(id_t attribute) const noexcept { return find(attribute) != nullptr; }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t dropped() const noexcept { return dropped_; }

    const Entry* begin() const noexcept { return data(); }
    const Entry* end() const noexcept { return data() + size_; }
    const Entry& operator[](std::size_t i) const noexcept { return data()[i]; }

    /// The runtime's blackboard capture: the thread's context-tree node the
    /// captured values came from, and the index of the first captured
    /// entry. Trigger and service entries come before that index.
    /// no_context when the record holds no capture.
    std::uint32_t context_node() const noexcept { return context_node_; }
    std::size_t capture_begin() const noexcept { return capture_begin_; }
    /// Mark the start of a blackboard capture of \a node at size().
    void begin_capture(std::uint32_t node) noexcept {
        context_node_  = node;
        capture_begin_ = size_;
    }

    void clear() noexcept {
        size_          = 0;
        dropped_       = 0;
        context_node_  = no_context;
        capture_begin_ = 0;
    }

    /// Sort entries by attribute id (canonical order for key comparison).
    void sort() noexcept {
        std::sort(data(), data() + size_,
                  [](const Entry& a, const Entry& b) { return a.attribute < b.attribute; });
    }

private:
    Entry* data() noexcept { return reinterpret_cast<Entry*>(storage_); }
    const Entry* data() const noexcept { return reinterpret_cast<const Entry*>(storage_); }

    alignas(Entry) unsigned char storage_[max_entries * sizeof(Entry)];
    std::size_t size_           = 0;
    std::size_t dropped_        = 0;
    std::uint32_t context_node_ = no_context;
    std::size_t capture_begin_  = 0;
};

} // namespace calib
