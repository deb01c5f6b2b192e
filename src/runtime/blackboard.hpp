// A thread's blackboard (paper §IV-A): the attribute values the next
// snapshot captures.
//
// Attributes without prop::as_value live in a per-thread *context tree*.
// Each node holds one (attribute, value) pair under its parent, so the
// thread's nested state is one node, and the path from the root is the
// order of its begin calls:
//
//   - begin moves to a memoized child;
//   - end of the innermost attribute moves to the parent;
//   - end or set of an attribute that is not innermost rebuilds the path
//     above it (set of an attribute that is not on the path is a begin).
//
// A node stores its path's innermost value for each attribute, in
// ascending attribute id, when it is created. A capture copies that list
// instead of walking every attribute id, and the snapshot path can key
// per-context work by node id (the aggregate service's memo).
//
// as_value attributes ("immediates") keep a value stack per attribute id
// (set overwrites the top) plus a sorted list of the ids whose stacks are
// non-empty. A capture merges the node's list with the live immediates.
//
// The tree is bounded: once its nodes' innermost lists hold entry_limit
// entries, the next mutation that may add a node first rebuilds the tree
// from the current path alone, and epoch() moves because node ids change
// meaning. A thread that keeps entering new contexts (a nested
// per-iteration value) thus holds a bounded tree, and one whose contexts
// fit under the bound keeps its node ids. Mutations may allocate; the
// runtime flags them with ThreadData::in_update so the sampling signal
// handler never sees a tree mid-change. Reads (capture, innermost) never
// allocate.
#pragma once

#include "../common/attribute.hpp"
#include "../common/snapshot.hpp"
#include "../common/types.hpp"
#include "../common/variant.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace calib {

class Blackboard {
public:
    using node_t = std::uint32_t;
    static constexpr node_t root = 0;

    /// Innermost-list entries past which the tree is rebuilt from the
    /// current path. Every node but the root lists at least one entry, so
    /// this also bounds the node count (a longer current path raises the
    /// bound to twice its own entries, keeping rebuilds rare).
    static constexpr std::size_t entry_limit = 4096;

    Blackboard();

    /// Nodes the tree holds before it next reallocates. Node ids below it
    /// index per-node memos sized outside signal context.
    std::size_t node_capacity() const noexcept { return nodes_.capacity(); }

    /// Nodes in the tree, the root included.
    std::size_t node_count() const noexcept { return nodes_.size(); }

    /// Moves whenever the tree is rebuilt and node ids change meaning;
    /// per-node memos are valid within one epoch.
    std::uint64_t epoch() const noexcept { return epoch_; }

    void begin(const Attribute& attr, const Variant& value) {
        if (attr.is_value()) {
            push_immediate(attr.id(), value);
            return;
        }
        // re-entering the last child is the common case: no hash lookup
        const node_t last = nodes_[current_].last_child;
        if (last != root && nodes_[last].attribute == attr.id() &&
            nodes_[last].value == value) {
            current_ = last;
        } else {
            bound();
            current_ = child(current_, attr.id(), value);
        }
    }

    /// Remove the innermost value of \a attr; a no-op when it has none.
    void end(const Attribute& attr) {
        if (current_ != root && nodes_[current_].attribute == attr.id())
            current_ = nodes_[current_].parent;
        else
            end_outer(attr);
    }

    /// Overwrite the innermost value of \a attr (push when it has none).
    void set(const Attribute& attr, const Variant& value);

    /// Innermost value of attribute \a id, or nullptr when it has none.
    const Variant* innermost(id_t id) const noexcept {
        if (current_ != root && nodes_[current_].attribute == id)
            return &nodes_[current_].value;
        return innermost_outer(id);
    }

    /// Number of values \a id has on the blackboard (its nesting depth).
    std::size_t depth(id_t id) const noexcept;

    /// All values of \a id, outermost first, into \a out.
    void values(id_t id, std::vector<Variant>& out) const;

    /// Append the innermost value of every attribute with one, in ascending
    /// attribute id, and mark the capture on \a rec. Never allocates.
    void capture(SnapshotRecord& rec) const noexcept;

private:
    struct Node {
        id_t attribute = invalid_id;
        Variant value;
        node_t parent     = root;
        node_t last_child = root; ///< most recently entered child (root: none)
        std::uint32_t first = 0;  ///< innermost list: lists_[first, first + count)
        std::uint32_t count = 0;
    };

    /// The child of \a parent holding (\a attr, \a value), created on
    /// first use.
    node_t child(node_t parent, id_t attr, Variant value);
    std::size_t slot_of(node_t parent, id_t attr, const Variant& value) const noexcept;
    void grow_children();

    /// Rebuild the tree from the current path when it holds limit_
    /// entries; called before a mutation that may add nodes.
    void bound() {
        if (lists_.size() >= limit_)
            rebuild_from_path();
    }
    void rebuild_from_path();

    /// Leave the innermost \a attr node off the path; with \a value, put a
    /// node holding it in its place. Returns false when \a attr is not on
    /// the path.
    bool rebuild_without(id_t attr, const Variant* value);

    void push_immediate(id_t id, const Variant& value);
    /// end() of an immediate or of a tree attribute that is not innermost.
    void end_outer(const Attribute& attr);
    /// innermost() of an immediate or of a value below the current node.
    const Variant* innermost_outer(id_t id) const noexcept;

    std::vector<Node> nodes_;           ///< nodes_[root] holds no attribute
    std::vector<Entry> lists_;          ///< every node's innermost list
    std::vector<node_t> children_;      ///< open addressing; root = empty slot
    std::vector<node_t> rebuild_;       ///< scratch for rebuild_without()
    std::vector<Entry> path_;           ///< scratch for rebuild_from_path()
    node_t current_      = root;
    std::size_t limit_   = entry_limit;
    std::uint64_t epoch_ = 0;

    std::vector<std::vector<Variant>> stacks_; ///< immediates, by attribute id
    std::vector<id_t> live_;                   ///< ids with non-empty stacks, ascending
};

} // namespace calib
