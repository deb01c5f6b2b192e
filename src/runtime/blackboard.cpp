#include "blackboard.hpp"

#include "../common/hash.hpp"

#include <algorithm>

namespace calib {

namespace {

constexpr std::size_t initial_nodes          = 64;
constexpr std::size_t initial_children_slots = 128; ///< power of two

} // namespace

Blackboard::Blackboard() {
    nodes_.reserve(initial_nodes);
    nodes_.emplace_back(); // root
    children_.assign(initial_children_slots, root);
}

std::size_t Blackboard::slot_of(node_t parent, id_t attr,
                                const Variant& value) const noexcept {
    const std::uint64_t h =
        mix64(value.hash() ^ (static_cast<std::uint64_t>(parent) << 32 | attr));
    return static_cast<std::size_t>(h) & (children_.size() - 1);
}

void Blackboard::grow_children() {
    std::vector<node_t> grown(children_.size() * 2, root);
    children_.swap(grown);
    const std::size_t mask = children_.size() - 1;
    for (node_t n = 1; n < nodes_.size(); ++n) {
        std::size_t s = slot_of(nodes_[n].parent, nodes_[n].attribute, nodes_[n].value);
        while (children_[s] != root)
            s = (s + 1) & mask;
        children_[s] = n;
    }
}

Blackboard::node_t Blackboard::child(node_t parent, id_t attr, Variant value) {
    const std::size_t mask = children_.size() - 1;
    std::size_t s          = slot_of(parent, attr, value);
    for (node_t n; (n = children_[s]) != root; s = (s + 1) & mask) {
        const Node& c = nodes_[n];
        if (c.parent == parent && c.attribute == attr && c.value == value) {
            nodes_[parent].last_child = n;
            return n;
        }
    }

    // new node: its innermost list is the parent's with (attr, value)
    // inserted or replacing the parent's entry for attr
    Node node;
    node.attribute = attr;
    node.value     = value;
    node.parent    = parent;
    node.first     = static_cast<std::uint32_t>(lists_.size());
    const std::uint32_t from  = nodes_[parent].first;
    const std::uint32_t count = nodes_[parent].count;
    bool placed               = false;
    for (std::uint32_t i = 0; i < count; ++i) {
        const Entry e = lists_[from + i];
        if (!placed && e.attribute >= attr) {
            lists_.emplace_back(attr, value);
            placed = true;
            if (e.attribute == attr)
                continue;
        }
        lists_.push_back(e);
    }
    if (!placed)
        lists_.emplace_back(attr, value);
    node.count = static_cast<std::uint32_t>(lists_.size()) - node.first;

    const node_t id = static_cast<node_t>(nodes_.size());
    nodes_.push_back(node);
    nodes_[parent].last_child = id;
    children_[s]              = id;
    if (nodes_.size() * 2 > children_.size())
        grow_children();
    return id;
}

void Blackboard::rebuild_from_path() {
    path_.clear();
    for (node_t n = current_; n != root; n = nodes_[n].parent)
        path_.emplace_back(nodes_[n].attribute, nodes_[n].value);
    nodes_.resize(1);
    nodes_[root].last_child = root;
    lists_.clear();
    std::fill(children_.begin(), children_.end(), root);
    current_ = root;
    for (auto it = path_.rbegin(); it != path_.rend(); ++it)
        current_ = child(current_, it->attribute, it->value);
    // a path with more entries than half the limit keeps room to grow, so
    // each rebuild is paid for by at least as many new entries
    limit_ = std::max(entry_limit, 2 * lists_.size());
    ++epoch_;
}

bool Blackboard::rebuild_without(id_t attr, const Variant* value) {
    rebuild_.clear();
    node_t n = current_;
    while (n != root && nodes_[n].attribute != attr) {
        rebuild_.push_back(n);
        n = nodes_[n].parent;
    }
    if (n == root)
        return false;
    node_t base = nodes_[n].parent;
    if (value)
        base = child(base, attr, *value);
    for (auto it = rebuild_.rbegin(); it != rebuild_.rend(); ++it)
        base = child(base, nodes_[*it].attribute, nodes_[*it].value);
    current_ = base;
    return true;
}

void Blackboard::push_immediate(id_t id, const Variant& value) {
    if (id >= stacks_.size())
        stacks_.resize(static_cast<std::size_t>(id) + 1);
    std::vector<Variant>& stack = stacks_[id];
    if (stack.empty())
        live_.insert(std::lower_bound(live_.begin(), live_.end(), id), id);
    stack.push_back(value);
}

void Blackboard::end_outer(const Attribute& attr) {
    const id_t id = attr.id();
    if (!attr.is_value()) {
        bound();
        rebuild_without(id, nullptr);
        return;
    }
    if (id >= stacks_.size() || stacks_[id].empty())
        return;
    stacks_[id].pop_back();
    if (stacks_[id].empty())
        live_.erase(std::lower_bound(live_.begin(), live_.end(), id));
}

void Blackboard::set(const Attribute& attr, const Variant& value) {
    const id_t id = attr.id();
    if (attr.is_value()) {
        if (id < stacks_.size() && !stacks_[id].empty())
            stacks_[id].back() = value;
        else
            push_immediate(id, value);
        return;
    }
    bound();
    if (current_ != root && nodes_[current_].attribute == id)
        current_ = child(nodes_[current_].parent, id, value);
    else if (!rebuild_without(id, &value))
        current_ = child(current_, id, value);
}

const Variant* Blackboard::innermost_outer(id_t id) const noexcept {
    if (id < stacks_.size() && !stacks_[id].empty())
        return &stacks_[id].back();
    const Node& n     = nodes_[current_];
    const Entry* list = lists_.data() + n.first;
    const Entry* it   = std::lower_bound(
        list, list + n.count, id,
        [](const Entry& e, id_t attr) { return e.attribute < attr; });
    return it != list + n.count && it->attribute == id ? &it->value : nullptr;
}

std::size_t Blackboard::depth(id_t id) const noexcept {
    if (id < stacks_.size() && !stacks_[id].empty())
        return stacks_[id].size();
    std::size_t d = 0;
    for (node_t n = current_; n != root; n = nodes_[n].parent)
        d += nodes_[n].attribute == id;
    return d;
}

void Blackboard::values(id_t id, std::vector<Variant>& out) const {
    out.clear();
    if (id < stacks_.size() && !stacks_[id].empty()) {
        out = stacks_[id];
        return;
    }
    for (node_t n = current_; n != root; n = nodes_[n].parent)
        if (nodes_[n].attribute == id)
            out.push_back(nodes_[n].value);
    std::reverse(out.begin(), out.end());
}

void Blackboard::capture(SnapshotRecord& rec) const noexcept {
    rec.begin_capture(current_);
    const Node& n      = nodes_[current_];
    const Entry* it    = lists_.data() + n.first;
    const Entry* const last = it + n.count;
    for (const id_t id : live_) {
        while (it != last && it->attribute < id)
            rec.append(*it++);
        rec.append(id, stacks_[id].back());
    }
    while (it != last)
        rec.append(*it++);
}

} // namespace calib
