#include "let.hpp"

#include <cmath>

namespace calib {

CompiledLets::CompiledLets(std::vector<LetSpec> lets, AttributeRegistry* registry)
    : lets_(std::move(lets)), registry_(registry) {
    target_ids_.assign(lets_.size(), invalid_id);
    arg_ids_.resize(lets_.size());
    for (std::size_t i = 0; i < lets_.size(); ++i)
        arg_ids_[i].assign(lets_[i].args.size(), invalid_id);
}

void CompiledLets::resolve() {
    if (fully_resolved_)
        return;
    const std::size_t gen = registry_->generation();
    if (gen == resolved_generation_)
        return;
    // targets first: create() is idempotent, and a later term's argument
    // may name an earlier term's target
    for (std::size_t i = 0; i < lets_.size(); ++i)
        if (target_ids_[i] == invalid_id)
            target_ids_[i] =
                registry_->create(lets_[i].target, Variant::Type::Double).id();
    bool all = true;
    for (std::size_t i = 0; i < lets_.size(); ++i) {
        for (std::size_t k = 0; k < arg_ids_[i].size(); ++k) {
            if (arg_ids_[i][k] == invalid_id) {
                Attribute a = registry_->find(lets_[i].args[k]);
                if (a.valid())
                    arg_ids_[i][k] = a.id();
                else
                    all = false;
            }
        }
    }
    resolved_generation_ = registry_->generation(); // after target creation
    fully_resolved_      = all;
}

template <typename Arg>
Variant CompiledLets::evaluate(std::size_t term, const Arg& arg) const {
    const LetSpec& let      = lets_[term];
    const std::size_t nargs = arg_ids_[term].size();
    switch (let.fn) {
    case LetSpec::Fn::Scale: {
        if (nargs == 0)
            return {};
        const Variant v = arg(0);
        if (!v.is_numeric())
            return {};
        return Variant(v.to_double() * let.parameter);
    }
    case LetSpec::Fn::Truncate: {
        if (nargs == 0 || let.parameter <= 0.0)
            return {};
        const Variant v = arg(0);
        if (!v.is_numeric())
            return {};
        return Variant(std::floor(v.to_double() / let.parameter) * let.parameter);
    }
    case LetSpec::Fn::Ratio: {
        if (nargs < 2)
            return {};
        const Variant a = arg(0);
        const Variant b = arg(1);
        if (!a.is_numeric() || !b.is_numeric() || b.to_double() == 0.0)
            return {};
        return Variant(a.to_double() / b.to_double());
    }
    case LetSpec::Fn::First: {
        for (std::size_t k = 0; k < nargs; ++k) {
            Variant v = arg(k);
            if (!v.empty())
                return v;
        }
        return {};
    }
    }
    return {};
}

void CompiledLets::apply(RecordBatch& batch) {
    resolve();
    if (lets_.empty() || batch.empty())
        return;
    const std::size_t n = batch.rows();
    std::vector<std::int32_t> argcols;
    // term-major is equivalent to applying every term to one row before
    // the next: terms only interact through same-row target/argument
    // values, and term i finishes every row before term i+1 reads its
    // target
    for (std::size_t i = 0; i < lets_.size(); ++i) {
        const std::size_t target = batch.append_target(target_ids_[i]);
        const std::vector<id_t>& ids = arg_ids_[i];
        argcols.assign(ids.size(), -1);
        for (std::size_t k = 0; k < ids.size(); ++k)
            if (ids[k] != invalid_id)
                argcols[k] = batch.column_index(ids[k]);
        for (std::size_t r = 0; r < n; ++r) {
            if (batch.is_overflow(r)) {
                IdRecord& rec   = batch.overflow_record(r);
                const Variant v = evaluate(i, [&](std::size_t k) {
                    return ids[k] == invalid_id ? Variant() : rec.get(ids[k]);
                });
                if (!v.empty())
                    rec.set(target_ids_[i], v);
                continue;
            }
            const Variant v = evaluate(i, [&](std::size_t k) {
                const std::int32_t c = argcols[k];
                if (c < 0)
                    return Variant();
                const RecordBatch::Column& col =
                    batch.column_at(static_cast<std::size_t>(c));
                return col.valid[r] ? col.values[r] : Variant();
            });
            if (!v.empty())
                batch.set_row_value(target, r, v);
        }
    }
}

} // namespace calib
