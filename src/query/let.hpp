// Evaluation of LET terms (derived attributes).
#pragma once

#include "queryspec.hpp"

#include "../common/attribute.hpp"
#include "../common/recordbatch.hpp"

#include <vector>

namespace calib {

/// Id-compiled LET terms for the offline batch pipeline: target and
/// argument names resolve against one registry (targets are created on
/// first use; arguments re-resolve lazily so late-created attributes still
/// bind), and per-row evaluation is column lookups only.
class CompiledLets {
public:
    CompiledLets(std::vector<LetSpec> lets, AttributeRegistry* registry);

    /// Apply every term to every row of \a batch. Terms run in order, so
    /// later terms see earlier targets; a term whose sources are missing
    /// or non-numeric (for numeric functions) leaves its target unset.
    /// Targets become append-target columns (conforming rows) or in-record
    /// writes (overflow rows), with record `set` semantics either way.
    void apply(RecordBatch& batch);

    bool empty() const noexcept { return lets_.empty(); }

private:
    void resolve();
    /// The one LET term switch: the value of term \a term, reading its
    /// k-th argument through \a arg(k) (empty when absent).
    template <typename Arg>
    Variant evaluate(std::size_t term, const Arg& arg) const;

    std::vector<LetSpec> lets_;
    AttributeRegistry* registry_;
    std::vector<id_t> target_ids_;
    std::vector<std::vector<id_t>> arg_ids_;
    std::size_t resolved_generation_ = static_cast<std::size_t>(-1);
    bool fully_resolved_             = false;
};

} // namespace calib
