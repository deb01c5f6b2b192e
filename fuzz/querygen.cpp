#include "querygen.hpp"

#include "fuzz_rng.hpp"

#include <algorithm>
#include <cctype>

namespace calib::fuzz {

namespace {

/// Quote an attribute name for CalQL when it contains characters the
/// tokenizer would not take as one identifier.
std::string quoted(const std::string& name) {
    bool plain = !name.empty();
    for (char c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == '/' || c == ':' || c == '@' || c == '-'))
            plain = false;
    }
    if (plain)
        return name;
    std::string out = "\"";
    for (char c : name) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

std::string pick_attr(Rng& rng, const Corpus& corpus, bool numeric_only) {
    const std::vector<std::string> pool =
        numeric_only ? corpus.numeric_attributes() : corpus.attribute_names();
    if (pool.empty()) // corpus without numeric columns: fall back to any
        return corpus.attributes.empty() ? std::string("x")
                                         : corpus.attributes.front().name;
    return pool[rng.below(pool.size())];
}

/// Render a WHERE comparison literal for an attribute of the given type.
std::string filter_literal(Rng& rng, Variant::Type type) {
    // mismatched-type literals exercise the mixed-coercion compare path
    if (rng.chance(20))
        type = rng.chance(50) ? Variant::Type::String : Variant::Type::Int;
    const Variant v = adversarial_value(type, rng.next());
    if (v.is_string() || v.type() == Variant::Type::Bool) {
        std::string lit = "'";
        for (char c : v.to_string()) {
            if (c == '\'' || c == '\\')
                lit += '\\';
            lit += c;
        }
        return lit + "'";
    }
    return v.to_repr();
}

} // namespace

std::string generate_query(std::uint64_t seed, const Corpus& corpus) {
    Rng rng(seed ^ 0xf00dcafe12345678ULL);
    std::string q;
    auto clause = [&q](const std::string& text) {
        if (!q.empty())
            q += ' ';
        q += text;
    };

    // LET first (sources for later clauses); the parser accepts clauses in
    // any order, so position is free coverage — vary it
    std::string let_target;
    const bool want_let = rng.chance(30) && !corpus.attributes.empty();
    std::string let_clause;
    if (want_let) {
        let_target = "derived.v";
        static const char* fns[] = {"scale", "truncate", "ratio", "first"};
        const char* fn = fns[rng.below(4)];
        std::string args;
        if (fn == std::string("ratio") || fn == std::string("first")) {
            args = quoted(pick_attr(rng, corpus, fn == std::string("ratio"))) +
                   "," + quoted(pick_attr(rng, corpus, fn == std::string("ratio")));
        } else {
            static const char* params[] = {"2", "0.5", "1e3", "0.1"};
            args = quoted(pick_attr(rng, corpus, true)) + "," + params[rng.below(4)];
        }
        let_clause = std::string("LET ") + quoted(let_target) + "=" + fn + "(" +
                     args + ")";
    }

    // result columns an ORDER BY may name besides corpus attributes: op
    // result labels and aliases, and the GROUP BY list (for SELECT aliases)
    std::vector<std::string> results;
    std::vector<std::string> keys;
    const bool aggregate = rng.chance(80);
    if (aggregate) {
        static const char* ops[] = {"count", "sum",      "min",       "max",
                                    "avg",   "variance", "histogram", "percent_total"};
        std::string s = "AGGREGATE ";
        const std::size_t n_ops = 1 + rng.below(3);
        for (std::size_t i = 0; i < n_ops; ++i) {
            if (i)
                s += ',';
            const char* op = ops[rng.below(8)];
            std::string label = op;
            if (op == std::string("count")) {
                s += "count";
            } else {
                // min/max take any type; the value-domain ops get numeric
                // targets (plus, sometimes, a LET target or a deliberately
                // non-numeric one to hit the ignored-input path)
                const bool any_type =
                    op == std::string("min") || op == std::string("max");
                std::string target;
                if (!let_target.empty() && rng.chance(25))
                    target = let_target;
                else if (!any_type && rng.chance(15))
                    target = pick_attr(rng, corpus, false);
                else
                    target = pick_attr(rng, corpus, !any_type);
                s += std::string(op) + "(" + quoted(target) + ")";
                label += "#" + target;
            }
            if (rng.chance(20)) {
                label = "alias" + std::to_string(i);
                s += " AS " + label;
            }
            results.push_back(label);
        }
        clause(s);

        const std::uint64_t grouping = rng.below(10);
        if (grouping < 4) {
            std::string g = "GROUP BY ";
            const std::size_t n_keys = 1 + rng.below(2);
            for (std::size_t i = 0; i < n_keys; ++i) {
                if (i)
                    g += ',';
                keys.push_back(pick_attr(rng, corpus, false));
                g += quoted(keys.back());
            }
            clause(g);
        } else if (grouping < 7) {
            clause("GROUP BY *");
        } // else: one global group
    }

    if (!let_clause.empty())
        clause(let_clause);

    const std::size_t n_filters = rng.below(3);
    if (n_filters > 0 && !corpus.attributes.empty()) {
        std::string w = "WHERE ";
        for (std::size_t i = 0; i < n_filters; ++i) {
            if (i)
                w += ',';
            const CorpusAttribute& attr =
                corpus.attributes[rng.below(corpus.attributes.size())];
            switch (rng.below(9)) {
            case 0: w += quoted(attr.name); break;
            case 1: w += "not(" + quoted(attr.name) + ")"; break;
            case 2: w += quoted("no.such.attribute"); break;
            default: {
                static const char* cmps[] = {"=", "!=", "<", "<=", ">", ">="};
                w += quoted(attr.name) + cmps[rng.below(6)] +
                     filter_literal(rng, attr.type);
                break;
            }
            }
        }
        clause(w);
    }

    // ORDER BY: the main stream draws exactly as it always has, so every
    // other clause of a seed's query stays the same. A stream of its own
    // may then order by op results and aliases instead (the top-N shape),
    // with one or two terms, or give a GROUP BY key a SELECT alias to
    // order by.
    std::vector<std::string> terms;
    if (rng.chance(40)) {
        terms.push_back(quoted(pick_attr(rng, corpus, false)));
        if (rng.chance(40))
            terms.back() += " DESC";
    }
    Rng order_rng(seed ^ 0x5eed04de7b1e5ULL);
    std::vector<std::string> pool = results;
    if (!keys.empty() && order_rng.chance(20)) {
        // every row column stays selected once, the first key under an
        // alias (a repeated op folds into its first occurrence)
        std::vector<std::string> columns;
        for (const std::vector<std::string>* names : {&keys, &results})
            for (const std::string& name : *names)
                if (std::find(columns.begin(), columns.end(), name) == columns.end())
                    columns.push_back(name);
        std::string select = "SELECT " + quoted(columns.front()) + " AS key.alias";
        for (std::size_t i = 1; i < columns.size(); ++i)
            select += "," + quoted(columns[i]);
        clause(select);
        pool.push_back("key.alias");
    }
    if (!pool.empty() && order_rng.chance(terms.empty() ? 30 : 50)) {
        std::vector<std::string> fresh;
        for (std::size_t n = 1 + order_rng.below(2); fresh.size() < n;)
            fresh.push_back(quoted(order_rng.pick(pool)) +
                            (order_rng.chance(50) ? " DESC" : ""));
        if (!terms.empty() && order_rng.chance(30))
            fresh.push_back(terms.front()); // a corpus attribute breaks ties
        terms = std::move(fresh);
    }
    if (!terms.empty()) {
        std::string o = "ORDER BY " + terms.front();
        for (std::size_t i = 1; i < terms.size(); ++i)
            o += "," + terms[i];
        clause(o);
    }

    // WINDOW family: trailing-window restriction over a (usually numeric)
    // time attribute. Bare durations are microseconds; adversarial values
    // land in wildly distant panes, exercising retirement and the
    // out-of-range / non-numeric / NaN drop policy on both sides of the
    // differential. Omitting BY targets the default time.offset, which the
    // corpus never defines — the all-dropped path.
    if (rng.chance(35)) {
        static const std::uint64_t widths_us[] = {1, 64, 100, 1000, 5000000};
        const std::uint64_t width_us = widths_us[rng.below(5)];
        std::string w = "WINDOW " + std::to_string(width_us);
        if (rng.chance(75))
            w += " BY " + quoted(pick_attr(rng, corpus, rng.chance(80)));
        if (rng.chance(50) && width_us > 1) {
            static const std::uint64_t divisors[] = {2, 3, 4, 8};
            const std::uint64_t slide_us =
                std::max<std::uint64_t>(1, width_us / divisors[rng.below(4)]);
            w += " SLIDE " + std::to_string(slide_us);
        }
        clause(w);
    }

    static const char* formats[] = {"table", "csv", "json", "expand", "tree"};
    clause(std::string("FORMAT ") + formats[rng.below(5)]);

    if (rng.chance(25))
        clause("LIMIT " + std::to_string(1 + rng.below(10)));

    return q;
}

} // namespace calib::fuzz
