#include "formatter.hpp"

#include "../common/util.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace calib {

namespace {

std::string display_name(const std::string& column, const QuerySpec& spec) {
    auto it = spec.aliases.find(column);
    return it != spec.aliases.end() ? it->second : column;
}

std::string cell_text(const Variant& v) {
    return v.to_string();
}

/// Table cells render doubles with 6 significant digits for readability;
/// csv/json/expand keep the full-precision to_string() form.
std::string table_cell_text(const Variant& v) {
    if (v.type() == Variant::Type::Double) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", v.as_double());
        return buf;
    }
    return v.to_string();
}

bool column_is_numeric(const std::string& column,
                       const std::vector<RecordMap>& records) {
    bool seen = false;
    for (const RecordMap& r : records) {
        if (!r.contains(column))
            continue;
        const Variant v = r.get(column);
        if (!v.is_numeric())
            return false;
        seen = true;
    }
    return seen;
}

} // namespace

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':  out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

std::string csv_escape(const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::vector<std::string> output_columns(const std::vector<RecordMap>& records,
                                        const QuerySpec& spec) {
    if (!spec.select.empty())
        return spec.select;

    std::vector<std::string> columns;
    std::set<std::string> seen;
    auto add = [&](const std::string& name) {
        if (seen.insert(name).second)
            columns.push_back(name);
    };

    // preferred order: grouping key, then aggregation results
    for (const std::string& attr : spec.aggregation.key.attributes)
        add(attr);
    for (const AggOpConfig& op : spec.aggregation.ops)
        add(op.result_label());

    // anything else in first-appearance order
    std::vector<std::string> extras;
    std::set<std::string> extra_seen;
    for (const RecordMap& r : records)
        for (const auto& [name, value] : r) {
            std::string n(name);
            if (!seen.count(n) && extra_seen.insert(n).second)
                extras.push_back(std::move(n));
        }
    // keep key columns stable for implicit (*) grouping: sort extras only
    // when aggregating by everything, so output is deterministic
    if (spec.aggregation.key.all)
        std::sort(extras.begin(), extras.end());
    for (std::string& e : extras)
        add(e);

    // drop columns that never appear in the data (unless explicitly selected)
    std::erase_if(columns, [&](const std::string& c) {
        for (const RecordMap& r : records)
            if (r.contains(c))
                return false;
        return true;
    });
    return columns;
}

void format_table(std::ostream& os, const std::vector<RecordMap>& records,
                  const QuerySpec& spec) {
    const std::vector<std::string> columns = output_columns(records, spec);
    if (columns.empty())
        return;

    std::vector<std::size_t> width(columns.size());
    std::vector<bool> numeric(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
        width[c]   = display_name(columns[c], spec).size();
        numeric[c] = column_is_numeric(columns[c], records);
        for (const RecordMap& r : records)
            width[c] = std::max(width[c], table_cell_text(r.get(columns[c])).size());
    }

    auto put_cell = [&](std::size_t c, const std::string& text, bool last) {
        if (numeric[c]) {
            os << std::string(width[c] - text.size(), ' ') << text;
        } else {
            os << text;
            if (!last)
                os << std::string(width[c] - text.size(), ' ');
        }
        if (!last)
            os << "  ";
    };

    for (std::size_t c = 0; c < columns.size(); ++c)
        put_cell(c, display_name(columns[c], spec), c + 1 == columns.size());
    os << '\n';

    for (const RecordMap& r : records) {
        for (std::size_t c = 0; c < columns.size(); ++c)
            put_cell(c, table_cell_text(r.get(columns[c])), c + 1 == columns.size());
        os << '\n';
    }
}

void format_csv(std::ostream& os, const std::vector<RecordMap>& records,
                const QuerySpec& spec) {
    const std::vector<std::string> columns = output_columns(records, spec);
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c)
            os << ',';
        os << csv_escape(display_name(columns[c], spec));
    }
    os << '\n';
    for (const RecordMap& r : records) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c)
                os << ',';
            os << csv_escape(cell_text(r.get(columns[c])));
        }
        os << '\n';
    }
}

void format_json(std::ostream& os, const std::vector<RecordMap>& records,
                 const QuerySpec& spec) {
    const std::vector<std::string> columns = output_columns(records, spec);
    os << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        os << "  {";
        bool first = true;
        for (const std::string& c : columns) {
            if (!records[i].contains(c))
                continue;
            const Variant v = records[i].get(c);
            if (!first)
                os << ", ";
            first = false;
            os << '"' << json_escape(display_name(c, spec)) << "\": ";
            if (v.type() == Variant::Type::Double &&
                !std::isfinite(v.as_double()))
                os << "null"; // JSON has no nan/inf literal
            else if (v.is_numeric())
                os << v.to_repr();
            else if (v.is_bool())
                os << (v.as_bool() ? "true" : "false");
            else
                os << '"' << json_escape(v.to_string()) << '"';
        }
        os << '}' << (i + 1 < records.size() ? "," : "") << '\n';
    }
    os << "]\n";
}

void format_expand(std::ostream& os, const std::vector<RecordMap>& records,
                   const QuerySpec& spec) {
    const std::vector<std::string> columns = output_columns(records, spec);
    for (const RecordMap& r : records) {
        bool first = true;
        for (const std::string& c : columns) {
            if (!r.contains(c))
                continue;
            if (!first)
                os << ',';
            first = false;
            os << display_name(c, spec) << '='
               << util::escape(r.get(c).to_string(), ",=");
        }
        os << '\n';
    }
}

void format_tree(std::ostream& os, const std::vector<RecordMap>& records,
                 const QuerySpec& spec) {
    const std::vector<std::string> columns = output_columns(records, spec);
    if (columns.empty())
        return;
    const std::string& path_column = columns.front();

    // Collect rows sorted by path so prefixes precede their children.
    std::vector<const RecordMap*> rows;
    rows.reserve(records.size());
    for (const RecordMap& r : records)
        rows.push_back(&r);
    std::sort(rows.begin(), rows.end(), [&](const RecordMap* a, const RecordMap* b) {
        return a->get(path_column).to_string() < b->get(path_column).to_string();
    });

    // metric column widths
    std::vector<std::size_t> width(columns.size());
    std::size_t path_width = display_name(path_column, spec).size();
    for (const RecordMap* r : rows) {
        const std::string path = r->get(path_column).to_string();
        auto parts             = util::split(path, '/');
        path_width             = std::max(path_width,
                                          2 * (parts.size() - 1) + parts.back().size());
    }
    for (std::size_t c = 1; c < columns.size(); ++c) {
        width[c] = display_name(columns[c], spec).size();
        for (const RecordMap* r : rows)
            width[c] = std::max(width[c], table_cell_text(r->get(columns[c])).size());
    }

    os << display_name(path_column, spec)
       << std::string(path_width - display_name(path_column, spec).size(), ' ');
    for (std::size_t c = 1; c < columns.size(); ++c) {
        const std::string title = display_name(columns[c], spec);
        os << "  " << std::string(width[c] - title.size(), ' ') << title;
    }
    os << '\n';

    for (const RecordMap* r : rows) {
        const std::string path = r->get(path_column).to_string();
        auto parts             = util::split(path, '/');
        const std::size_t ind  = 2 * (parts.size() - 1);
        std::string label      = std::string(ind, ' ') + std::string(parts.back());
        os << label << std::string(path_width - label.size(), ' ');
        for (std::size_t c = 1; c < columns.size(); ++c) {
            const std::string text = table_cell_text(r->get(columns[c]));
            os << "  " << std::string(width[c] - text.size(), ' ') << text;
        }
        os << '\n';
    }
}

void format_records(std::ostream& os, const std::vector<RecordMap>& records,
                    const QuerySpec& spec) {
    if (spec.format == "csv")
        format_csv(os, records, spec);
    else if (spec.format == "json")
        format_json(os, records, spec);
    else if (spec.format == "expand")
        format_expand(os, records, spec);
    else if (spec.format == "tree")
        format_tree(os, records, spec);
    else
        format_table(os, records, spec);
}

} // namespace calib
