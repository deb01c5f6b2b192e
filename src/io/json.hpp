// The one JSON reader: a strict RFC 8259 parser over a string_view, with
// two consumers (a tree for nested documents, a flat record walk for
// record arrays). Its writing counterpart, json_escape(), lives with the
// JSON formatter (query/formatter.hpp).
//
// Grammar (RFC 8259): whitespace is space, tab, LF and CR; strings reject
// raw control characters and decode \uXXXX escapes to UTF-8 (a surrogate
// pair to one 4-byte sequence; a lone surrogate is an error); numbers
// follow the JSON number grammar (no '+', no leading zeros, digits on
// both sides of '.' and after 'e'). Number typing: an integer literal
// reads as Int, one above INT64_MAX as exact UInt, "-0" and every other
// number as Double. Every error throws std::runtime_error naming the byte
// offset at which the input stopped matching:
// "json parse error at byte N: <what>".
#pragma once

#include "../common/variant.hpp"

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace calib {

class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /// Members in document order (deterministic iteration keeps
    /// normalization stable).
    std::vector<std::pair<std::string, JsonValue>> object;

    bool is_number() const noexcept { return type == Type::Number; }
    bool is_string() const noexcept { return type == Type::String; }
    bool is_array() const noexcept { return type == Type::Array; }
    bool is_object() const noexcept { return type == Type::Object; }

    /// First member named \a key, or nullptr (objects only).
    const JsonValue* find(std::string_view key) const noexcept {
        for (const auto& [k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/// Parse one JSON document (surrounding whitespace allowed, nothing else).
JsonValue parse_json(std::string_view text);

/// Walk a JSON array of flat objects without building a tree: \a field
/// receives each member whose value is not null (strings interned) in
/// document order, and \a end_record follows each object's last member.
/// An array or object member value is an error: records are flat.
void parse_json_records(
    std::string_view text,
    const std::function<void(std::string_view key, const Variant& value)>& field,
    const std::function<void()>& end_record);

} // namespace calib
