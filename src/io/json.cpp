#include "json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace calib {

namespace {

/// Arrays and objects nested deeper than this are rejected, so hostile
/// input cannot exhaust the stack through Parser::value()'s recursion.
constexpr unsigned max_depth = 256;

void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
    }
}

/// Cursor over JSON text. Every read skips the whitespace before its
/// token; every failure throws with the current byte offset.
class Parser {
public:
    explicit Parser(std::string_view text) noexcept : text_(text) {}

    [[noreturn]] void fail(std::string_view what) const {
        throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                                 ": " + std::string(what));
    }

    /// Consume \a c when it is the next token.
    bool accept(char c) noexcept {
        skip_ws();
        if (pos_ == text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }
    void expect(char c) {
        if (!accept(c))
            fail(std::string("expected '") + c + "'");
    }
    /// After an array element or object member: consume ',' and return
    /// true, or consume \a close and return false.
    bool more(char close) {
        if (accept(','))
            return true;
        if (!accept(close))
            fail(std::string("expected ',' or '") + close + "'");
        return false;
    }
    /// The first byte of the next value, not consumed.
    char peek() {
        skip_ws();
        if (pos_ == text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }
    void finish() {
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing content");
    }

    /// A string's decoded bytes: a view of the input when the string holds
    /// no escape, else of \a scratch.
    std::string_view string(std::string& scratch) {
        expect('"');
        const std::size_t start = pos_;
        bool decoded = false; // scratch holds the string so far
        for (;;) {
            if (pos_ == text_.size())
                fail("unterminated string");
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return decoded ? std::string_view(scratch)
                               : text_.substr(start, pos_ - 1 - start);
            }
            if (static_cast<unsigned char>(c) < 0x20)
                fail("control character in string");
            if (c != '\\') {
                if (decoded)
                    scratch += c;
                ++pos_;
                continue;
            }
            if (!decoded)
                scratch.assign(text_.data() + start, pos_ - start);
            decoded = true;
            escape(scratch);
        }
    }

    /// A number, typed as in json.hpp's header comment.
    Variant number() {
        const std::size_t start = pos_;
        const auto at    = [this](char c) { return pos_ < text_.size() && text_[pos_] == c; };
        const auto digit = [this] {
            return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
        };
        const auto digits = [&] {
            if (!digit())
                fail("expected a digit");
            while (digit())
                ++pos_;
        };
        const bool negative = at('-');
        if (!negative && !digit())
            fail("expected a value");
        pos_ += negative;
        if (at('0')) {
            ++pos_;
            if (digit())
                fail("leading zero");
        } else {
            digits();
        }
        bool integral = true;
        if (at('.')) {
            ++pos_;
            digits();
            integral = false;
        }
        if (at('e') || at('E')) {
            ++pos_;
            pos_ += at('+') || at('-');
            digits();
            integral = false;
        }

        const char* first = text_.data() + start;
        const char* last  = text_.data() + pos_;
        if (integral) {
            // "-0" is a double's negative zero, not an integer: the integer
            // would read back as +0.0 (the .cali reader's rule too)
            std::int64_t i = 0;
            if (std::from_chars(first, last, i).ec == std::errc())
                return negative && i == 0 ? Variant(-0.0)
                                          : Variant(static_cast<long long>(i));
            // integers in (INT64_MAX, UINT64_MAX] stay exact as UInt
            // instead of losing low bits through the double fallback
            std::uint64_t u = 0;
            if (!negative && std::from_chars(first, last, u).ec == std::errc())
                return Variant(static_cast<unsigned long long>(u));
        }
        double d = 0.0;
        if (std::from_chars(first, last, d).ec == std::errc::result_out_of_range) {
            // from_chars leaves d unset past the double range; strtod rounds
            // to ±inf, or to zero or a subnormal
            d = std::strtod(std::string(first, last).c_str(), nullptr);
        }
        return Variant(d);
    }

    /// `true`, `false` or `null` (an empty Variant).
    Variant literal() {
        if (word("true"))
            return Variant(true);
        if (word("false"))
            return Variant(false);
        if (!word("null"))
            fail("bad literal");
        return {};
    }

    /// A scalar value: strings interned, null as an empty Variant. An array
    /// or object here is a record member's value, and records are flat.
    Variant scalar(std::string& scratch) {
        switch (peek()) {
        case '"': return Variant(string(scratch));
        case 't':
        case 'f':
        case 'n': return literal();
        case '[':
        case '{': fail("records are flat: a field value cannot be an array or an object");
        default:  return number();
        }
    }

    JsonValue value() {
        JsonValue v;
        std::string scratch;
        if (accept('[')) {
            nest();
            v.type = JsonValue::Type::Array;
            if (!accept(']')) {
                do
                    v.array.push_back(value());
                while (more(']'));
            }
            --depth_;
        } else if (accept('{')) {
            nest();
            v.type = JsonValue::Type::Object;
            if (!accept('}')) {
                do {
                    std::string key(string(scratch));
                    expect(':');
                    v.object.emplace_back(std::move(key), value());
                } while (more('}'));
            }
            --depth_;
        } else if (peek() == '"') {
            v.type   = JsonValue::Type::String;
            v.string = string(scratch); // not interned, unlike scalar()'s
        } else {
            const Variant s = scalar(scratch);
            v.type    = s.is_bool() ? JsonValue::Type::Bool
                        : s.empty() ? JsonValue::Type::Null
                                    : JsonValue::Type::Number;
            v.boolean = s.is_bool() && s.as_bool();
            v.number  = s.is_numeric() ? s.to_double() : 0.0;
        }
        return v;
    }

private:
    void nest() {
        if (++depth_ > max_depth)
            fail("nesting too deep");
    }

    void skip_ws() noexcept {
        while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                       text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool word(std::string_view w) noexcept {
        if (text_.substr(pos_, w.size()) != w)
            return false;
        pos_ += w.size();
        return true;
    }

    /// Decode the escape at the backslash under the cursor into \a out.
    void escape(std::string& out) {
        const std::size_t backslash = pos_++;
        if (pos_ == text_.size())
            fail("unterminated string");
        // the one-character escapes, and what each stands for
        static constexpr std::string_view from = "\"\\/bfnrt";
        static constexpr std::string_view to   = "\"\\/\b\f\n\r\t";
        const char e = text_[pos_++];
        if (const std::size_t i = from.find(e); i != std::string_view::npos) {
            out += to[i];
            return;
        }
        if (e != 'u') {
            --pos_;
            fail("bad escape");
        }
        unsigned code = hex4();
        if (code >= 0xD800 && code < 0xDC00 && text_.substr(pos_, 2) == "\\u") {
            // a high surrogate and a low one encode one code point above
            // the BMP
            const std::size_t low_start = pos_;
            pos_ += 2;
            const unsigned low = hex4();
            if (low >= 0xDC00 && low < 0xE000)
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            else
                pos_ = low_start;
        }
        if (code >= 0xD800 && code < 0xE000) {
            pos_ = backslash; // the error names the unpaired escape
            fail("lone surrogate");
        }
        append_utf8(out, code);
    }

    unsigned hex4() {
        unsigned code     = 0;
        const char* first = text_.data() + pos_;
        const char* last  = first + std::min<std::size_t>(4, text_.size() - pos_);
        const auto [end, ec] = std::from_chars(first, last, code, 16);
        pos_ = static_cast<std::size_t>(end - text_.data());
        if (ec != std::errc() || end != first + 4)
            fail("bad \\u escape");
        return code;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    unsigned depth_  = 0; ///< arrays and objects open around the cursor
};

} // namespace

JsonValue parse_json(std::string_view text) {
    Parser parser(text);
    JsonValue v = parser.value();
    parser.finish();
    return v;
}

void parse_json_records(
    std::string_view text,
    const std::function<void(std::string_view key, const Variant& value)>& field,
    const std::function<void()>& end_record) {
    Parser parser(text);
    std::string key_scratch;
    std::string value_scratch;
    parser.expect('[');
    if (!parser.accept(']')) {
        do {
            parser.expect('{');
            if (!parser.accept('}')) {
                do {
                    const std::string_view key = parser.string(key_scratch);
                    parser.expect(':');
                    const Variant value = parser.scalar(value_scratch);
                    if (!value.empty())
                        field(key, value);
                } while (parser.more('}'));
            }
            end_record();
        } while (parser.more(']'));
    }
    parser.finish();
}

} // namespace calib
