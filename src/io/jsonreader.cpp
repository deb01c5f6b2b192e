#include "jsonreader.hpp"

#include "filebuffer.hpp"
#include "reader_metrics.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <unordered_map>

namespace calib {

namespace {

// Pulls characters off the stream one object at a time, so arbitrarily
// large inputs parse in bounded memory (one batch of objects).
// Object keys resolve to attribute ids through a per-parser dictionary:
// each distinct key costs one registry lookup per stream, not per record.
class JsonParser {
public:
    JsonParser(std::istream& is, AttributeRegistry& registry)
        : is_(is), registry_(registry) {}

    /// Parse the record array, appending each object as one row of a
    /// batch handed to \a sink every \a cap rows (plus a trailing partial
    /// batch).
    void parse_records(std::size_t cap, const std::function<void(RecordBatch&)>& sink) {
        obs::SpanTimer read_span(iometrics::read_time);
        RecordBatch batch;
        auto fill_start = std::chrono::steady_clock::now();
        const auto emit = [&]() {
            const auto now = std::chrono::steady_clock::now();
            iometrics::batch_fill.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(now - fill_start)
                    .count()));
            read_span.pause(); // downstream pipeline time is not read time
            sink(batch);
            read_span.resume();
            batch.clear(); // safe after a sink that moved the batch away
            fill_start = std::chrono::steady_clock::now();
        };
        skip_ws();
        expect('[');
        skip_ws();
        if (peek() == ']') {
            next();
        } else {
            while (true) {
                iometrics::entries.add(parse_object(batch));
                iometrics::records.add();
                if (batch.rows() >= cap)
                    emit();
                skip_ws();
                const char c = next();
                if (c == ']')
                    break;
                if (c != ',')
                    fail("expected ',' or ']' after object");
                skip_ws();
            }
        }
        skip_ws();
        if (peek() != '\0')
            fail("trailing content after the record array");
        if (!batch.empty())
            emit();
        iometrics::bytes.add(pos_);
    }

private:
    [[noreturn]] void fail(const std::string& msg) const {
        throw std::runtime_error("json (offset " + std::to_string(pos_) +
                                 "): " + msg);
    }

    char peek() {
        const int c = is_.peek();
        return c == std::char_traits<char>::eof() ? '\0' : static_cast<char>(c);
    }
    char next() {
        const int c = is_.get();
        if (c == std::char_traits<char>::eof())
            fail("unexpected end of input");
        ++pos_;
        return static_cast<char>(c);
    }
    void expect(char c) {
        if (next() != c)
            fail(std::string("expected '") + c + "'");
    }
    void skip_ws() {
        while (std::isspace(static_cast<unsigned char>(peek())))
            next();
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            char c = next();
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = next();
                switch (esc) {
                case 'n':  out += '\n'; break;
                case 't':  out += '\t'; break;
                case 'r':  out += '\r'; break;
                case 'b':  out += '\b'; break;
                case 'f':  out += '\f'; break;
                case '"':  out += '"'; break;
                case '\\': out += '\\'; break;
                case '/':  out += '/'; break;
                case 'u': {
                    // \uXXXX: decode the BMP code point as UTF-8
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = next();
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape");
                    }
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default:
                    fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
    }

    Variant parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '"')
            return Variant(parse_string());
        if (c == 't') {
            literal("true");
            return Variant(true);
        }
        if (c == 'f') {
            literal("false");
            return Variant(false);
        }
        if (c == 'n') {
            literal("null");
            return {};
        }
        // number
        std::string token;
        if (peek() == '-' || peek() == '+')
            token += next();
        bool is_double = false;
        while (true) {
            const char d = peek();
            if (std::isdigit(static_cast<unsigned char>(d))) {
                token += next();
            } else if (d == '.' || d == 'e' || d == 'E' || d == '+' || d == '-') {
                is_double = true;
                token += next();
            } else {
                break;
            }
        }
        if (token.empty())
            fail("expected a value");
        if (!is_double) {
            errno = 0;
            const long long v = std::strtoll(token.c_str(), nullptr, 10);
            if (errno == 0)
                return Variant(v);
            if (token[0] != '-') {
                // integers in (INT64_MAX, UINT64_MAX] stay exact as UInt
                // instead of losing low bits through the double fallback
                errno                  = 0;
                const unsigned long long u =
                    std::strtoull(token.c_str(), nullptr, 10);
                if (errno == 0)
                    return Variant(u);
            }
        }
        return Variant(std::strtod(token.c_str(), nullptr));
    }

    void literal(std::string_view word) {
        for (char c : word)
            if (next() != c)
                fail("bad literal");
    }

    id_t resolve_key(const std::string& key) {
        auto [it, fresh] = key_ids_.try_emplace(key, invalid_id);
        if (fresh) {
            // first sighting in this stream: one registry resolution;
            // JSON carries no type declarations, so keys default to String
            it->second = registry_.create(key, Variant::Type::String).id();
            iometrics::name_resolutions.add();
        }
        return it->second;
    }

    /// Parse one object into a new row of \a batch; returns its entry
    /// count.
    std::size_t parse_object(RecordBatch& batch) {
        skip_ws();
        expect('{');
        batch.begin_row();
        skip_ws();
        if (peek() == '}') {
            next();
            return batch.end_row();
        }
        while (true) {
            skip_ws();
            const std::string key = parse_string();
            skip_ws();
            expect(':');
            Variant value = parse_value();
            if (!value.empty())
                batch.append(resolve_key(key), value);
            skip_ws();
            const char c = next();
            if (c == '}')
                return batch.end_row();
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    std::istream& is_;
    AttributeRegistry& registry_;
    std::unordered_map<std::string, id_t> key_ids_; ///< per-stream dictionary
    std::size_t pos_ = 0; ///< bytes consumed, for error offsets
};

// Read-only streambuf view over in-memory text (no copy).
class ViewBuf : public std::streambuf {
public:
    explicit ViewBuf(std::string_view text) {
        char* p = const_cast<char*>(text.data());
        setg(p, p, p + text.size());
    }
};

} // namespace

void read_json_file_batches(const std::string& path, AttributeRegistry& registry,
                            std::size_t batch_size,
                            const std::function<void(RecordBatch&)>& sink) {
    const FileBuffer buf = FileBuffer::open(path);
    ViewBuf view(buf.view());
    std::istream is(&view);
    JsonParser(is, registry).parse_records(batch_size ? batch_size : 1, sink);
}

void read_json_records(std::istream& is,
                       const std::function<void(RecordMap&&)>& sink) {
    AttributeRegistry registry; // private dictionary, names restored below
    IdRecord row;
    const auto to_names = [&](RecordBatch& batch) {
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            batch.materialize(r, row);
            sink(to_recordmap(row, registry));
        }
    };
    JsonParser(is, registry).parse_records(RecordBatch::default_rows, to_names);
}

std::vector<RecordMap> read_json_records(std::istream& is) {
    std::vector<RecordMap> out;
    read_json_records(is, [&out](RecordMap&& r) { out.push_back(std::move(r)); });
    return out;
}

std::vector<RecordMap> read_json_records(std::string_view text) {
    ViewBuf buf(text);
    std::istream is(&buf);
    return read_json_records(is);
}

} // namespace calib
