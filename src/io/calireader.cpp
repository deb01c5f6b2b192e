#include "calireader.hpp"

#include "reader_metrics.hpp"

#include "../common/util.hpp"
#include "../common/variant.hpp"

#include <charconv>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace calib {

namespace iometrics {
obs::Counter records("reader.records");
obs::Counter entries("reader.entries");
obs::Counter name_resolutions("reader.name_resolutions");
obs::Counter bytes("reader.bytes");
obs::Timer read_time("phase.read");
obs::Timer batch_fill("batch.fill");
} // namespace iometrics

namespace {

/// Resolved attribute definition: the stream-local id maps straight to a
/// registry id, so record fields never touch the attribute name again.
/// Lives in a flat vector indexed by the (dense, file-local) id.
struct LocalAttr {
    id_t id            = invalid_id;
    Variant::Type type = Variant::Type::Empty;
    /// Memoized last raw value -> parsed Variant for string attributes:
    /// profiling streams repeat values heavily (kernel and function names),
    /// and a short byte compare beats re-unescaping and re-interning.
    bool has_last = false;
    std::string last_raw;
    Variant last_val;
};

/// Stream-local attribute ids are dense by contract (docs/FORMAT.md); this
/// bounds the flat definition table against corrupt or hostile inputs.
constexpr std::uint32_t kMaxLocalAttrId = 1u << 24;

/// Iterate ','-separated fields, honoring backslash escapes of the
/// separator; keeps empty fields. Field views point into \a s with escape
/// sequences intact (split_escaped semantics without the allocations).
/// Returns true when the input ends inside an escape sequence (a dangling
/// backslash — the input was truncated mid-field).
template <typename Fn>
bool for_each_field(std::string_view s, Fn&& fn) {
    std::size_t start = 0;
    bool esc          = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (esc)
            esc = false;
        else if (s[i] == '\\')
            esc = true;
        else if (s[i] == ',') {
            fn(s.substr(start, i - start));
            start = i + 1;
        }
    }
    fn(s.substr(start));
    return esc;
}

/// Undo escapes only when the field actually contains one; the scratch
/// buffer is reused across fields so the common case allocates nothing.
std::string_view unescaped(std::string_view field, std::string& scratch) {
    if (field.find('\\') == std::string_view::npos)
        return field;
    scratch = util::unescape(field);
    return scratch;
}

bool is_integer_literal(std::string_view text) {
    std::size_t i = (text[0] == '-') ? 1 : 0;
    if (i == text.size())
        return false;
    // "-0" (and "-000") is a double's negative zero, not an integer — the
    // exact-integer path would read it back as +0.0
    if (text[0] == '-' && text.find_first_not_of('0', 1) == std::string_view::npos)
        return false;
    for (; i < text.size(); ++i)
        if (text[i] < '0' || text[i] > '9')
            return false;
    return true;
}

Variant parse_value(Variant::Type type, std::string_view text) {
    // empty field text always means an empty string: the writer omits
    // Empty values entirely, so "x=" can only come from a string value
    // (possibly type-drifted into a differently-declared column)
    if (text.empty())
        return Variant(text);
    if (type == Variant::Type::Double && !text.empty() &&
        is_integer_literal(text)) {
        // A writer types a column from its first record, but result rows
        // legitimately mix exact integer sums with overflow-widened
        // doubles in one column. Parsing such an integer literal as
        // double would silently drop low bits above 2^53 — parse it
        // exactly, and keep the integer only when the double conversion
        // is lossy (type drifts, value survives).
        Variant exact = Variant::parse(Variant::Type::Int, text);
        if (exact.empty())
            exact = Variant::parse(Variant::Type::UInt, text);
        if (!exact.empty()) {
            const double d = exact.type() == Variant::Type::Int
                                 ? static_cast<double>(exact.as_int())
                                 : static_cast<double>(exact.as_uint());
            const bool lossless =
                exact.type() == Variant::Type::Int
                    ? (d >= -0x1p63 && d < 0x1p63 &&
                       static_cast<std::int64_t>(d) == exact.as_int())
                    : (d < 0x1p64 &&
                       static_cast<std::uint64_t>(d) == exact.as_uint());
            return lossless ? Variant(d) : exact;
        }
    }
    Variant v = Variant::parse(type, text);
    if (v.empty() && !text.empty())
        v = Variant::parse_guess(text); // type drifted within the stream
    if (v.empty() && type == Variant::Type::String)
        v = Variant(text);
    return v;
}

/// Line-level parser shared by every entry point (whole buffer, byte-range
/// chunk). Holds the per-stream state — the local-id definition table, the
/// record batch its 'R' lines fill, a globals scratch record, an unescape
/// scratch buffer — so steady-state record parsing allocates nothing.
/// Metric deltas accumulate locally and land on the global "reader.*"
/// counters in one flush_metrics() call.
class CaliParser {
public:
    /// Records append into the parser's batch, handed to \a sink every
    /// \a cap rows; call finish() after the last line to flush the trailing
    /// partial batch. 'G' lines accumulate into \a globals (when set).
    CaliParser(AttributeRegistry& registry, IdRecord* globals, std::size_t cap,
               const CaliReader::BatchSink& sink)
        : registry_(registry), globals_(globals), cap_(cap ? cap : 1), sink_(sink),
          fill_start_(std::chrono::steady_clock::now()) {}

    /// Error messages use lineno + 1 for the next line() call — chunk
    /// readers set this so messages carry whole-file line numbers.
    void set_lineno(std::size_t lineno) noexcept { lineno_ = lineno; }

    /// Exclusive-read-time timer to pause around sink calls.
    void set_span(obs::SpanTimer* span) noexcept { span_ = span; }

    /// Emit a trailing partial batch.
    void finish() {
        if (!batch_.empty())
            emit_batch();
    }

    /// Parse one line (newline and any trailing '\r' already stripped).
    void line(std::string_view line) {
        ++lineno_;
        if (line.empty())
            return;
        if (line[0] == '#')
            return; // header / comments

        const char kind = line[0];
        if (line.size() >= 2 && line[1] != ',')
            fail("malformed line");
        // a bare "R" is a legal empty record (snapshot with no entries)
        const std::string_view rest =
            line.size() >= 2 ? line.substr(2) : std::string_view();

        if (kind == 'A') {
            // resolve the attribute name here, once per definition line —
            // every record field below is a pure integer lookup
            std::string_view fields[3];
            std::size_t nfields = 0;
            const bool dangling = for_each_field(rest, [&](std::string_view f) {
                if (nfields < 3)
                    fields[nfields] = f;
                ++nfields;
            });
            if (dangling)
                fail("bad escape at end of field");
            if (nfields < 3)
                fail("malformed attribute definition");
            const std::uint32_t local = parse_local_id(fields[0]);
            const Variant::Type type  = Variant::type_from_name(fields[2]);
            const Attribute attribute =
                registry_.create(unescaped(fields[1], scratch_), type);
            ++resolutions_;
            if (local >= attrs_.size())
                attrs_.resize(local + 1);
            LocalAttr& slot = attrs_[local];
            slot.id         = attribute.id();
            slot.type       = type;
            slot.has_last   = false; // a redefinition invalidates the memo
        } else if (kind == 'R' || kind == 'G') {
            // record fields go straight into the batch's column vectors;
            // globals keep the record scratch
            const bool row = kind == 'R';
            if (row)
                batch_.begin_row();
            else
                rec_.clear();
            const auto put = [&](id_t id, const Variant& v) {
                if (row)
                    batch_.append(id, v);
                else
                    rec_.append(id, v);
            };
            // single-pass field walk: id digits, '=', value up to the next
            // unescaped ',' — no repeated scans of the same bytes
            const char* p   = rest.data();
            const char* end = p + rest.size();
            while (p < end) {
                if (*p == ',') { // empty field
                    ++p;
                    continue;
                }
                std::uint32_t local = 0;
                const char* q       = p;
                while (q < end && *q >= '0' && *q <= '9') {
                    local = local * 10 + static_cast<std::uint32_t>(*q - '0');
                    if (local >= kMaxLocalAttrId)
                        fail("attribute id out of range");
                    ++q;
                }
                if (q == p)
                    fail("malformed attribute id");
                if (q == end || *q != '=')
                    fail("missing '=' in record field");
                if (local >= attrs_.size() || attrs_[local].id == invalid_id)
                    fail("record references undefined attribute " +
                         std::to_string(local));
                LocalAttr& a  = attrs_[local];
                const char* v = ++q;
                bool escaped  = false;
                while (q < end && *q != ',') {
                    if (*q == '\\') {
                        escaped = true;
                        if (++q == end)
                            fail("bad escape at end of field");
                    }
                    ++q;
                }
                const std::string_view raw(v, static_cast<std::size_t>(q - v));
                if (a.has_last && raw == a.last_raw) {
                    put(a.id, a.last_val); // memoized repeat value
                } else {
                    std::string_view text = raw;
                    if (escaped) {
                        scratch_ = util::unescape(raw);
                        text     = scratch_;
                    }
                    const Variant val = parse_value(a.type, text);
                    put(a.id, val);
                    // memoize the raw field text for every type: equal raw
                    // bytes parse to an equal value, and numeric columns
                    // (ranks, iteration counters) repeat often too
                    a.last_raw.assign(raw.data(), raw.size());
                    a.last_val = val;
                    a.has_last = true;
                }
                p = q < end ? q + 1 : end;
            }
            if (row) {
                ++records_;
                entries_ += batch_.end_row();
                if (batch_.rows() >= cap_)
                    emit_batch();
            } else if (globals_) {
                for (const Entry& e : rec_)
                    globals_->append(e);
            }
        } else {
            fail(std::string("unknown line kind '") + kind + "'");
        }
    }

    /// Land the accumulated deltas on the global reader instruments.
    /// \a nbytes is the input actually consumed by this parse.
    void flush_metrics(std::uint64_t nbytes) const {
        iometrics::records.add(records_);
        iometrics::entries.add(entries_);
        iometrics::name_resolutions.add(resolutions_);
        iometrics::bytes.add(nbytes);
    }

private:
    void emit_batch() {
        const auto now = std::chrono::steady_clock::now();
        iometrics::batch_fill.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 fill_start_)
                .count()));
        if (span_)
            span_->pause(); // downstream pipeline time is theirs
        sink_(batch_);
        if (span_)
            span_->resume();
        batch_.clear(); // safe after a sink that moved the batch away
        fill_start_ = std::chrono::steady_clock::now();
    }

    [[noreturn]] void fail(const std::string& msg) const {
        throw std::runtime_error("calib-stream line " + std::to_string(lineno_) +
                                 ": " + msg);
    }

    std::uint32_t parse_local_id(std::string_view text) const {
        std::uint32_t id     = 0;
        const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), id);
        if (ec != std::errc() || ptr == text.data())
            fail("malformed attribute id");
        if (id >= kMaxLocalAttrId)
            fail("attribute id out of range");
        return id;
    }

    AttributeRegistry& registry_;
    IdRecord* globals_;
    const std::size_t cap_;
    const CaliReader::BatchSink& sink_;

    std::vector<LocalAttr> attrs_; ///< flat table, indexed by local id
    RecordBatch batch_;            ///< rows of the 'R' lines since the last emit
    IdRecord rec_;                 ///< reused 'G' line scratch
    std::string scratch_;          ///< reused unescape buffer
    obs::SpanTimer* span_ = nullptr;
    std::chrono::steady_clock::time_point fill_start_;

    std::size_t lineno_ = 0;
    std::uint64_t records_ = 0, entries_ = 0, resolutions_ = 0;
};

/// Walk newline-separated lines of \a text zero-copy, stripping a trailing
/// '\r' (CRLF input) from each line before handing it to \a fn.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
    const char* base    = text.data();
    const std::size_t n = text.size();
    std::size_t pos     = 0;
    while (pos < n) {
        const void* nl = std::memchr(base + pos, '\n', n - pos);
        const std::size_t eol =
            nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - base) : n;
        std::string_view line(base + pos, eol - pos);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        fn(line);
        pos = eol + 1;
    }
}

/// Name-based delivery over the batch parser: a private registry, each row
/// materialized and converted back to names.
void read_names(std::string_view text, const CaliReader::RecordSink& sink,
                RecordMap* globals) {
    AttributeRegistry registry;
    IdRecord g, row;
    CaliReader::read_buffer_batches(
        text, registry, RecordBatch::default_rows,
        [&](RecordBatch& batch) {
            for (std::size_t r = 0; r < batch.rows(); ++r) {
                batch.materialize(r, row);
                sink(to_recordmap(row, registry));
            }
        },
        globals ? &g : nullptr);
    if (globals)
        for (const Entry& e : g)
            globals->append(registry.get(e.attribute).name(), e.value);
}

} // namespace

void CaliReader::read_buffer_batches(std::string_view text,
                                     AttributeRegistry& registry,
                                     std::size_t batch_size,
                                     const BatchSink& sink, IdRecord* globals) {
    CaliParser parser(registry, globals, batch_size, sink);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);
    for_each_line(text, [&parser](std::string_view line) { parser.line(line); });
    parser.finish();
    parser.flush_metrics(text.size());
}

void CaliReader::read_file_batches(const std::string& path,
                                   AttributeRegistry& registry,
                                   std::size_t batch_size, const BatchSink& sink,
                                   IdRecord* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    read_buffer_batches(buf.view(), registry, batch_size, sink, globals);
}

void CaliReader::read(std::istream& is, const RecordSink& sink, RecordMap* globals) {
    const std::string text{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    read_names(text, sink, globals);
}

std::vector<RecordMap> CaliReader::read_all(std::istream& is, RecordMap* globals) {
    std::vector<RecordMap> out;
    read(is, [&out](RecordMap&& r) { out.push_back(std::move(r)); }, globals);
    return out;
}

std::vector<RecordMap> CaliReader::read_file(const std::string& path,
                                             RecordMap* globals) {
    std::vector<RecordMap> out;
    read_file(path, [&out](RecordMap&& r) { out.push_back(std::move(r)); }, globals);
    return out;
}

void CaliReader::read_file(const std::string& path, const RecordSink& sink,
                           RecordMap* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    read_names(buf.view(), sink, globals);
}

// -- byte-range source -------------------------------------------------------

CaliFileSource::CaliFileSource(std::string path, std::size_t target_chunk_bytes)
    : buffer_(FileBuffer::open(path)), path_(std::move(path)) {
    const std::string_view text = buffer_.view();
    const char* base            = text.data();
    const std::size_t n         = text.size();
    if (target_chunk_bytes == 0)
        target_chunk_bytes = n ? n : 1;

    // single planning pass: line-boundary chunk splits, per-chunk record
    // counts, and the offsets of every (rare) 'A'/'G' metadata line
    Chunk cur{0, 0, 1, 0};
    std::size_t lineno = 0;
    std::size_t pos    = 0;
    while (pos < n) {
        if (pos - cur.begin >= target_chunk_bytes) {
            cur.end = pos;
            chunks_.push_back(cur);
            cur = Chunk{pos, 0, lineno + 1, 0};
        }
        ++lineno;
        const void* nl = std::memchr(base + pos, '\n', n - pos);
        const std::size_t eol =
            nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - base) : n;
        std::uint32_t len = static_cast<std::uint32_t>(eol - pos);
        if (len > 0 && base[pos + len - 1] == '\r')
            --len;
        const char kind = len > 0 ? base[pos] : '\0';
        if (kind == 'R') {
            ++cur.records;
            ++num_records_;
        } else if (kind == 'A' || kind == 'G') {
            meta_.push_back(MetaLine{pos, len, lineno, kind});
        }
        pos = eol + 1;
    }
    if (n > 0) {
        cur.end = n;
        chunks_.push_back(cur);
    }
}

bool CaliFileSource::has_globals() const noexcept {
    for (const MetaLine& m : meta_)
        if (m.kind == 'G')
            return true;
    return false;
}

void CaliFileSource::read_chunk_batches(std::size_t index,
                                        AttributeRegistry& registry,
                                        std::size_t batch_size,
                                        const CaliReader::BatchSink& sink) const {
    const Chunk& chunk = chunks_.at(index);
    CaliParser parser(registry, nullptr, batch_size, sink);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);

    // replay the attribute definitions preceding this range, in file order
    // and under their original line numbers, so the chunk parses exactly as
    // a sequential scan would have ('A' lines inside the range parse
    // in-place; 'G' lines are handled once, by read_globals())
    for (const MetaLine& m : meta_) {
        if (m.offset >= chunk.begin)
            break;
        if (m.kind != 'A')
            continue;
        parser.set_lineno(m.lineno - 1);
        parser.line(std::string_view(buffer_.data() + m.offset, m.size));
    }

    parser.set_lineno(chunk.first_line - 1);
    for_each_line(std::string_view(buffer_.data() + chunk.begin,
                                   chunk.end - chunk.begin),
                  [&parser](std::string_view line) { parser.line(line); });
    parser.finish();
    // only the bytes of this range count: per-worker reader.bytes sums to
    // the file size, not workers x file size
    parser.flush_metrics(chunk.end - chunk.begin);
}

IdRecord CaliFileSource::read_globals(AttributeRegistry& registry) const {
    IdRecord globals;
    const CaliReader::BatchSink noop = [](RecordBatch&) {}; // no 'R' lines here
    CaliParser parser(registry, &globals, 1, noop);
    for (const MetaLine& m : meta_) {
        parser.set_lineno(m.lineno - 1);
        parser.line(std::string_view(buffer_.data() + m.offset, m.size));
    }
    return globals;
}

Dataset Dataset::load(const std::vector<std::string>& paths) {
    Dataset ds;
    for (const std::string& path : paths) {
        RecordMap g;
        CaliReader::read_file(path, [&ds](RecordMap&& r) {
            ds.records.push_back(std::move(r));
        }, &g);
        g.append("cali.file", Variant(std::string_view(path)));
        ds.globals.push_back(std::move(g));
    }
    return ds;
}

} // namespace calib
