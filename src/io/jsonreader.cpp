#include "jsonreader.hpp"

#include "filebuffer.hpp"
#include "json.hpp"
#include "reader_metrics.hpp"

#include <chrono>
#include <iterator>
#include <string>
#include <unordered_map>

namespace calib {

namespace {

/// Append each record of the array in \a text as one row of a batch
/// handed to \a sink every \a cap rows (plus a trailing partial batch).
/// Object keys resolve to attribute ids through a per-stream dictionary:
/// each distinct key costs one registry lookup per stream, not per record.
void parse_records(std::string_view text, AttributeRegistry& registry,
                   std::size_t cap, const std::function<void(RecordBatch&)>& sink) {
    obs::SpanTimer read_span(iometrics::read_time);
    RecordBatch batch;
    IdRecord record;
    // keys view the registry's interned names, which outlive the stream
    std::unordered_map<std::string_view, id_t> key_ids;
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
    const auto field = [&](std::string_view key, const Variant& value) {
        auto it = key_ids.find(key);
        if (it == key_ids.end()) {
            // first sighting in this stream: one registry resolution;
            // JSON carries no type declarations, so keys default to String
            const Attribute attr = registry.create(key, Variant::Type::String);
            it = key_ids.emplace(attr.name(), attr.id()).first;
            iometrics::name_resolutions.add();
        }
        record.append(it->second, value);
    };
    const auto end_record = [&]() {
        batch.append_record(record);
        iometrics::entries.add(record.size());
        iometrics::records.add();
        record.clear();
        if (batch.rows() >= cap)
            emit();
    };
    parse_json_records(text, field, end_record);
    if (!batch.empty())
        emit();
    iometrics::bytes.add(text.size());
}

void records_from(std::string_view text, const std::function<void(RecordMap&&)>& sink) {
    AttributeRegistry registry; // private dictionary, names restored below
    IdRecord row;
    const auto to_names = [&](RecordBatch& batch) {
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            batch.materialize(r, row);
            sink(to_recordmap(row, registry));
        }
    };
    parse_records(text, registry, RecordBatch::default_rows, to_names);
}

} // namespace

void read_json_file_batches(const std::string& path, AttributeRegistry& registry,
                            std::size_t batch_size,
                            const std::function<void(RecordBatch&)>& sink) {
    const FileBuffer buf = FileBuffer::open(path);
    parse_records(buf.view(), registry, batch_size ? batch_size : 1, sink);
}

void read_json_records(std::istream& is,
                       const std::function<void(RecordMap&&)>& sink) {
    const std::string text(std::istreambuf_iterator<char>(is), {});
    records_from(text, sink);
}

std::vector<RecordMap> read_json_records(std::istream& is) {
    std::vector<RecordMap> out;
    read_json_records(is, [&out](RecordMap&& r) { out.push_back(std::move(r)); });
    return out;
}

std::vector<RecordMap> read_json_records(std::string_view text) {
    std::vector<RecordMap> out;
    records_from(text, [&out](RecordMap&& r) { out.push_back(std::move(r)); });
    return out;
}

} // namespace calib
