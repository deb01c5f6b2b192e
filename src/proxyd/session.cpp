#include "session.hpp"

#include "../obs/metrics.hpp"
#include "../query/calql.hpp"
#include "../query/processor.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace calib::proxyd {

namespace {

// ingest-side instruments (see docs/OBSERVABILITY.md)
obs::Counter proxyd_frames("proxyd.frames");
obs::Counter proxyd_records("proxyd.records");
obs::Counter proxyd_bytes("proxyd.bytes");
obs::Counter proxyd_dropped_frames("proxyd.dropped_frames");
obs::Counter proxyd_protocol_errors("proxyd.protocol_errors");
obs::Counter proxyd_unknown_attrs("proxyd.unknown_attrs");
obs::Counter proxyd_queries("proxyd.queries");
obs::Timer proxyd_query_time("proxyd.query");

/// Client-local attribute ids index a per-connection table; bound them so
/// a hostile client cannot make the daemon allocate per sparse id.
constexpr std::uint32_t kMaxLocalAttrId = 1u << 20;

AggregationConfig make_config(const std::string& aggregate) {
    if (aggregate.empty()) {
        // exact mode: the stored aggregate is the input multiset —
        // every attribute is key, count tracks multiplicity
        AggregationConfig cfg;
        cfg.key = KeySpec::everything();
        cfg.ops.push_back(AggOpConfig{AggOp::Count, "", ""});
        return cfg;
    }
    const QuerySpec spec = parse_calql(aggregate);
    if (!spec.has_aggregation())
        throw std::runtime_error("aggregate clause '" + aggregate +
                                 "' has no AGGREGATE/GROUP BY");
    return spec.aggregation;
}

std::uint64_t steady_now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ------------------------------------------------------------- ProxyChannel

ProxyChannel::ProxyChannel(std::string name, const std::string& aggregate,
                           std::size_t prealloc, WindowSpec window, Clock clock)
    : name_(std::move(name)), registry_(std::make_unique<AttributeRegistry>()),
      exact_(aggregate.empty()), window_(std::move(window)),
      clock_(clock ? std::move(clock) : Clock(&steady_now_us)),
      prealloc_(prealloc), db_(make_config(aggregate), registry_.get()) {
    if (!windowed())
        db_.reserve(prealloc);
}

std::int64_t ProxyChannel::live_floor(std::uint64_t now_us) const noexcept {
    // the arrival pane of `now` is always representable: the shared
    // pane_index bound (|pane| < 2^62) holds for any uint64 µs clock
    const std::int64_t current =
        *pane_index(static_cast<double>(now_us), window_.slide());
    return current - static_cast<std::int64_t>(window_.pane_count()) + 1;
}

void ProxyChannel::fold(const IdRecord& record) {
    if (!windowed()) {
        db_.process(record);
        ++records_;
        return;
    }
    const std::uint64_t now = clock_();
    const std::int64_t pane =
        *pane_index(static_cast<double>(now), window_.slide());
    auto it = panes_.find(pane);
    if (it == panes_.end()) {
        it = panes_
                 .emplace(pane, AggregationDB(db_.config(), registry_.get()))
                 .first;
        it->second.reserve(prealloc_);
    }
    it->second.process(record);
    ++records_;
    retire_expired();
}

void ProxyChannel::retire_expired() {
    if (!windowed() || panes_.empty())
        return;
    const auto end = panes_.lower_bound(live_floor(clock_()));
    for (auto it = panes_.begin(); it != end; it = panes_.erase(it))
        ++retired_panes_;
}

std::size_t ProxyChannel::groups() const noexcept {
    if (!windowed())
        return db_.size();
    std::size_t n = 0;
    for (const auto& [idx, db] : panes_)
        n += db.size();
    return n;
}

std::size_t ProxyChannel::bytes() const noexcept {
    if (!windowed())
        return db_.bytes();
    std::size_t n = 0;
    for (const auto& [idx, db] : panes_)
        n += db.bytes();
    return n;
}

std::size_t ProxyChannel::live_panes() const noexcept {
    if (!windowed() || panes_.empty())
        return 0;
    const std::int64_t floor = live_floor(clock_());
    std::size_t n = 0;
    for (const auto& [idx, db] : panes_)
        if (idx >= floor)
            ++n;
    return n;
}

std::uint64_t ProxyChannel::live_records() const noexcept {
    if (!windowed() || panes_.empty())
        return 0;
    const std::int64_t floor = live_floor(clock_());
    std::uint64_t n = 0;
    for (const auto& [idx, db] : panes_)
        if (idx >= floor)
            n += db.num_processed();
    return n;
}

std::vector<ProxyChannel::Row> ProxyChannel::rows() const {
    std::vector<RecordMap> flushed;
    if (!windowed()) {
        flushed = db_.flush();
    } else {
        // fold the live panes (anchored at *now*, so idle time shrinks the
        // result even before the next retirement tick) into a scratch DB
        AggregationDB scratch(db_.config(), registry_.get());
        if (!panes_.empty()) {
            const std::int64_t floor = live_floor(clock_());
            for (const auto& [idx, db] : panes_)
                if (idx >= floor)
                    scratch.merge(db);
        }
        flushed = scratch.flush();
    }

    std::vector<Row> out;
    out.reserve(flushed.size());
    for (RecordMap& r : flushed) {
        Row row;
        if (exact_ && !r.empty()) {
            // the trailing entry is the count op result: the record's
            // multiplicity, not part of the original record
            row.weight = r[r.size() - 1].second.to_uint();
            row.record.reserve(r.size() - 1);
            for (std::size_t i = 0; i + 1 < r.size(); ++i)
                row.record.append(r[i].first, r[i].second);
        } else {
            row.record = std::move(r);
        }
        out.push_back(std::move(row));
    }
    return out;
}

std::string ProxyChannel::answer(std::string_view calql, bool* ok) const {
    obs::Timer::Scope query_scope(proxyd_query_time);
    proxyd_queries.add();
    try {
        QueryProcessor proc(parse_calql(calql));
        RecordMapFeeder feed(proc);
        for (const Row& row : rows())
            feed.add(row.record, row.weight);
        feed.flush();
        std::ostringstream os;
        proc.write(os);
        if (ok)
            *ok = true;
        return os.str();
    } catch (const CalQLError& e) {
        if (ok)
            *ok = false;
        return "query error at position " + std::to_string(e.position()) + ": " +
               e.what();
    } catch (const std::exception& e) {
        if (ok)
            *ok = false;
        return std::string("query failed: ") + e.what();
    }
}

// ------------------------------------------------------------ IngestSession

IngestSession::IngestSession(Hooks hooks, std::size_t max_frame_bytes)
    : hooks_(std::move(hooks)), decoder_(max_frame_bytes) {}

IngestSession::Status IngestSession::feed(const void* data, std::size_t len) {
    proxyd_bytes.add(len);
    decoder_.feed(data, len);

    net::FrameView frame;
    while (decoder_.next(frame)) {
        ++frames_;
        proxyd_frames.add();
        Status st;
        try {
            st = handle(frame);
        } catch (const std::exception& e) {
            // truncated / malformed payload (ByteReader and friends)
            st = protocol_error(std::string("malformed ") +
                                net::frame_type_name(frame.type) +
                                " frame: " + e.what());
        }
        if (st != Status::Ok)
            return st;
    }

    const std::uint64_t dropped = decoder_.dropped_frames();
    if (dropped > dropped_seen_) {
        proxyd_dropped_frames.add(dropped - dropped_seen_);
        dropped_seen_ = dropped;
    }
    return Status::Ok;
}

IngestSession::Status IngestSession::protocol_error(const std::string& message) {
    ++protocol_errors_;
    proxyd_protocol_errors.add();
    if (hooks_.respond)
        hooks_.respond(1, message);
    return Status::Error;
}

IngestSession::Status IngestSession::handle(const net::FrameView& frame) {
    switch (frame.type) {
    case net::FrameType::Hello: {
        if (hello_seen_)
            return protocol_error("duplicate hello");
        const net::HelloInfo hello = net::parse_hello(frame.payload);
        if (hello.version != net::kProtocolVersion)
            return protocol_error("unsupported protocol version " +
                                  std::to_string(hello.version));
        client_name_ = hello.client_name;
        if (!hello.channel_name.empty()) {
            channel_ = hooks_.open_channel
                           ? hooks_.open_channel(hello.channel_name,
                                                 !hello.query_only)
                           : nullptr;
            if (!channel_)
                return protocol_error(
                    hello.query_only
                        ? "no such channel '" + hello.channel_name + "'"
                        : "cannot open channel '" + hello.channel_name + "'");
            ++channel_->clients_total;
        }
        hello_seen_ = true;
        if (hooks_.respond)
            hooks_.respond(0, "calib-proxyd " +
                                  std::to_string(net::kProtocolVersion));
        return Status::Ok;
    }

    case net::FrameType::Attr: {
        if (!channel_)
            return protocol_error("attr frame before hello/channel");
        const net::AttrDef def = net::parse_attr(frame.payload);
        if (def.local_id > kMaxLocalAttrId)
            return protocol_error("attribute local id out of range");
        std::uint32_t props = def.properties;
        if (channel_->exact()) {
            // exact mode stores the record verbatim: no attribute may be
            // excluded from the implicit everything-key
            props &= ~(prop::aggregatable | prop::skip_key | prop::hidden);
        }
        const Attribute a = channel_->registry().create(def.name, def.type, props);
        if (def.local_id >= attr_by_local_.size())
            attr_by_local_.resize(def.local_id + 1, invalid_id);
        attr_by_local_[def.local_id] = a.id();
        return Status::Ok;
    }

    case net::FrameType::Records: {
        if (!channel_)
            return protocol_error("records frame before hello/channel");
        net::RecordsParser parser(frame.payload);
        for (;;) {
            scratch_.clear();
            const bool more = parser.next([&](std::uint32_t local, const Variant& v) {
                const id_t attr = local < attr_by_local_.size()
                                      ? attr_by_local_[local]
                                      : invalid_id;
                if (attr == invalid_id) {
                    ++unknown_attrs_;
                    proxyd_unknown_attrs.add();
                    return;
                }
                if (!v.empty())
                    scratch_.append(attr, v);
            });
            if (!more)
                break;
            if (join_globals_)
                for (const Entry& e : globals_)
                    if (!scratch_.contains(e.attribute))
                        scratch_.append(e.attribute, e.value);
            channel_->fold(scratch_);
            ++records_;
            proxyd_records.add();
        }
        return Status::Ok;
    }

    case net::FrameType::Globals: {
        if (!channel_)
            return protocol_error("globals frame before hello/channel");
        const net::GlobalsInfo info = net::parse_globals(frame.payload);
        globals_.clear();
        for (const auto& [local, value] : info.entries) {
            const id_t attr = local < attr_by_local_.size() ? attr_by_local_[local]
                                                            : invalid_id;
            if (attr == invalid_id) {
                ++unknown_attrs_;
                proxyd_unknown_attrs.add();
                continue;
            }
            if (!value.empty())
                globals_.set(attr, value);
        }
        join_globals_ = info.join;
        return Status::Ok;
    }

    case net::FrameType::Query: {
        if (!hello_seen_)
            return protocol_error("query before hello");
        const std::string calql = net::parse_query(frame.payload);
        if (hooks_.on_query)
            hooks_.on_query(calql);
        else if (hooks_.respond)
            hooks_.respond(1, "queries not supported on this endpoint");
        return Status::Ok;
    }

    case net::FrameType::Bye:
        return Status::Closed;

    case net::FrameType::Result:
        // daemon-to-client only
        return protocol_error("unexpected result frame from client");
    }
    return protocol_error("unknown frame type " +
                          std::to_string(static_cast<unsigned>(frame.type)));
}

} // namespace calib::proxyd
