// Tests for the calib-proxyd subsystem: the frame codec, the transport-
// free ingest session, channel semantics (exact vs reduced mode), and the
// daemon end-to-end over real sockets — including the differential
// contract that N concurrent clients streaming a corpus produce the same
// CalQL answers as an offline QueryProcessor over the concatenated
// corpus, graceful-shutdown draining, the HTTP scrape endpoint, and
// slow-client shedding.
#include "calib.hpp"

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "proxyd/daemon.hpp"
#include "proxyd/session.hpp"

#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace calib;

namespace {

std::string test_socket_path(const std::string& tag) {
    return "/tmp/calib-proxyd-test-" + tag + "-" + std::to_string(::getpid()) +
           ".sock";
}

/// Deterministic integer/string corpus (doubles excluded on purpose: the
/// byte-identity contract covers order-insensitive aggregation).
std::vector<RecordMap> make_corpus(std::size_t n, std::uint64_t seed) {
    std::vector<RecordMap> out;
    out.reserve(n);
    std::uint64_t x = seed;
    const auto next = [&x] {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    static const char* kKernels[] = {"advec", "diffuse", "halo", "reduce", "io"};
    for (std::size_t i = 0; i < n; ++i) {
        RecordMap r;
        r.append("kernel", Variant(std::string_view(kKernels[next() % 5])));
        r.append("rank", Variant(static_cast<long long>(next() % 8)));
        r.append("iter", Variant(static_cast<long long>(next() % 100)));
        r.append("val", Variant(static_cast<long long>(next() % 10000)));
        out.push_back(std::move(r));
    }
    return out;
}

/// Offline reference answer: the same engine cali-query uses.
std::string offline_answer(const std::vector<RecordMap>& corpus,
                           const std::string& calql) {
    QueryProcessor proc(parse_calql(calql));
    proc.add(corpus);
    std::ostringstream os;
    proc.write(os);
    return os.str();
}

// ------------------------------------------------------------- frame codec

TEST(ProxydFrame, RoundTripsEveryFrameType) {
    std::vector<std::byte> wire;
    net::append_hello(wire, "client-a", "chan");
    net::append_attr(wire, 7, "kernel", Variant::Type::String, prop::nested);
    std::vector<std::pair<std::uint32_t, Variant>> globals = {
        {1, Variant(42)}, {2, Variant(std::string_view("run-1"))}};
    net::append_globals(wire, true, globals);
    net::append_query(wire, "SELECT * FORMAT csv");
    net::append_result(wire, 1, "oops");
    net::append_bye(wire);

    net::FrameDecoder dec;
    dec.feed(wire.data(), wire.size());

    net::FrameView f;
    ASSERT_TRUE(dec.next(f));
    ASSERT_EQ(f.type, net::FrameType::Hello);
    const net::HelloInfo hello = net::parse_hello(f.payload);
    EXPECT_EQ(hello.version, net::kProtocolVersion);
    EXPECT_EQ(hello.client_name, "client-a");
    EXPECT_EQ(hello.channel_name, "chan");

    ASSERT_TRUE(dec.next(f));
    ASSERT_EQ(f.type, net::FrameType::Attr);
    const net::AttrDef attr = net::parse_attr(f.payload);
    EXPECT_EQ(attr.local_id, 7u);
    EXPECT_EQ(attr.name, "kernel");
    EXPECT_EQ(attr.type, Variant::Type::String);
    EXPECT_EQ(attr.properties, prop::nested);

    ASSERT_TRUE(dec.next(f));
    ASSERT_EQ(f.type, net::FrameType::Globals);
    const net::GlobalsInfo g = net::parse_globals(f.payload);
    EXPECT_TRUE(g.join);
    ASSERT_EQ(g.entries.size(), 2u);
    EXPECT_EQ(g.entries[0].second.to_int(), 42);

    ASSERT_TRUE(dec.next(f));
    ASSERT_EQ(f.type, net::FrameType::Query);
    EXPECT_EQ(net::parse_query(f.payload), "SELECT * FORMAT csv");

    ASSERT_TRUE(dec.next(f));
    ASSERT_EQ(f.type, net::FrameType::Result);
    const net::ResultInfo res = net::parse_result(f.payload);
    EXPECT_EQ(res.status, 1);
    EXPECT_EQ(res.body, "oops");

    ASSERT_TRUE(dec.next(f));
    EXPECT_EQ(f.type, net::FrameType::Bye);
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ProxydFrame, HelloCarriesQueryOnlyFlag) {
    {
        std::vector<std::byte> wire;
        net::append_hello(wire, "q", "chan", net::kHelloQueryOnly);
        net::FrameDecoder dec;
        dec.feed(wire.data(), wire.size());
        net::FrameView f;
        ASSERT_TRUE(dec.next(f));
        EXPECT_TRUE(net::parse_hello(f.payload).query_only);
    }
    {
        // a flag-free version-1 hello (no trailing byte) still parses
        std::vector<std::byte> payload;
        ByteWriter w(payload);
        w.put(net::kProtocolVersion);
        w.put_string("old");
        w.put_string("chan");
        std::vector<std::byte> wire;
        net::append_frame(wire, net::FrameType::Hello, payload);
        net::FrameDecoder dec;
        dec.feed(wire.data(), wire.size());
        net::FrameView f;
        ASSERT_TRUE(dec.next(f));
        const net::HelloInfo h = net::parse_hello(f.payload);
        EXPECT_EQ(h.channel_name, "chan");
        EXPECT_FALSE(h.query_only);
    }
}

TEST(ProxydFrame, DecodesByteAtATime) {
    std::vector<std::byte> wire;
    net::RecordsBuilder b;
    for (int i = 0; i < 10; ++i) {
        b.begin_record();
        b.entry(0, Variant(i));
        b.entry(1, Variant(std::string_view("x")));
        b.end_record();
    }
    b.frame(wire);
    net::append_bye(wire);

    net::FrameDecoder dec;
    std::size_t frames = 0, records = 0;
    for (const std::byte byte : wire) {
        dec.feed(&byte, 1);
        net::FrameView f;
        while (dec.next(f)) {
            ++frames;
            if (f.type == net::FrameType::Records) {
                net::RecordsParser p(f.payload);
                while (p.next([](std::uint32_t, const Variant&) {}))
                    ++records;
            }
        }
    }
    EXPECT_EQ(frames, 2u);
    EXPECT_EQ(records, 10u);
    EXPECT_EQ(dec.dropped_frames(), 0u);
}

TEST(ProxydFrame, ShedsOversizedFramesAndRecovers) {
    net::FrameDecoder dec(/*max_frame_bytes=*/64);

    std::vector<std::byte> wire;
    net::append_query(wire, std::string(1000, 'q')); // way past the bound
    net::append_bye(wire);

    // feed in chunks so the oversized payload streams through
    for (std::size_t i = 0; i < wire.size(); i += 17)
        dec.feed(wire.data() + i, std::min<std::size_t>(17, wire.size() - i));

    net::FrameView f;
    ASSERT_TRUE(dec.next(f)); // the oversized frame is gone, Bye survives
    EXPECT_EQ(f.type, net::FrameType::Bye);
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.dropped_frames(), 1u);
}

TEST(ProxydFrame, ParsersRejectTruncatedPayloads) {
    std::vector<std::byte> wire;
    net::append_hello(wire, "c", "ch");
    // truncate the payload but keep the header length honest
    std::vector<std::byte> cut(wire.begin(), wire.begin() + net::kHeaderBytes + 2);
    cut[0] = std::byte{2}; // payload_len = 2
    net::FrameDecoder dec;
    dec.feed(cut.data(), cut.size());
    net::FrameView f;
    ASSERT_TRUE(dec.next(f));
    EXPECT_THROW(net::parse_hello(f.payload), std::runtime_error);
}

// ----------------------------------------------------------- ingest session

namespace {

/// Drives an IngestSession directly (no sockets) against one channel.
struct SessionHarness {
    explicit SessionHarness(const std::string& aggregate = "")
        : channel("test", aggregate) {
        proxyd::IngestSession::Hooks hooks;
        hooks.open_channel = [this](const std::string&, bool) {
            return &channel;
        };
        hooks.on_query     = [this](std::string_view calql) {
            bool ok = false;
            responses.push_back(channel.answer(calql, &ok));
            statuses.push_back(ok ? 0 : 1);
        };
        hooks.respond = [this](std::uint8_t status, std::string_view body) {
            acks.emplace_back(status, std::string(body));
        };
        session = std::make_unique<proxyd::IngestSession>(std::move(hooks));
    }

    proxyd::IngestSession::Status feed(const std::vector<std::byte>& bytes) {
        return session->feed(bytes.data(), bytes.size());
    }

    proxyd::ProxyChannel channel;
    std::unique_ptr<proxyd::IngestSession> session;
    std::vector<std::string> responses;
    std::vector<int> statuses;
    std::vector<std::pair<int, std::string>> acks;
};

std::vector<std::byte> encode_corpus(const std::vector<RecordMap>& corpus,
                                     const std::string& channel) {
    std::vector<std::byte> wire;
    net::append_hello(wire, "enc", channel);
    // definitions first, then one batch (the client library interleaves)
    std::unordered_map<std::string, std::uint32_t> locals;
    for (const RecordMap& r : corpus)
        for (const auto& [name, value] : r) {
            auto [it, fresh] =
                locals.emplace(name, static_cast<std::uint32_t>(locals.size()));
            if (fresh)
                net::append_attr(wire, it->second, name, value.type(), prop::none);
        }
    net::RecordsBuilder batch;
    for (const RecordMap& r : corpus) {
        batch.begin_record();
        for (const auto& [name, value] : r)
            batch.entry(locals.at(name), value);
        batch.end_record();
    }
    batch.frame(wire);
    return wire;
}

} // namespace

TEST(ProxydSession, ExactModeKeepsMultiplicity) {
    SessionHarness h;
    std::vector<RecordMap> corpus;
    for (int i = 0; i < 6; ++i)
        corpus.push_back(test::record(
            {{"kernel", Variant(std::string_view(i < 4 ? "a" : "b"))},
             {"val", Variant(1)}}));

    ASSERT_EQ(h.feed(encode_corpus(corpus, "test")),
              proxyd::IngestSession::Status::Ok);
    EXPECT_EQ(h.channel.records(), 6u);
    EXPECT_EQ(h.channel.groups(), 2u); // two unique records

    std::uint64_t total = 0;
    for (const proxyd::ProxyChannel::Row& row : h.channel.rows())
        total += row.weight;
    EXPECT_EQ(total, 6u);

    bool ok = false;
    const std::string got =
        h.channel.answer("AGGREGATE count GROUP BY kernel ORDER BY kernel "
                         "FORMAT csv",
                         &ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(got, offline_answer(corpus, "AGGREGATE count GROUP BY kernel "
                                          "ORDER BY kernel FORMAT csv"));
}

TEST(ProxydSession, ExactModeAnswersMatchOfflineAcrossQueries) {
    SessionHarness h;
    const std::vector<RecordMap> corpus = make_corpus(500, 1);
    ASSERT_EQ(h.feed(encode_corpus(corpus, "test")),
              proxyd::IngestSession::Status::Ok);

    const char* queries[] = {
        "AGGREGATE sum(val),count,min(val),max(val) GROUP BY kernel "
        "ORDER BY kernel FORMAT csv",
        "AGGREGATE avg(val) GROUP BY kernel,rank ORDER BY kernel,rank FORMAT csv",
        "SELECT kernel,count AGGREGATE count GROUP BY kernel ORDER BY kernel "
        "FORMAT json",
        "LET v2=scale(val,2) AGGREGATE sum(v2) WHERE rank<4 GROUP BY kernel "
        "ORDER BY kernel FORMAT table",
    };
    for (const char* q : queries) {
        bool ok = false;
        EXPECT_EQ(h.channel.answer(q, &ok), offline_answer(corpus, q)) << q;
        EXPECT_TRUE(ok) << q;
    }
}

TEST(ProxydSession, ReducedModeReAggregates) {
    SessionHarness h("AGGREGATE count,sum(val) GROUP BY kernel");
    const std::vector<RecordMap> corpus = make_corpus(200, 2);
    ASSERT_EQ(h.feed(encode_corpus(corpus, "test")),
              proxyd::IngestSession::Status::Ok);
    EXPECT_FALSE(h.channel.exact());
    EXPECT_LE(h.channel.groups(), 5u); // one group per kernel

    // two-phase semantics: querying the reduced records re-aggregates
    bool ok = false;
    const std::string got = h.channel.answer(
        "AGGREGATE sum(count),sum(sum#val) GROUP BY kernel ORDER BY kernel "
        "FORMAT csv",
        &ok);
    EXPECT_TRUE(ok);
    const std::string expect = offline_answer(
        corpus, "AGGREGATE count AS sum#count,sum(val) AS sum#sum#val "
                "GROUP BY kernel ORDER BY kernel FORMAT csv");
    EXPECT_EQ(got, expect);
}

TEST(ProxydSession, GlobalsJoinOntoRecords) {
    SessionHarness h;
    std::vector<std::byte> wire;
    net::append_hello(wire, "g", "test");
    net::append_attr(wire, 0, "kernel", Variant::Type::String, prop::none);
    net::append_attr(wire, 1, "mpi.rank", Variant::Type::Int, prop::none);
    std::vector<std::pair<std::uint32_t, Variant>> globals = {{1, Variant(3)}};
    net::append_globals(wire, true, globals);
    net::RecordsBuilder b;
    b.begin_record();
    b.entry(0, Variant(std::string_view("k")));
    b.end_record();
    b.frame(wire);
    ASSERT_EQ(h.feed(wire), proxyd::IngestSession::Status::Ok);

    const auto rows = h.channel.rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].record.get("mpi.rank").to_int(), 3);
    EXPECT_EQ(rows[0].record.get("kernel").to_string(), "k");
}

TEST(ProxydSession, MalformedFramesAreProtocolErrors) {
    SessionHarness h;
    std::vector<std::byte> wire;
    net::append_hello(wire, "m", "test");
    // a Records frame with a lying entry count -> truncated payload
    {
        std::vector<std::byte> payload;
        ByteWriter w(payload);
        w.put(std::uint32_t{1});  // one record
        w.put(std::uint32_t{99}); // of 99 entries (absent)
        net::append_frame(wire, net::FrameType::Records, payload);
    }
    EXPECT_EQ(h.feed(wire), proxyd::IngestSession::Status::Error);
    EXPECT_EQ(h.session->protocol_errors(), 1u);
    ASSERT_EQ(h.acks.size(), 2u); // hello ack + error
    EXPECT_EQ(h.acks[1].first, 1);
}

TEST(ProxydSession, RejectsWrongVersionAndDuplicateHello) {
    {
        SessionHarness h;
        std::vector<std::byte> wire;
        std::vector<std::byte> payload;
        ByteWriter w(payload);
        w.put(std::uint32_t{999});
        w.put_string("old");
        w.put_string("test");
        net::append_frame(wire, net::FrameType::Hello, payload);
        EXPECT_EQ(h.feed(wire), proxyd::IngestSession::Status::Error);
    }
    {
        SessionHarness h;
        std::vector<std::byte> wire;
        net::append_hello(wire, "a", "test");
        net::append_hello(wire, "a", "test");
        EXPECT_EQ(h.feed(wire), proxyd::IngestSession::Status::Error);
    }
}

TEST(ProxydSession, UnknownLocalAttrIdsAreCountedNotFatal) {
    SessionHarness h;
    std::vector<std::byte> wire;
    net::append_hello(wire, "u", "test");
    net::append_attr(wire, 0, "kernel", Variant::Type::String, prop::none);
    net::RecordsBuilder b;
    b.begin_record();
    b.entry(0, Variant(std::string_view("k")));
    b.entry(12345, Variant(1)); // never defined
    b.end_record();
    b.frame(wire);
    ASSERT_EQ(h.feed(wire), proxyd::IngestSession::Status::Ok);
    EXPECT_EQ(h.session->unknown_attrs(), 1u);
    const auto rows = h.channel.rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].record.size(), 1u); // the unknown entry was skipped
}

// ------------------------------------------------------------------- daemon

TEST(ProxydDaemon, ConcurrentClientsMatchOfflineByteForByte) {
    const std::string sock = test_socket_path("diff");
    proxyd::DaemonOptions opts;
    opts.listen = sock;
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    constexpr std::size_t kClients         = 4;
    constexpr std::size_t kRecordsPerShard = 400;
    std::vector<std::vector<RecordMap>> shards;
    std::vector<RecordMap> corpus;
    for (std::size_t c = 0; c < kClients; ++c) {
        shards.push_back(make_corpus(kRecordsPerShard, 100 + c));
        for (const RecordMap& r : shards.back())
            corpus.push_back(r);
    }

    std::vector<std::thread> pushers;
    for (std::size_t c = 0; c < kClients; ++c)
        pushers.emplace_back([&, c] {
            net::ProxyClient::Options copts;
            copts.address       = sock;
            copts.channel       = "diff";
            copts.client_name   = "pusher-" + std::to_string(c);
            copts.batch_records = 64; // force several Records frames
            net::ProxyClient client(copts);
            client.push(shards[c]);
            // a query acks only after this connection's records folded in
            client.query("AGGREGATE count FORMAT csv");
            client.close();
        });
    for (std::thread& t : pushers)
        t.join();

    const char* queries[] = {
        "AGGREGATE sum(val),count,min(val),max(val) GROUP BY kernel "
        "ORDER BY kernel FORMAT csv",
        "AGGREGATE count GROUP BY kernel,rank ORDER BY kernel,rank FORMAT json",
        "AGGREGATE avg(val) GROUP BY rank ORDER BY rank FORMAT table",
    };
    net::ProxyClient::Options qopts;
    qopts.address     = sock;
    qopts.channel     = "diff";
    qopts.client_name = "query";
    net::ProxyClient query_client(qopts);
    for (const char* q : queries)
        EXPECT_EQ(query_client.query(q), offline_answer(corpus, q)) << q;
    query_client.close();

    daemon.stop();
    loop.join();
    EXPECT_EQ(daemon.stats().records, kClients * kRecordsPerShard);
    EXPECT_EQ(daemon.stats().shed_connections, 0u);
}

TEST(ProxydDaemon, GracefulShutdownDrainsBufferedRecords) {
    const std::string sock = test_socket_path("drain");
    proxyd::DaemonOptions opts;
    opts.listen = sock;
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    const std::vector<RecordMap> corpus = make_corpus(3000, 7);
    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "drain";
        net::ProxyClient client(copts);
        client.push(corpus);
        client.close(); // flush + Bye; no ack awaited
    }
    // stop immediately: the drain must still fold everything in flight
    daemon.stop();
    loop.join();
    EXPECT_EQ(daemon.stats().records, corpus.size());

    // final flush file answers like the offline corpus (count expanded)
    test::TempDir dir("proxyd-drain");
    daemon.write_flush_files(dir.file("%c.cali"));
    std::uint64_t total = 0;
    CaliReader::read_file(dir.file("drain.cali"), [&](RecordMap&& rec) {
        ASSERT_TRUE(rec.contains("count"));
        total += rec.get("count").to_uint();
    });
    EXPECT_EQ(total, corpus.size());
}

TEST(ProxydDaemon, FlushMergesExistingCountColumn) {
    // records that already carry a numeric count column (e.g. the
    // aggregate service's output) must not gain a duplicate count field
    // on flush — the multiplicity merges in multiplicatively
    proxyd::DaemonOptions opts;
    proxyd::ProxyDaemon daemon(opts);
    proxyd::ProxyChannel* ch = daemon.channel("merge");
    ASSERT_NE(ch, nullptr);

    AttributeRegistry& reg = ch->registry();
    const Attribute kernel =
        reg.create("kernel", Variant::Type::String, prop::none);
    const Attribute count = reg.create("count", Variant::Type::UInt, prop::none);
    IdRecord rec;
    rec.append(kernel.id(), Variant(std::string_view("k")));
    rec.append(count.id(), Variant(2ull));
    ch->fold(rec);
    ch->fold(rec); // identical record: multiplicity 2
    IdRecord rec2;
    rec2.append(kernel.id(), Variant(std::string_view("k2")));
    rec2.append(count.id(), Variant(3ull));
    ch->fold(rec2);

    test::TempDir dir("proxyd-merge");
    daemon.write_flush_files(dir.file("%c.cali"));

    std::uint64_t k_count = 0, k2_count = 0, records = 0;
    CaliReader::read_file(dir.file("merge.cali"), [&](RecordMap&& r) {
        ++records;
        ASSERT_TRUE(r.contains("kernel"));
        ASSERT_TRUE(r.contains("count"));
        (r.get("kernel").to_string() == "k" ? k_count : k2_count) +=
            r.get("count").to_uint();
    });
    EXPECT_EQ(records, 2u);  // one per unique record
    EXPECT_EQ(k_count, 4u);  // count 2 x multiplicity 2
    EXPECT_EQ(k2_count, 3u); // count 3 x multiplicity 1
}

TEST(ProxydDaemon, FlushKeepsCountsThatCannotMerge) {
    // a count merges into the multiplicity only when the product is an
    // exact uint64; an overflowing, fractional or negative count is written
    // out `weight` times instead, so sum(count) over the flush file still
    // equals sum(count) over the pushed records
    proxyd::DaemonOptions opts;
    proxyd::ProxyDaemon daemon(opts);
    proxyd::ProxyChannel* ch = daemon.channel("odd");
    ASSERT_NE(ch, nullptr);

    AttributeRegistry& reg = ch->registry();
    const Attribute kernel =
        reg.create("kernel", Variant::Type::String, prop::none);
    const Attribute count = reg.create("count", Variant::Type::UInt, prop::none);
    std::vector<RecordMap> corpus;
    const auto push = [&](const char* k, const Variant& c, int times) {
        IdRecord rec;
        rec.append(kernel.id(), Variant(std::string_view(k)));
        rec.append(count.id(), c);
        for (int i = 0; i < times; ++i) {
            ch->fold(rec);
            corpus.push_back(to_recordmap(rec, reg));
        }
    };
    push("huge", Variant(1ull << 63), 2);
    push("half", Variant(2.5), 3);
    push("neg", Variant(-3LL), 2);

    test::TempDir dir("proxyd-odd");
    daemon.write_flush_files(dir.file("%c.cali"));
    std::vector<RecordMap> flushed;
    CaliReader::read_file(dir.file("odd.cali"),
                          [&](RecordMap&& r) { flushed.push_back(std::move(r)); });
    EXPECT_EQ(flushed.size(), 7u); // nothing merged

    const std::string q =
        "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel FORMAT csv";
    const std::string want = offline_answer(corpus, q);
    EXPECT_EQ(offline_answer(flushed, q), want);
    EXPECT_NE(want.find("1.84467440737e+19"), std::string::npos) << want;
    EXPECT_NE(want.find("7.5"), std::string::npos) << want;
    EXPECT_NE(want.find("-6"), std::string::npos) << want;
}

TEST(ProxydDaemon, HttpScrapeServesMetricsAndHealth) {
    const std::string sock = test_socket_path("http");
    proxyd::DaemonOptions opts;
    opts.listen = sock;
    opts.http   = "127.0.0.1:0";
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    const std::string http_addr = daemon.http_address();
    ASSERT_FALSE(http_addr.empty());
    std::thread loop([&] { daemon.run(); });

    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "web";
        net::ProxyClient client(copts);
        client.push(make_corpus(50, 3));
        client.query("AGGREGATE count FORMAT csv"); // ensure folded
        client.close();
    }

    const auto http_get = [&](const std::string& path) {
        net::Socket s = net::connect_to(http_addr);
        const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
        EXPECT_TRUE(s.send_all(req.data(), req.size()));
        std::string response;
        char buf[4096];
        ssize_t n;
        while ((n = s.recv_some(buf, sizeof(buf))) > 0)
            response.append(buf, static_cast<std::size_t>(n));
        return response;
    };

    const std::string metrics = http_get("/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("calib_proxyd_records_total"), std::string::npos);
    EXPECT_NE(metrics.find("calib_channel_records_total{channel=\"web\"} 50"),
              std::string::npos);
    EXPECT_NE(metrics.find("calib_data_"), std::string::npos);

    const std::string health = http_get("/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    EXPECT_NE(http_get("/nope").find("404"), std::string::npos);

    daemon.stop();
    loop.join();
    EXPECT_GE(daemon.stats().http_requests, 3u);
}

TEST(ProxydDaemon, ShedsSlowReaders) {
    const std::string sock = test_socket_path("shed");
    proxyd::DaemonOptions opts;
    opts.listen       = sock;
    opts.max_tx_bytes = 256; // tiny outbound bound
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    bool rejected = false;
    try {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "shed";
        net::ProxyClient client(copts);
        client.push(make_corpus(2000, 5));
        // the full-table result exceeds the outbound bound: the daemon
        // sheds this connection instead of buffering it
        client.query("SELECT * FORMAT csv");
        client.close();
    } catch (const std::exception&) {
        rejected = true;
    }
    EXPECT_TRUE(rejected);

    daemon.stop();
    loop.join();
    EXPECT_EQ(daemon.stats().shed_connections, 1u);
}

TEST(ProxydDaemon, GarbageConnectionIsRejectedCleanly) {
    const std::string sock = test_socket_path("garbage");
    proxyd::DaemonOptions opts;
    opts.listen = sock;
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    {
        net::Socket s = net::connect_to(sock);
        // a 16 byte "frame" of type 0xff full of garbage
        unsigned char junk[net::kHeaderBytes + 16] = {16, 0, 0, 0, 0xff};
        std::memset(junk + net::kHeaderBytes, 0xab, 16);
        ASSERT_TRUE(s.send_all(junk, sizeof(junk)));
        char buf[512];
        while (s.recv_some(buf, sizeof(buf)) > 0)
            ; // daemon responds with an error result, then closes
    }

    // the daemon is still healthy: a well-behaved client works
    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "ok";
        net::ProxyClient client(copts);
        client.push(make_corpus(10, 9));
        EXPECT_FALSE(client.query("AGGREGATE count FORMAT csv").empty());
        client.close();
    }

    daemon.stop();
    loop.join();
}

TEST(ProxydDaemon, QueryOnlyHelloNeverCreatesChannels) {
    const std::string sock = test_socket_path("qonly");
    proxyd::DaemonOptions opts;
    opts.listen = sock;
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    const std::vector<RecordMap> corpus = make_corpus(20, 13);
    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "real";
        net::ProxyClient client(copts);
        client.push(corpus);
        client.query("AGGREGATE count FORMAT csv"); // ensure folded
        client.close();
    }

    // a typo'd channel is a handshake error, not a fresh empty channel
    bool rejected = false;
    try {
        net::ProxyClient::Options qopts;
        qopts.address    = sock;
        qopts.channel    = "reall";
        qopts.query_only = true;
        net::ProxyClient q(qopts);
    } catch (const std::exception& e) {
        rejected = true;
        EXPECT_NE(std::string(e.what()).find("no such channel"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(rejected);

    // query-only against the fed channel answers normally
    {
        net::ProxyClient::Options qopts;
        qopts.address    = sock;
        qopts.channel    = "real";
        qopts.query_only = true;
        net::ProxyClient q(qopts);
        const std::string calql = "AGGREGATE count GROUP BY kernel "
                                  "ORDER BY kernel FORMAT csv";
        EXPECT_EQ(q.query(calql), offline_answer(corpus, calql));
        q.close();
    }

    daemon.stop();
    loop.join();
    ASSERT_EQ(daemon.channels().size(), 1u);
    EXPECT_EQ(daemon.channels()[0]->name(), "real");
}

TEST(ProxydDaemon, ScrapeDisambiguatesCollidingLabelNames) {
    proxyd::DaemonOptions opts;
    proxyd::ProxyDaemon daemon(opts); // no sockets needed for scrape_text
    proxyd::ProxyChannel* ch = daemon.channel("labels");
    ASSERT_NE(ch, nullptr);

    AttributeRegistry& reg = ch->registry();
    const Attribute dotted = reg.create("a.b", Variant::Type::String, prop::none);
    const Attribute flat   = reg.create("a_b", Variant::Type::String, prop::none);
    const Attribute value  = reg.create("val", Variant::Type::Int, prop::none);
    IdRecord rec;
    rec.append(dotted.id(), Variant(std::string_view("x")));
    rec.append(flat.id(), Variant(std::string_view("y")));
    rec.append(value.id(), Variant(1));
    ch->fold(rec);

    // 'a.b' and 'a_b' both sanitize to label name a_b; the series must
    // carry two distinct label names, not a duplicate
    const std::string text = daemon.scrape_text();
    EXPECT_NE(text.find("a_b=\""), std::string::npos) << text;
    EXPECT_NE(text.find("a_b_2=\""), std::string::npos) << text;
}

TEST(ProxydDaemon, ScrapeExportsPrometheusHistogramSeries) {
    obs::set_enabled(true);
    static obs::Histogram hist("test.scrape_hist_ns");
    hist.reset();
    hist.record(0);
    hist.record(1);
    hist.record(3);
    hist.record(100);
    obs::set_enabled(false);

    proxyd::DaemonOptions opts;
    proxyd::ProxyDaemon daemon(opts); // no sockets needed for scrape_text
    const std::string text = daemon.scrape_text();

    // cumulative _bucket series with log2 le bounds, +Inf catch-all,
    // then _sum/_count — the proper Prometheus histogram shape
    const char* expected[] = {
        "# TYPE calib_test_scrape_hist_ns histogram\n",
        "calib_test_scrape_hist_ns_bucket{le=\"0\"} 1\n",    // the value 0
        "calib_test_scrape_hist_ns_bucket{le=\"1\"} 2\n",    // + value 1
        "calib_test_scrape_hist_ns_bucket{le=\"3\"} 3\n",    // + value 3
        "calib_test_scrape_hist_ns_bucket{le=\"63\"} 3\n",   // empty gap bucket
        "calib_test_scrape_hist_ns_bucket{le=\"127\"} 4\n",  // + value 100
        "calib_test_scrape_hist_ns_bucket{le=\"+Inf\"} 4\n",
        "calib_test_scrape_hist_ns_sum 104\n",
        "calib_test_scrape_hist_ns_count 4\n",
    };
    for (const char* line : expected)
        EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
}

TEST(ProxydDaemon, TcpIngestWorksLikeUnix) {
    proxyd::DaemonOptions opts;
    opts.listen = "127.0.0.1:0";
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    const std::string addr = daemon.ingest_address();
    ASSERT_FALSE(addr.empty());
    std::thread loop([&] { daemon.run(); });

    const std::vector<RecordMap> corpus = make_corpus(100, 11);
    net::ProxyClient::Options copts;
    copts.address = addr;
    copts.channel = "tcp";
    net::ProxyClient client(copts);
    client.push(corpus);
    const std::string q = "AGGREGATE count GROUP BY kernel ORDER BY kernel "
                          "FORMAT csv";
    EXPECT_EQ(client.query(q), offline_answer(corpus, q));
    client.close();

    daemon.stop();
    loop.join();
}
namespace {

/// make_corpus rows mixed into 5000 pushes of one record — more than a
/// batch holds, so exact-mode answers used to replay one stored row
/// across batch boundaries; now it is one row of weight 5000.
std::vector<RecordMap> hot_record_input() {
    const std::vector<RecordMap> others = make_corpus(250, 9);
    const RecordMap hot = test::record({{"kernel", Variant(std::string_view("halo"))},
                                        {"rank", Variant(3LL)},
                                        {"iter", Variant(7LL)},
                                        {"val", Variant(250LL)}});
    std::vector<RecordMap> out;
    for (std::size_t i = 0; i < 5000; ++i) {
        out.push_back(hot);
        if (i % 20 == 0)
            out.push_back(others[i / 20]);
    }
    return out;
}

/// The answer the stored rows give when each is replayed copy by copy
/// (the reference for weighted rows, in the channel's own row order, so
/// floating-point folds see the same sequence).
std::string expanded_answer(const proxyd::ProxyChannel& ch, const std::string& q) {
    QueryProcessor proc(parse_calql(q));
    RecordMapFeeder feed(proc);
    for (const proxyd::ProxyChannel::Row& row : ch.rows())
        for (std::uint64_t i = 0; i < row.weight; ++i)
            feed.add(row.record);
    feed.flush();
    std::ostringstream os;
    proc.write(os);
    return os.str();
}

/// Every op (integer and double inputs), a window and a LIMIT: each must
/// answer from weighted rows exactly as from the expanded rows.
const char* const kWeightedQueries[] = {
    "LET d=scale(val,0.37) AGGREGATE count,sum(val),sum(d),min(val),max(d),"
    "avg(d),variance(d),histogram(val),percent_total(d) GROUP BY kernel "
    "ORDER BY kernel FORMAT csv",
    "AGGREGATE avg(val),variance(val),percent_total(val),min(iter),max(val) "
    "GROUP BY rank ORDER BY rank FORMAT csv",
    "AGGREGATE count,sum(val) WINDOW 40 BY iter SLIDE 10 GROUP BY kernel "
    "ORDER BY kernel FORMAT csv",
    "AGGREGATE count,sum(val) GROUP BY kernel,rank ORDER BY count DESC "
    "LIMIT 5 FORMAT csv",
    "SELECT kernel,rank,val WHERE rank=3 ORDER BY val DESC LIMIT 12 "
    "FORMAT csv",
};

} // namespace

TEST(ProxydSession, ReplayAcrossBatchBoundariesMatchesOffline) {
    const std::vector<RecordMap> input = hot_record_input();
    const char* queries[] = {
        "LET v2=scale(val,2) AGGREGATE count,sum(v2) WHERE rank<6 "
        "GROUP BY kernel,rank ORDER BY kernel,rank FORMAT csv",
        "SELECT kernel,rank,val WHERE val>100 ORDER BY kernel,rank,val "
        "FORMAT csv",
    };

    SessionHarness h;
    ASSERT_EQ(h.feed(encode_corpus(input, "test")),
              proxyd::IngestSession::Status::Ok);
    std::uint64_t hot_weight = 0;
    for (const proxyd::ProxyChannel::Row& row : h.channel.rows())
        hot_weight = std::max(hot_weight, row.weight);
    ASSERT_GE(hot_weight, 5000u) << "one stored row must outweigh a batch";
    for (const char* q : queries) {
        bool ok = false;
        EXPECT_EQ(h.channel.answer(q, &ok), offline_answer(input, q)) << q;
        EXPECT_TRUE(ok) << q;
    }
    for (const char* q : kWeightedQueries) {
        bool ok = false;
        EXPECT_EQ(h.channel.answer(q, &ok), expanded_answer(h.channel, q)) << q;
        EXPECT_TRUE(ok) << q;
    }

    // windowed channel: one arrival per microsecond, 2ms window in 500us
    // panes; the live panes hold well over a batch of hot copies
    std::uint64_t now = 0;
    WindowSpec w;
    w.duration_us = 2000;
    w.slide_us    = 500;
    proxyd::ProxyChannel ch("w", "", 64, w, [&now] { return now; });
    AttributeRegistry& reg = ch.registry();
    for (std::size_t i = 0; i < input.size(); ++i) {
        now = i;
        IdRecord rec;
        for (const auto& [name, value] : input[i])
            rec.append(reg.create(name, value.type()).id(), value);
        ch.fold(rec);
    }
    const std::int64_t floor =
        static_cast<std::int64_t>(now / 500) - static_cast<std::int64_t>(w.pane_count()) + 1;
    const std::vector<RecordMap> live(input.begin() + floor * 500, input.end());
    ASSERT_GT(live.size(), 1024u);
    for (const char* q : queries) {
        bool ok = false;
        EXPECT_EQ(ch.answer(q, &ok), offline_answer(live, q)) << q;
        EXPECT_TRUE(ok) << q;
    }
    for (const char* q : kWeightedQueries) {
        bool ok = false;
        EXPECT_EQ(ch.answer(q, &ok), expanded_answer(ch, q)) << q;
        EXPECT_TRUE(ok) << q;
    }

    // reduced mode: rows are aggregates of weight 1, re-aggregated
    SessionHarness reduced("AGGREGATE count,sum(val) GROUP BY kernel");
    ASSERT_EQ(reduced.feed(encode_corpus(input, "test")),
              proxyd::IngestSession::Status::Ok);
    for (const proxyd::ProxyChannel::Row& row : reduced.channel.rows())
        EXPECT_EQ(row.weight, 1u);
    bool ok = false;
    EXPECT_EQ(reduced.channel.answer("AGGREGATE sum(count),sum(sum#val) "
                                     "GROUP BY kernel ORDER BY kernel FORMAT csv",
                                     &ok),
              offline_answer(input, "AGGREGATE count AS sum#count,sum(val) AS "
                                    "sum#sum#val GROUP BY kernel ORDER BY kernel "
                                    "FORMAT csv"));
    EXPECT_TRUE(ok);
}

TEST(ProxydSession, WeightedOverflowRowsFoldOnce) {
    // records with different attribute sets: "extra" is defined before
    // "val" but missing from the first stored row, so in the answer's
    // batch every row carrying it lists its fields out of column order and
    // becomes an overflow row, which folds through the record path
    proxyd::ProxyChannel ch("mixed", "");
    AttributeRegistry& reg = ch.registry();
    const id_t kernel = reg.create("kernel", Variant::Type::String).id();
    const id_t rank   = reg.create("rank", Variant::Type::Int).id();
    const id_t extra  = reg.create("extra", Variant::Type::Double).id();
    const id_t val    = reg.create("val", Variant::Type::Int).id();
    const char* kernels[] = {"advec", "halo", "io"};
    std::uint64_t pushed = 0;
    for (int k = 0; k < 3; ++k)
        for (int r = 0; r < 4; ++r) {
            IdRecord plain, wide;
            plain.append(kernel, Variant(std::string_view(kernels[k])));
            plain.append(rank, Variant(static_cast<long long>(r)));
            plain.append(val, Variant(static_cast<long long>(10 * r + k)));
            wide = plain;
            wide.append(extra, Variant(0.1 * r + k));
            for (int i = 0; i < 300 * (r + 1); ++i, ++pushed)
                ch.fold(plain);
            for (int i = 0; i < 7 * (k + 1); ++i, ++pushed)
                ch.fold(wide);
        }
    const std::vector<proxyd::ProxyChannel::Row> rows = ch.rows();
    ASSERT_EQ(rows.size(), 24u);
    ASSERT_FALSE(rows.front().record.contains("extra"));

    const char* queries[] = {
        "AGGREGATE count,sum(val),sum(extra),avg(extra),variance(extra),"
        "min(extra),max(val),histogram(val),percent_total(extra) "
        "GROUP BY kernel ORDER BY kernel FORMAT csv",
        "AGGREGATE count GROUP BY * ORDER BY kernel,rank,extra FORMAT csv",
        "SELECT kernel,rank,extra WHERE extra>1 ORDER BY extra FORMAT csv",
    };
    for (const char* q : queries) {
        bool ok = false;
        EXPECT_EQ(ch.answer(q, &ok), expanded_answer(ch, q)) << q;
        EXPECT_TRUE(ok) << q;
    }

    // an aggregation answer probes each stored row once, not once per copy
    obs::set_enabled(true);
    const std::int64_t before = obs::MetricsRegistry::instance().value("aggdb.lookups");
    bool ok = false;
    const std::string counted =
        ch.answer("AGGREGATE count GROUP BY kernel FORMAT csv", &ok);
    const std::int64_t lookups =
        obs::MetricsRegistry::instance().value("aggdb.lookups") - before;
    obs::set_enabled(false);
    EXPECT_TRUE(ok);
    EXPECT_EQ(lookups, static_cast<std::int64_t>(rows.size()));
    EXPECT_LT(static_cast<std::uint64_t>(lookups), pushed);
}

// --------------------------------------------------------- windowed channels

TEST(ProxydWindow, TrailingWindowAnswersMatchOfflineSubset) {
    // injectable clock: pane assignment is arrival time, fully test-driven
    std::uint64_t now = 0;
    WindowSpec w;
    w.duration_us = 1000; // 1ms window, 500us panes
    w.slide_us    = 500;
    proxyd::ProxyChannel ch("w", "", 64, w, [&now] { return now; });
    ASSERT_TRUE(ch.windowed());

    const std::vector<RecordMap> corpus = make_corpus(60, 3);
    AttributeRegistry& reg              = ch.registry();
    std::vector<RecordMap> live;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        now = i * 100; // one record per 100us: 5 per pane
        IdRecord rec;
        for (const auto& [name, value] : corpus[i])
            rec.append(reg.create(name, value.type()).id(), value);
        ch.fold(rec);
    }
    // arrival times 0..5900; final pane = floor(5900/500) = 11; the live
    // window covers panes {10, 11} = arrivals in [5000, 5900]
    for (std::size_t i = 0; i < corpus.size(); ++i)
        if (i * 100 >= 5000)
            live.push_back(corpus[i]);

    EXPECT_EQ(ch.records(), corpus.size());
    EXPECT_EQ(ch.live_panes(), 2u);
    EXPECT_GT(ch.retired_panes(), 0u);

    const char* q = "AGGREGATE sum(val),count GROUP BY kernel "
                    "ORDER BY kernel FORMAT csv";
    bool ok = false;
    EXPECT_EQ(ch.answer(q, &ok), offline_answer(live, q));
    EXPECT_TRUE(ok);

    std::uint64_t total = 0;
    for (const proxyd::ProxyChannel::Row& row : ch.rows())
        total += row.weight;
    EXPECT_EQ(total, live.size());
}

TEST(ProxydWindow, IdlePeriodExpiresDataWithoutTraffic) {
    std::uint64_t now = 0;
    WindowSpec w;
    w.duration_us = 1000;
    proxyd::ProxyChannel ch("w", "", 64, w, [&now] { return now; });

    AttributeRegistry& reg = ch.registry();
    IdRecord rec;
    rec.append(reg.create("kernel", Variant::Type::String).id(),
               Variant(std::string_view("k")));
    ch.fold(rec);
    EXPECT_EQ(ch.live_panes(), 1u);
    EXPECT_EQ(ch.live_records(), 1u);
    EXPECT_FALSE(ch.rows().empty());

    // idle: no folds, the clock just advances past the window. The live
    // view (anchored at now) empties immediately...
    now = 5000;
    EXPECT_EQ(ch.live_panes(), 0u);
    EXPECT_EQ(ch.live_records(), 0u);
    EXPECT_TRUE(ch.rows().empty());
    bool ok = false;
    EXPECT_EQ(ch.answer("AGGREGATE count FORMAT csv", &ok),
              offline_answer({}, "AGGREGATE count FORMAT csv"));
    EXPECT_TRUE(ok);

    // ...and retirement (the daemon's timer tick) frees the pane memory
    EXPECT_GT(ch.groups(), 0u); // pane still held before the tick
    ch.retire_expired();
    EXPECT_EQ(ch.groups(), 0u);
    EXPECT_EQ(ch.retired_panes(), 1u);
    EXPECT_EQ(ch.records(), 1u); // the lifetime counter is cumulative
}

TEST(ProxydWindow, DaemonTimerRetiresIdlePanes) {
    // real daemon, real clock: the timerfd must retire panes during an
    // idle period with no connections driving the epoll loop
    const std::string sock = test_socket_path("winretire");
    proxyd::DaemonOptions opts;
    opts.listen    = sock;
    opts.window_us = 100000; // 100ms window, 50ms panes
    opts.slide_us  = 50000;
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "win";
        net::ProxyClient client(copts);
        client.push(make_corpus(50, 9));
        client.query("AGGREGATE count FORMAT csv"); // ack: records folded
        client.close();
    }
    // idle well past the window; the timer fires every 50ms slide tick
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    daemon.stop();
    loop.join();

    proxyd::ProxyChannel* ch = daemon.channel("win", false);
    ASSERT_NE(ch, nullptr);
    EXPECT_EQ(ch->records(), 50u);       // folded...
    EXPECT_EQ(ch->groups(), 0u);         // ...but retired while idle
    EXPECT_GT(ch->retired_panes(), 0u);
    EXPECT_EQ(ch->live_panes(), 0u);
}

TEST(ProxydWindow, DrainKeepsFinalPaneFlush) {
    // SIGTERM-style drain with a window wide enough that nothing expired:
    // the flush file must carry the full live pane contents
    const std::string sock = test_socket_path("winflush");
    proxyd::DaemonOptions opts;
    opts.listen    = sock;
    opts.window_us = 10000000; // 10s: everything stays live
    proxyd::ProxyDaemon daemon(opts);
    daemon.start();
    std::thread loop([&] { daemon.run(); });

    const std::vector<RecordMap> corpus = make_corpus(300, 11);
    {
        net::ProxyClient::Options copts;
        copts.address = sock;
        copts.channel = "flush";
        net::ProxyClient client(copts);
        client.push(corpus);
        client.close(); // Bye without awaiting an ack: drain folds the rest
    }
    daemon.stop();
    loop.join();
    EXPECT_EQ(daemon.stats().records, corpus.size());

    test::TempDir dir("proxyd-winflush");
    daemon.write_flush_files(dir.file("%c.cali"));
    std::uint64_t total = 0;
    CaliReader::read_file(dir.file("flush.cali"), [&](RecordMap&& rec) {
        ASSERT_TRUE(rec.contains("count"));
        total += rec.get("count").to_uint();
    });
    EXPECT_EQ(total, corpus.size());
}

TEST(ProxydWindow, ScrapeExportsWindowGauges) {
    proxyd::DaemonOptions opts;
    opts.window_us = 2000000; // 2s window, 1s panes
    opts.slide_us  = 1000000;
    proxyd::ProxyDaemon daemon(opts);
    proxyd::ProxyChannel* ch = daemon.channel("wg");
    ASSERT_NE(ch, nullptr);
    ASSERT_TRUE(ch->windowed());

    AttributeRegistry& reg = ch->registry();
    IdRecord rec;
    rec.append(reg.create("kernel", Variant::Type::String).id(),
               Variant(std::string_view("k")));
    ch->fold(rec);

    const std::string scrape = daemon.scrape_text();
    EXPECT_NE(scrape.find("calib_channel_window_seconds{channel=\"wg\"} 2"),
              std::string::npos);
    EXPECT_NE(
        scrape.find("calib_channel_window_slide_seconds{channel=\"wg\"} 1"),
        std::string::npos);
    EXPECT_NE(
        scrape.find("calib_channel_window_live_panes{channel=\"wg\"} 1"),
        std::string::npos);
    EXPECT_NE(
        scrape.find("calib_channel_window_live_records{channel=\"wg\"} 1"),
        std::string::npos);
    EXPECT_NE(scrape.find(
                  "calib_channel_window_retired_panes_total{channel=\"wg\"} 0"),
              std::string::npos);
}

TEST(ProxydWindow, DaemonRejectsBadWindowOptions) {
    {
        proxyd::DaemonOptions opts;
        opts.listen   = test_socket_path("winbad1");
        opts.slide_us = 1000; // SLIDE without WINDOW
        proxyd::ProxyDaemon daemon(opts);
        EXPECT_THROW(daemon.start(), std::runtime_error);
    }
    {
        proxyd::DaemonOptions opts;
        opts.listen    = test_socket_path("winbad2");
        opts.window_us = 1000;
        opts.slide_us  = 2000; // slide larger than the window
        proxyd::ProxyDaemon daemon(opts);
        EXPECT_THROW(daemon.start(), std::runtime_error);
    }
}

} // namespace
