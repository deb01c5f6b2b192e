// Tests for the JSON record reader and the call-path export service.
#include "calib.hpp"
#include "io/json.hpp"
#include "io/jsonreader.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

using namespace calib;
using calib::test::find_record;

// --- JSON reader --------------------------------------------------------------

TEST(JsonReader, ParsesFlatObjects) {
    auto records = read_json_records(
        R"([{"kernel": "advec", "count": 3, "t": 1.5, "on": true}])");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].get("kernel"), Variant("advec"));
    EXPECT_EQ(records[0].get("count"), Variant(3LL));
    EXPECT_DOUBLE_EQ(records[0].get("t").as_double(), 1.5);
    EXPECT_TRUE(records[0].get("on").as_bool());
}

TEST(JsonReader, EmptyArrayAndObjects) {
    EXPECT_TRUE(read_json_records("[]").empty());
    EXPECT_TRUE(read_json_records(" [ ] ").empty());
    auto records = read_json_records("[{}, {}]");
    EXPECT_EQ(records.size(), 2u);
}

TEST(JsonReader, NullValuesAreDropped) {
    auto records = read_json_records(R"([{"a": null, "b": 1}])");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].contains("a"));
    EXPECT_TRUE(records[0].contains("b"));
}

TEST(JsonReader, StringEscapes) {
    auto records = read_json_records(R"([{"s": "a\"b\\c\ndA"}])");
    EXPECT_EQ(records[0].get("s").as_string(), "a\"b\\c\ndA");
}

TEST(JsonReader, NegativeAndExponentNumbers) {
    auto records = read_json_records(R"([{"i": -42, "d": 2.5e3}])");
    EXPECT_EQ(records[0].get("i").as_int(), -42);
    EXPECT_DOUBLE_EQ(records[0].get("d").as_double(), 2500.0);
}

TEST(JsonReader, MalformedInputsThrow) {
    for (const char* bad :
         {"", "{", "[{\"a\" 1}]", "[{\"a\": }]", "[{\"a\": 1},]x",
          "[{\"a\": \"unterminated}]", "[1, 2]extra"}) {
        EXPECT_THROW(read_json_records(bad), std::runtime_error) << bad;
    }
}

TEST(JsonReader, RoundTripsWithJsonFormatter) {
    std::vector<RecordMap> in;
    RecordMap r1;
    r1.append("kernel", Variant("k,with\"specials"));
    r1.append("count", Variant(7LL));
    in.push_back(r1);
    RecordMap r2;
    r2.append("t", Variant(0.125));
    in.push_back(r2);

    std::ostringstream os;
    QuerySpec spec;
    spec.format = "json";
    format_records(os, in, spec);

    auto out = read_json_records(os.str());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].get("kernel"), Variant("k,with\"specials"));
    EXPECT_EQ(out[0].get("count").to_int(), 7);
    EXPECT_DOUBLE_EQ(out[1].get("t").as_double(), 0.125);
}

TEST(JsonReader, NegativeZeroRoundTripsThroughFormatter) {
    // FORMAT json writes -0.0 as "-0" (to_repr); it must read back as the
    // double -0.0, sign bit included, not as the integer 0
    RecordMap r;
    r.append("z", Variant(-0.0));
    std::ostringstream os;
    QuerySpec spec;
    spec.format = "json";
    format_records(os, {r}, spec);
    ASSERT_NE(os.str().find("\"z\": -0}"), std::string::npos) << os.str();

    const auto out = read_json_records(os.str());
    ASSERT_EQ(out.size(), 1u);
    const Variant z = out[0].get("z");
    ASSERT_EQ(z.type(), Variant::Type::Double);
    EXPECT_EQ(z.as_double(), 0.0);
    EXPECT_TRUE(std::signbit(z.as_double()));
    EXPECT_EQ(z, Variant(-0.0)); // bit-identical
}

// --- JSON conformance: one grammar, two consumers ------------------------------
//
// Every case runs through parse_json (the tree) and through
// read_json_records with the value wrapped as the one field of a one-record
// array, so both consumers must agree on what JSON is.

namespace {

/// `[{"v": <value>}]`; the value starts at byte record_prefix.
std::string as_record(std::string_view value) {
    return "[{\"v\": " + std::string(value) + "}]";
}
constexpr std::size_t record_prefix = 7;

/// The message of the std::runtime_error \a parse throws ("" if none).
std::string error_of(const std::function<void()>& parse) {
    try {
        parse();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// The byte offset an error message names, or npos.
std::size_t offset_in(const std::string& message) {
    const std::size_t at = message.find("at byte ");
    return at == std::string::npos ? std::string::npos
                                   : std::stoul(message.substr(at + 8));
}

} // namespace

TEST(JsonConformance, AcceptedScalarsReadAlikeInBothConsumers) {
    struct Case {
        const char* text;
        Variant want;
    };
    const Case cases[] = {
        // escapes, including \u to 2- and 3-byte UTF-8
        {R"("q\"b\\s\/f\bn\nr\rt\tu\u00e9\u20ac")",
         Variant("q\"b\\s/f\bn\nr\rt\tu\xC3\xA9\xE2\x82\xAC")},
        // a surrogate pair is one code point: one 4-byte sequence
        {R"("\ud83d\ude00")", Variant("\xF0\x9F\x98\x80")},
        {R"("\uD83D\uDE00")", Variant("\xF0\x9F\x98\x80")},
        {"9223372036854775807", Variant(9223372036854775807LL)},     // INT64_MAX
        {"-9223372036854775808", Variant(static_cast<long long>(INT64_MIN))},
        {"9223372036854775808", Variant(9223372036854775808ULL)},    // +1: UInt
        {"18446744073709551615", Variant(18446744073709551615ULL)},  // UINT64_MAX
        {"18446744073709551616", Variant(18446744073709551616.0)},   // +1: Double
        {"-9223372036854775809", Variant(-9223372036854775809.0)},
        {"0", Variant(0LL)},
        {"-0", Variant(-0.0)}, // negative zero stays a double
        {"-0.0", Variant(-0.0)},
        {"1.5", Variant(1.5)},
        {"1e3", Variant(1000.0)},
        {"1E+2", Variant(100.0)},
        {"-2.5e-2", Variant(-0.025)},
        {"0e0", Variant(0.0)},
        {"5e-324", Variant(5e-324)},
        {"true", Variant(true)},
        {"false", Variant(false)},
        {" \t\r\n7\n", Variant(7LL)}, // the four whitespace bytes
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.text);
        const auto records = read_json_records(as_record(c.text));
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(records[0].get("v"), c.want); // same type, same bits

        const JsonValue tree = parse_json(c.text);
        if (c.want.is_string()) {
            ASSERT_TRUE(tree.is_string());
            EXPECT_EQ(tree.string, c.want.as_string());
        } else if (c.want.is_bool()) {
            ASSERT_EQ(tree.type, JsonValue::Type::Bool);
            EXPECT_EQ(tree.boolean, c.want.as_bool());
        } else {
            ASSERT_TRUE(tree.is_number());
            EXPECT_EQ(tree.number, c.want.to_double());
            EXPECT_EQ(std::signbit(tree.number), std::signbit(c.want.to_double()));
        }
    }
    // null drops the field from a record
    EXPECT_FALSE(read_json_records(as_record("null"))[0].contains("v"));
    EXPECT_EQ(parse_json("null").type, JsonValue::Type::Null);
}

TEST(JsonConformance, TreeHoldsNestedArraysAndObjects) {
    const char* text = R"({"a": [1, [2, {"b": null}], {}], "c": {"d": [true, []]}})";
    const JsonValue doc = parse_json(text);
    ASSERT_TRUE(doc.is_object());
    const JsonValue* a = doc.find("a");
    ASSERT_TRUE(a && a->is_array());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_EQ(a->array[0].number, 1.0);
    ASSERT_TRUE(a->array[1].is_array());
    ASSERT_EQ(a->array[1].array.size(), 2u);
    EXPECT_EQ(a->array[1].array[1].find("b")->type, JsonValue::Type::Null);
    EXPECT_TRUE(a->array[2].is_object());
    EXPECT_TRUE(a->array[2].object.empty());
    const JsonValue* d = doc.find("c")->find("d");
    ASSERT_TRUE(d && d->is_array());
    EXPECT_TRUE(d->array[0].boolean);
    EXPECT_TRUE(d->array[1].is_array());

    // records are flat: the same values inside a record fail, saying so
    for (const char* nested : {"[1, 2]", "{\"a\": 1}", text}) {
        SCOPED_TRACE(nested);
        const std::string err =
            error_of([&] { read_json_records(as_record(nested)); });
        EXPECT_NE(err.find("records are flat"), std::string::npos) << err;
        EXPECT_EQ(offset_in(err), record_prefix) << err;
    }
}

TEST(JsonConformance, MalformedInputIsRejectedAtItsByteOffset) {
    struct Case {
        std::string text;
        std::size_t offset; ///< of the first byte that breaks the grammar
    };
    const Case cases[] = {
        {"1-2", 1},
        {"3e", 2},
        {"--5", 1},
        {"1.2.3", 3},
        {"+1", 0},
        {"01", 1},
        {"-01", 2},
        {".5", 0},
        {"1.", 2},
        {"1.e5", 2},
        {"-", 1},
        {"0x10", 1},
        {"tru", 0},
        {"nul", 0},
        {R"("\ud800")", 1},        // lone high surrogate (names the escape)
        {R"("\ud800\u0041")", 1}, // high surrogate without a low one
        {R"("ab\udc00")", 3},      // lone low surrogate
        {R"("\u12G4")", 5},
        {R"("\x")", 2},
        {std::string("\"a\x01b\""), 2}, // raw control character
        {std::string("\"tab\there\""), 4},
        {"\"unterminated", 13},
        {"\v1", 0},   // vertical tab is not JSON whitespace
        {"1 x", 2},    // trailing content
        {"\"a\" \"b\"", 4},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.text);
        const std::string tree_err = error_of([&] { parse_json(c.text); });
        EXPECT_EQ(offset_in(tree_err), c.offset) << tree_err;

        const std::string record = as_record(c.text);
        const std::string rec_err = error_of([&] { read_json_records(record); });
        // an unterminated string runs on through the wrapper's "}]"
        const std::size_t want = c.text == "\"unterminated"
                                     ? record.size()
                                     : record_prefix + c.offset;
        EXPECT_EQ(offset_in(rec_err), want) << rec_err;
    }

    // structural errors of the tree and of the record array
    EXPECT_EQ(offset_in(error_of([] { parse_json("[1,]"); })), 3u);
    EXPECT_EQ(offset_in(error_of([] { parse_json("{\"a\": 1,}"); })), 8u);
    EXPECT_EQ(offset_in(error_of([] { parse_json("{\"a\" 1}"); })), 5u);
    EXPECT_EQ(offset_in(error_of([] { parse_json(""); })), 0u);
    EXPECT_EQ(offset_in(error_of([] { read_json_records("[{\"v\": 1},]"); })), 10u);
    EXPECT_EQ(offset_in(error_of([] { read_json_records("[{\"v\": 1}] x"); })), 11u);
    EXPECT_EQ(offset_in(error_of([] { read_json_records("[{\"v\": 1}"); })), 9u);
    EXPECT_EQ(offset_in(error_of([] { read_json_records("{\"v\": 1}"); })), 0u);

    // nesting is bounded, so hostile input cannot exhaust the stack
    const std::string deep(100000, '[');
    EXPECT_NE(error_of([&] { parse_json(deep); }).find("nesting too deep"),
              std::string::npos);
}

// --- path service ----------------------------------------------------------------

namespace {

std::vector<RecordMap> flush_records(Channel* channel) {
    std::vector<RecordMap> out;
    Caliper::instance().flush_thread(
        channel, [&out](RecordMap&& r) { out.push_back(std::move(r)); });
    return out;
}

} // namespace

TEST(PathService, ExportsNestingStackAsPath) {
    Caliper& c       = Caliper::instance();
    Channel* channel = c.create_channel(
        "path-test", RuntimeConfig{{"services.enable", "path,event,aggregate"},
                                   {"path.attributes", "pt.fn"},
                                   {"aggregate.key", "pt.fn.path"},
                                   {"aggregate.ops", "count"}});
    Annotation fn("pt.fn");
    fn.begin(Variant("main"));
    fn.begin(Variant("solve"));
    fn.begin(Variant("kernel"));
    fn.end();
    fn.end();
    fn.end();

    auto out = flush_records(channel);
    c.close_channel(channel);

    EXPECT_FALSE(
        find_record(out, "pt.fn.path", Variant("main/solve/kernel")).empty());
    EXPECT_FALSE(find_record(out, "pt.fn.path", Variant("main/solve")).empty());
    EXPECT_FALSE(find_record(out, "pt.fn.path", Variant("main")).empty());
}

TEST(PathService, CallPathProfileCounts) {
    Caliper& c       = Caliper::instance();
    Channel* channel = c.create_channel(
        "path-prof", RuntimeConfig{{"services.enable", "path,event,aggregate"},
                                   {"path.attributes", "pp.fn"},
                                   {"aggregate.key", "pp.fn.path"},
                                   {"aggregate.ops", "count"}});
    Annotation fn("pp.fn");
    fn.begin(Variant("main"));
    for (int i = 0; i < 3; ++i) {
        fn.begin(Variant("leaf"));
        fn.end();
    }
    fn.end();

    auto out = flush_records(channel);
    c.close_channel(channel);

    // each leaf call: begin event sees "main", end event sees "main/leaf"
    const RecordMap leaf = find_record(out, "pp.fn.path", Variant("main/leaf"));
    EXPECT_EQ(leaf.get("count").to_uint(), 3u);
}

TEST(PathService, MultipleSourceAttributes) {
    Caliper& c       = Caliper::instance();
    Channel* channel = c.create_channel(
        "path-multi", RuntimeConfig{{"services.enable", "path,event,trace"},
                                    {"path.attributes", "pm.a,pm.b"}});
    Annotation a("pm.a"), b("pm.b");
    a.begin(Variant("x"));
    b.begin(Variant(1));
    b.begin(Variant(2));
    b.end();
    b.end();
    a.end();

    auto out = flush_records(channel);
    c.close_channel(channel);

    bool found = false;
    for (const RecordMap& r : out)
        if (r.get("pm.a.path") == Variant("x") && r.get("pm.b.path") == Variant("1/2"))
            found = true;
    EXPECT_TRUE(found);
}

TEST(PathService, TreeFormatRendersCallPaths) {
    // end-to-end: call-path profile rendered with FORMAT tree
    std::vector<RecordMap> profile;
    for (const char* path : {"main", "main/a", "main/a/b", "main/c"}) {
        RecordMap r;
        r.append("fn.path", Variant(path));
        r.append("count", Variant(1ull));
        profile.push_back(r);
    }
    std::ostringstream os;
    run_query("SELECT fn.path,count FORMAT tree", profile, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\nmain"), std::string::npos);
    EXPECT_NE(text.find("\n  a"), std::string::npos);
    EXPECT_NE(text.find("\n    b"), std::string::npos);
}

TEST(JsonReader, LargeUnsignedIntegersStayExact) {
    // integers in (INT64_MAX, UINT64_MAX] must not round through double
    auto records = read_json_records(
        "[{\"a\": 18446744073709551615, \"b\": 9223372036854775808, "
        "\"c\": -9223372036854775808}]");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].get("a").type(), Variant::Type::UInt);
    EXPECT_EQ(records[0].get("a").as_uint(), 18446744073709551615ull);
    EXPECT_EQ(records[0].get("b").type(), Variant::Type::UInt);
    EXPECT_EQ(records[0].get("b").as_uint(), 9223372036854775808ull);
    EXPECT_EQ(records[0].get("c").as_int(), INT64_MIN);
}
