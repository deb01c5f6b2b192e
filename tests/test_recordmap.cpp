#include "common/recordmap.hpp"

#include <gtest/gtest.h>

using namespace calib;

TEST(RecordMap, AppendAndGet) {
    RecordMap r;
    r.append("function", Variant("main"));
    r.append("count", Variant(3));
    EXPECT_EQ(r.size(), 2u);
    EXPECT_EQ(r.get("function"), Variant("main"));
    EXPECT_EQ(r.get("count"), Variant(3));
    EXPECT_TRUE(r.get("missing").empty());
}

TEST(RecordMap, SetOverwritesFirst) {
    RecordMap r;
    r.set("a", Variant(1));
    r.set("a", Variant(2));
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.get("a"), Variant(2));
}

TEST(RecordMap, Contains) {
    RecordMap r;
    r.append("x", Variant(1));
    EXPECT_TRUE(r.contains("x"));
    EXPECT_FALSE(r.contains("y"));
}

TEST(RecordMap, Remove) {
    RecordMap r;
    r.append("a", Variant(1));
    r.append("b", Variant(2));
    r.append("a", Variant(3));
    r.remove("a");
    EXPECT_EQ(r.size(), 1u);
    EXPECT_FALSE(r.contains("a"));
    EXPECT_TRUE(r.contains("b"));
}

TEST(RecordMap, EqualityIgnoresOrder) {
    RecordMap a, b;
    a.append("x", Variant(1));
    a.append("y", Variant("s"));
    b.append("y", Variant("s"));
    b.append("x", Variant(1));
    EXPECT_EQ(a, b);
    b.set("x", Variant(2));
    EXPECT_FALSE(a == b);
}

TEST(RecordMap, EqualityRequiresSameSize) {
    RecordMap a, b;
    a.append("x", Variant(1));
    b.append("x", Variant(1));
    b.append("y", Variant(2));
    EXPECT_FALSE(a == b);
}

TEST(RecordMap, EqualityMatchesRepeatedNamesAsMultisets) {
    // {a:1, b:2} and {a:1, a:1}: each field must match a distinct field,
    // so neither side equals the other
    RecordMap distinct, repeated;
    distinct.append("a", Variant(1));
    distinct.append("b", Variant(2));
    repeated.append("a", Variant(1));
    repeated.append("a", Variant(1));
    EXPECT_FALSE(distinct == repeated);
    EXPECT_FALSE(repeated == distinct);

    // equal rows that repeat a name compare equal, in any order
    RecordMap x, y;
    x.append("a", Variant(1));
    x.append("k", Variant("v"));
    x.append("a", Variant(2));
    y.append("a", Variant(2));
    y.append("a", Variant(1));
    y.append("k", Variant("v"));
    EXPECT_EQ(x, y);
    EXPECT_EQ(y, x);
    y.set("a", Variant(1)); // now {a:1, a:1, k:v}
    EXPECT_FALSE(x == y);
    EXPECT_FALSE(y == x);
}

TEST(RecordMap, InterningKeepsNamePointersShared) {
    RecordMap a, b;
    a.append("shared-name", Variant(1));
    b.append("shared-name", Variant(2));
    EXPECT_EQ(a.begin()->first, b.begin()->first);
}

TEST(RecordMap, IterationInInsertionOrder) {
    RecordMap r;
    r.append("c", Variant(1));
    r.append("a", Variant(2));
    std::vector<std::string> names;
    for (const auto& [n, v] : r)
        names.emplace_back(n);
    EXPECT_EQ(names, (std::vector<std::string>{"c", "a"}));
}

TEST(RecordMap, ClearAndReserve) {
    RecordMap r;
    r.reserve(16);
    r.append("a", Variant(1));
    r.clear();
    EXPECT_TRUE(r.empty());
}
