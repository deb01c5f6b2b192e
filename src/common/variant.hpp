// An 8-byte tagged value: the "value" half of the key:value data model.
//
// Strings are carried as interned `const char*` from the process-global
// StringPool, so Variant is trivially copyable, equality on strings is a
// pointer comparison, and hashing a string value is a single load of the
// pool's precomputed hash.
#pragma once

#include "hash.hpp"
#include "stringpool.hpp"

#include <cstdint>
#include <string>
#include <string_view>

namespace calib {

class Variant {
public:
    enum class Type : std::uint8_t { Empty = 0, Bool, Int, UInt, Double, String };

    constexpr Variant() noexcept : type_(Type::Empty), u_{} {}

    constexpr explicit Variant(bool b) noexcept : type_(Type::Bool) { u_.b = b; }
    constexpr Variant(int i) noexcept : type_(Type::Int) { u_.i = i; }
    constexpr Variant(long long i) noexcept : type_(Type::Int) { u_.i = i; }
    constexpr Variant(long i) noexcept : type_(Type::Int) { u_.i = i; }
    constexpr Variant(unsigned long long u) noexcept : type_(Type::UInt) { u_.u = u; }
    constexpr Variant(unsigned long u) noexcept : type_(Type::UInt) { u_.u = u; }
    constexpr Variant(unsigned u) noexcept : type_(Type::UInt) { u_.u = u; }
    constexpr Variant(double d) noexcept : type_(Type::Double) { u_.d = d; }

    /// Construct a string value, interning through the global pool.
    Variant(std::string_view sv) : type_(Type::String) { u_.s = intern(sv); }
    Variant(const char* s) : Variant(std::string_view(s)) {}
    Variant(const std::string& s) : Variant(std::string_view(s)) {}

    /// Wrap an already-interned pointer without re-hashing.
    static Variant from_interned(const char* s) noexcept {
        Variant v;
        v.type_ = Type::String;
        v.u_.s  = s;
        return v;
    }

    constexpr Type type() const noexcept { return type_; }
    constexpr bool empty() const noexcept { return type_ == Type::Empty; }
    constexpr bool is_string() const noexcept { return type_ == Type::String; }
    constexpr bool is_numeric() const noexcept {
        return type_ == Type::Int || type_ == Type::UInt || type_ == Type::Double;
    }
    constexpr bool is_bool() const noexcept { return type_ == Type::Bool; }

    // -- typed access (unchecked; caller verifies type) ---------------------
    constexpr bool as_bool() const noexcept { return u_.b; }
    constexpr std::int64_t as_int() const noexcept { return u_.i; }
    constexpr std::uint64_t as_uint() const noexcept { return u_.u; }
    constexpr double as_double() const noexcept { return u_.d; }
    const char* as_cstr() const noexcept { return u_.s; }
    std::string_view as_string() const noexcept {
        return {u_.s, StringPool::length(u_.s)};
    }

    // -- converting access ---------------------------------------------------
    /// Numeric value as double (Bool -> 0/1, Empty/String -> 0).
    double to_double() const noexcept;
    /// Numeric value as signed integer (truncating).
    std::int64_t to_int() const noexcept;
    /// Numeric value as unsigned integer (truncating, clamped at 0).
    std::uint64_t to_uint() const noexcept;
    /// Truthiness: non-zero numbers, non-empty strings, true bools.
    bool to_bool() const noexcept;

    /// Render for human-readable output ("" for Empty). Doubles use
    /// "%.12g" — readable, but not guaranteed to round-trip; writers that
    /// are read back use to_repr().
    std::string to_string() const;

    /// Lossless rendering: doubles as the shortest decimal that parses
    /// back to the identical value; other types match to_string().
    std::string to_repr() const;

    /// Parse a textual representation as the given type.
    /// Returns an Empty variant when the text does not parse.
    static Variant parse(Type type, std::string_view text);

    /// Best-effort typed parse: int, then double, then string.
    static Variant parse_guess(std::string_view text);

    /// Content hash, mixed into aggregation-key hashes.
    std::uint64_t hash() const noexcept;

    /// Identity equality (type-strict), consistent with hash(): doubles
    /// compare by bit pattern, so NaN == NaN and +0.0 != -0.0. This is the
    /// relation aggregation keys group by; numeric *ordering* lives in
    /// compare().
    bool operator==(const Variant& rhs) const noexcept;
    bool operator!=(const Variant& rhs) const noexcept { return !(*this == rhs); }

    /// Total order: by type tag, then value. Strings compare by content so
    /// that report ordering is deterministic and human-sensible.
    bool operator<(const Variant& rhs) const noexcept;

    /// Numeric-aware comparison used by WHERE clauses and ORDER BY:
    /// compares numerics by value regardless of exact type — cross-type
    /// integer comparisons are exact over the full int64/uint64/double
    /// domain (nothing is coerced through a lossy double or wrapped
    /// through to_int()). NaN forms a total order: it compares equal to
    /// itself and after every other numeric value (NaN sorts last), so
    /// sort comparators built on compare() satisfy strict weak ordering.
    /// Strings compare lexicographically; numeric vs. string compares by
    /// type tag. Returns <0, 0, >0.
    int compare(const Variant& rhs) const noexcept;

    /// Total order consistent with operator== (0 iff the Variants are
    /// identical): type tag first, then the exact payload — doubles by bit
    /// pattern (so -0.0/+0.0 and NaN payloads stay distinct), strings by
    /// content. Spill runs sort keys by it, and canonical row order breaks
    /// compare() ties with it.
    int identity_compare(const Variant& rhs) const noexcept;

    static const char* type_name(Type t) noexcept;
    static Type type_from_name(std::string_view name) noexcept;

private:
    Type type_;
    union U {
        bool b;
        std::int64_t i;
        std::uint64_t u;
        double d;
        const char* s;
        constexpr U() : u(0) {}
    } u_;
};

} // namespace calib
