#include "variant.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace calib {

double Variant::to_double() const noexcept {
    switch (type_) {
    case Type::Int:    return static_cast<double>(u_.i);
    case Type::UInt:   return static_cast<double>(u_.u);
    case Type::Double: return u_.d;
    case Type::Bool:   return u_.b ? 1.0 : 0.0;
    default:           return 0.0;
    }
}

std::int64_t Variant::to_int() const noexcept {
    switch (type_) {
    case Type::Int:    return u_.i;
    case Type::UInt:   return static_cast<std::int64_t>(u_.u);
    case Type::Double: return static_cast<std::int64_t>(u_.d);
    case Type::Bool:   return u_.b ? 1 : 0;
    default:           return 0;
    }
}

std::uint64_t Variant::to_uint() const noexcept {
    switch (type_) {
    case Type::Int:    return u_.i < 0 ? 0u : static_cast<std::uint64_t>(u_.i);
    case Type::UInt:   return u_.u;
    case Type::Double: return u_.d < 0 ? 0u : static_cast<std::uint64_t>(u_.d);
    case Type::Bool:   return u_.b ? 1u : 0u;
    default:           return 0;
    }
}

bool Variant::to_bool() const noexcept {
    switch (type_) {
    case Type::Bool:   return u_.b;
    case Type::Int:    return u_.i != 0;
    case Type::UInt:   return u_.u != 0;
    case Type::Double: return u_.d != 0.0;
    case Type::String: return StringPool::length(u_.s) > 0;
    default:           return false;
    }
}

std::string Variant::to_string() const {
    switch (type_) {
    case Type::Empty:  return {};
    case Type::Bool:   return u_.b ? "true" : "false";
    case Type::Int:    return std::to_string(u_.i);
    case Type::UInt:   return std::to_string(u_.u);
    case Type::String: return std::string(as_string());
    case Type::Double: {
        // %g with enough digits to round-trip typical measurement values,
        // but without trailing float noise in reports.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", u_.d);
        return buf;
    }
    }
    return {};
}

std::string Variant::to_repr() const {
    if (type_ != Type::Double)
        return to_string();
    // Shortest decimal form that parses back to the identical double
    // (std::to_chars); "%.12g" display rendering drops bits beyond 12
    // significant digits, which is fine for reports but not for streams
    // that are read back (.cali files, JSON interchange).
    char buf[40];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), u_.d);
    if (ec != std::errc())
        return to_string();
    return std::string(buf, p);
}

Variant Variant::parse(Type type, std::string_view text) {
    switch (type) {
    case Type::Empty:
        return {};
    case Type::Bool:
        if (text == "true" || text == "1")
            return Variant(true);
        if (text == "false" || text == "0")
            return Variant(false);
        return {};
    case Type::Int: {
        std::int64_t v = 0;
        auto [p, ec] = std::from_chars(text.begin(), text.end(), v);
        return (ec == std::errc() && p == text.end()) ? Variant(static_cast<long long>(v))
                                                      : Variant();
    }
    case Type::UInt: {
        std::uint64_t v = 0;
        auto [p, ec] = std::from_chars(text.begin(), text.end(), v);
        return (ec == std::errc() && p == text.end())
                   ? Variant(static_cast<unsigned long long>(v))
                   : Variant();
    }
    case Type::Double: {
        // std::from_chars<double> is available in libstdc++ 11+; use strtod
        // for locale-independent-enough portability with a bounded copy.
        std::string tmp(text);
        char* end = nullptr;
        errno     = 0;
        double v  = std::strtod(tmp.c_str(), &end);
        if (end != tmp.c_str() + tmp.size())
            return {};
        // ERANGE covers overflow and underflow alike. Underflow still
        // yields the correctly rounded subnormal (e.g. "5e-324") — accept
        // it; only overflow, which pins to ±HUGE_VAL, has no value.
        if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
            return {};
        return Variant(v);
    }
    case Type::String:
        return Variant(text);
    }
    return {};
}

Variant Variant::parse_guess(std::string_view text) {
    if (text.empty())
        return Variant(text);
    if (Variant v = parse(Type::Int, text); !v.empty())
        return v;
    // integer literals above INT64_MAX stay exact as UInt instead of losing
    // low bits through the double fallback
    if (Variant v = parse(Type::UInt, text); !v.empty())
        return v;
    if (Variant v = parse(Type::Double, text); !v.empty())
        return v;
    if (text == "true")
        return Variant(true);
    if (text == "false")
        return Variant(false);
    return Variant(text);
}

std::uint64_t Variant::hash() const noexcept {
    std::uint64_t payload;
    switch (type_) {
    case Type::Empty:  payload = 0; break;
    case Type::Bool:   payload = u_.b ? 1 : 0; break;
    case Type::String: payload = StringPool::hash(u_.s); break;
    default:           payload = u_.u; break;
    }
    return mix64(payload ^ (static_cast<std::uint64_t>(type_) << 56));
}

bool Variant::operator<(const Variant& rhs) const noexcept {
    return compare(rhs) < 0;
}

namespace {

int cmp3(std::int64_t a, std::int64_t b) noexcept {
    return a < b ? -1 : a > b ? 1 : 0;
}
int cmp3u(std::uint64_t a, std::uint64_t b) noexcept {
    return a < b ? -1 : a > b ? 1 : 0;
}

/// Exact int64 vs finite/infinite double comparison (no NaN): never rounds
/// the integer through double, so values above 2^53 compare correctly.
int cmp_int_double(std::int64_t i, double d) noexcept {
    if (d >= 0x1p63) // 2^63: every int64 is smaller (also +inf)
        return -1;
    if (d < -0x1p63) // below INT64_MIN (also -inf)
        return 1;
    // |d| <= 2^63 here, so floor(d) is exactly representable in int64
    const double fl       = std::floor(d);
    const std::int64_t di = static_cast<std::int64_t>(fl);
    if (i != di)
        return i < di ? -1 : 1;
    return d > fl ? -1 : 0; // equal integer parts: the fraction decides
}

/// Exact uint64 vs finite/infinite double comparison (no NaN).
int cmp_uint_double(std::uint64_t u, double d) noexcept {
    if (d >= 0x1p64) // 2^64: every uint64 is smaller (also +inf)
        return -1;
    if (d < 0.0)
        return 1;
    const double fl        = std::floor(d);
    const std::uint64_t du = static_cast<std::uint64_t>(fl);
    if (u != du)
        return u < du ? -1 : 1;
    return d > fl ? -1 : 0;
}

/// Exact int64 vs uint64 comparison (no wrap through to_int()).
int cmp_int_uint(std::int64_t i, std::uint64_t u) noexcept {
    if (i < 0)
        return -1;
    return cmp3u(static_cast<std::uint64_t>(i), u);
}

} // namespace

int Variant::compare(const Variant& rhs) const noexcept {
    const bool ln = is_numeric() || is_bool();
    const bool rn = rhs.is_numeric() || rhs.is_bool();
    if (ln && rn) {
        // NaN total order: NaN compares equal to itself and after every
        // other numeric value ("NaN sorts last"), so min/max selection and
        // std::stable_sort comparators see a strict weak ordering.
        const bool lnan = type_ == Type::Double && std::isnan(u_.d);
        const bool rnan = rhs.type_ == Type::Double && std::isnan(rhs.u_.d);
        if (lnan || rnan)
            return lnan == rnan ? 0 : (lnan ? 1 : -1);
        // Cross-type integer comparisons are exact: never coerced through
        // double (lossy above 2^53) or via to_int() (wraps UInt > INT64_MAX).
        const bool li = type_ == Type::Int || type_ == Type::Bool;
        const bool ri = rhs.type_ == Type::Int || rhs.type_ == Type::Bool;
        if (li && ri)
            return cmp3(to_int(), rhs.to_int());
        if (type_ == Type::UInt && rhs.type_ == Type::UInt)
            return cmp3u(u_.u, rhs.u_.u);
        if (li && rhs.type_ == Type::UInt)
            return cmp_int_uint(to_int(), rhs.u_.u);
        if (type_ == Type::UInt && ri)
            return -cmp_int_uint(rhs.to_int(), u_.u);
        if (li) // vs Double
            return cmp_int_double(to_int(), rhs.u_.d);
        if (ri) // Double vs int
            return -cmp_int_double(rhs.to_int(), u_.d);
        if (type_ == Type::UInt) // vs Double
            return cmp_uint_double(u_.u, rhs.u_.d);
        if (rhs.type_ == Type::UInt) // Double vs uint
            return -cmp_uint_double(rhs.u_.u, u_.d);
        const double a = u_.d, b = rhs.u_.d;
        return a < b ? -1 : a > b ? 1 : 0;
    }
    if (type_ == Type::String && rhs.type_ == Type::String) {
        if (u_.s == rhs.u_.s)
            return 0;
        return std::strcmp(u_.s, rhs.u_.s);
    }
    const auto a = static_cast<int>(type_), b = static_cast<int>(rhs.type_);
    return a < b ? -1 : a > b ? 1 : 0;
}

int Variant::identity_compare(const Variant& rhs) const noexcept {
    if (type_ != rhs.type_)
        return static_cast<int>(type_) < static_cast<int>(rhs.type_) ? -1 : 1;
    switch (type_) {
    case Type::Empty:  return 0;
    case Type::Bool:   return (u_.b ? 1 : 0) - (rhs.u_.b ? 1 : 0);
    case Type::Int:    return cmp3(u_.i, rhs.u_.i);
    case Type::String: return u_.s == rhs.u_.s ? 0 : std::strcmp(u_.s, rhs.u_.s);
    default:           return cmp3u(u_.u, rhs.u_.u); // UInt; Double bits
    }
}

const char* Variant::type_name(Type t) noexcept {
    switch (t) {
    case Type::Empty:  return "empty";
    case Type::Bool:   return "bool";
    case Type::Int:    return "int";
    case Type::UInt:   return "uint";
    case Type::Double: return "double";
    case Type::String: return "string";
    }
    return "?";
}

Variant::Type Variant::type_from_name(std::string_view name) noexcept {
    if (name == "bool")   return Type::Bool;
    if (name == "int")    return Type::Int;
    if (name == "uint")   return Type::UInt;
    if (name == "double") return Type::Double;
    if (name == "string") return Type::String;
    return Type::Empty;
}

} // namespace calib
