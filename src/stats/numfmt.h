/**
 * @file
 * Locale-independent number formatting/parsing for wire protocols.
 *
 * The campaign protocol and the checkpoint manifest round-trip doubles
 * as text. printf("%.17g") and strtod/sscanf("%lf") are both sensitive
 * to LC_NUMERIC: under a comma-decimal locale (de_DE et al.) the
 * formatter emits "1,5" and the parser stops at the comma, silently
 * corrupting aggregates. Every protocol/manifest number therefore goes
 * through these helpers, which use std::to_chars/std::from_chars — the
 * only standard facilities guaranteed to ignore the global locale.
 *
 * formatG17 is byte-compatible with the historical "%.17g" format in
 * the C locale (to_chars with chars_format::general and precision 17
 * is specified to print "as if by printf %.17g" with '.' as the
 * decimal point), so manifests written by earlier versions parse
 * unchanged and goldens keep their exact bytes.
 */

#ifndef AITAX_STATS_NUMFMT_H
#define AITAX_STATS_NUMFMT_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace aitax::stats {

/** Shortest-17-significant-digit form of @p v; C-locale bytes. */
inline std::string
formatG17(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
    return std::string(buf, r.ptr);
}

/** Append formatG17(@p v) to @p out without a temporary string. */
inline void
appendG17(std::string &out, double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

/**
 * Parse a double at @p p (skipping leading spaces), advancing @p p
 * past the consumed token. Locale-independent: only '.' is a decimal
 * point, so "1,5" parses as 1.0 leaving ",5" — exactly the C-locale
 * strtod behaviour the protocol was specified against.
 * @return false (leaving @p p at the token start) on no parse.
 */
inline bool
parseDouble(const char *&p, double &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r =
        std::from_chars(p, end, out, std::chars_format::general);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

/** Integer flavours of parseDouble (from_chars, base 10). */
inline bool
parseU64(const char *&p, std::uint64_t &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r = std::from_chars(p, end, out, 10);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

inline bool
parseI64(const char *&p, std::int64_t &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r = std::from_chars(p, end, out, 10);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

inline bool
parseInt(const char *&p, int &out)
{
    std::int64_t wide = 0;
    const char *save = p;
    if (!parseI64(p, wide) || wide < INT32_MIN || wide > INT32_MAX) {
        p = save;
        return false;
    }
    out = static_cast<int>(wide);
    return true;
}

/**
 * All of @p text as one finite base-10 number (int, u64 or double): a
 * leading space or trailing byte ("3x"), an empty string, "inf",
 * "nan" or an out-of-range value is a failure, never a silent 3, 0 or
 * wrap. The rule for every command-line flag and campaign-spec value.
 */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto r = std::from_chars(text.data(), end, out);
    if constexpr (std::is_floating_point_v<T>)
        if (r.ec == std::errc() && !std::isfinite(out))
            return false;
    return r.ec == std::errc() && r.ptr == end;
}

} // namespace aitax::stats

#endif // AITAX_STATS_NUMFMT_H
