#include "trace/chrome_trace.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <string_view>
#include <vector>

namespace aitax::trace {

namespace {

using namespace std::string_view_literals;

/**
 * Append a string escaped for a JSON literal. Escapes the two
 * mandatory characters plus every control character < 0x20 (named
 * escapes where JSON has them, \u00XX otherwise) — a raw control
 * character in a task label must not produce invalid JSON.
 */
void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/**
 * Every name of one id space, escaped once per serialization and
 * indexed by id. Local to one call: ids only mean something inside
 * the tracer they came from, and clear()/cloneFrom() would otherwise
 * need to invalidate a cache kept on the tracer.
 */
template <typename NameOf>
std::vector<std::string>
escapeAll(std::size_t count, NameOf name_of)
{
    std::vector<std::string> escaped(count);
    for (std::size_t id = 0; id < count; ++id)
        appendEscaped(escaped[id],
                      name_of(static_cast<std::uint32_t>(id)));
    return escaped;
}

/** Longest decimal std::size_t. */
constexpr std::size_t kMaxTidChars = 20;

constexpr std::string_view kMetaHead =
    R"({"name":"thread_name","ph":"M","pid":1,"tid":)"sv;
constexpr std::string_view kMetaName = R"(,"args":{"name":")"sv;
constexpr std::string_view kMetaTail = R"("}})"sv;
constexpr std::string_view kNameHead = R"({"name":")"sv;
constexpr std::string_view kIntervalTid = R"(","ph":"X","pid":1,"tid":)"sv;
constexpr std::string_view kIntervalTs = R"(,"ts":)"sv;
constexpr std::string_view kIntervalDur = R"(,"dur":)"sv;
constexpr std::string_view kIntervalTail = "}"sv;
constexpr std::string_view kEventTs =
    R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":)"sv;
constexpr std::string_view kEventDetail = R"(,"args":{"detail":")"sv;
constexpr std::string_view kEventTail = R"("}})"sv;
constexpr std::string_view kSep = ",\n"sv;
constexpr std::string_view kOpen = "[\n"sv;
constexpr std::string_view kClose = "\n]\n"sv;

/**
 * One record written straight into the output buffer. The
 * constructor grows the buffer by the record's worst-case size; the
 * destructor trims it to what was written. Every write stays inside
 * that claim, so no append re-checks capacity.
 */
class Record
{
  public:
    Record(std::string &out, std::size_t max_bytes) : out_(out)
    {
        const std::size_t start = out.size();
        out.resize(start + max_bytes);
        p_ = out.data() + start;
        end_ = out.data() + out.size();
    }
    ~Record() { out_.resize(static_cast<std::size_t>(p_ - out_.data())); }
    Record(const Record &) = delete;
    Record &operator=(const Record &) = delete;

    Record &
    operator<<(std::string_view s)
    {
        assert(s.size() <= static_cast<std::size_t>(end_ - p_));
        std::memcpy(p_, s.data(), s.size());
        p_ += s.size();
        return *this;
    }

    Record &
    operator<<(std::size_t v)
    {
        const auto r = std::to_chars(p_, end_, v);
        assert(r.ec == std::errc());
        p_ = r.ptr;
        return *this;
    }

    /** A nanosecond timestamp as microseconds (see formatUs). */
    Record &
    us(sim::TimeNs ns)
    {
        assert(kMaxUsChars <= static_cast<std::size_t>(end_ - p_));
        p_ = formatUs(p_, ns);
        return *this;
    }

  private:
    std::string &out_;
    char *p_;
    char *end_;
};

constexpr std::uint64_t kPow10[] = {
    1ull,
    10ull,
    100ull,
    1'000ull,
    10'000ull,
    100'000ull,
    1'000'000ull,
    10'000'000ull,
    100'000'000ull,
    1'000'000'000ull,
    10'000'000'000ull,
    100'000'000'000ull,
    1'000'000'000'000ull,
    10'000'000'000'000ull,
    100'000'000'000'000ull,
    1'000'000'000'000'000ull,
    10'000'000'000'000'000ull,
};

/**
 * Largest ns formatUs() renders from the integer. printf formats the
 * double q = fl(ns / 1e3), not the exact quotient v = ns / 1000; the
 * two round to the same six digits whenever v does not sit exactly on
 * a rounding midpoint:
 *  - ns <= 2^52 is exact as a double, and v < 2^52 / 1000 < 2^43, so
 *    the correctly rounded division is off by at most half an ulp,
 *    2^-11 us < 0.0005 us.
 *  - For ns of seven or more digits, six-digit rounding drops whole
 *    nanoseconds and every midpoint is a whole number of ns. Off a
 *    tie, v is at least 1 ns = 0.001 us from the nearest midpoint,
 *    more than twice q's largest error, so q rounds the same way.
 *  - For six digits or fewer nothing is dropped: the nearest midpoint
 *    is at least 5e-7 of v away, and q's relative error is at most
 *    2^-53.
 * The digit carry of a round-up (999999.5 -> 1e+06) is exact too, so
 * %g's fixed/exponent choice agrees as well.
 */
constexpr std::uint64_t kIntegerUsLimit = std::uint64_t{1} << 52;

} // namespace

char *
formatUs(char *first, sim::TimeNs ns)
{
    auto fallback = [&] {
        // The standard defines to_chars(general, 6) as printf("%.6g").
        return std::to_chars(first, first + kMaxUsChars,
                             static_cast<double>(ns) / 1e3,
                             std::chars_format::general, 6)
            .ptr;
    };
    if (ns <= 0 || static_cast<std::uint64_t>(ns) > kIntegerUsLimit)
        return fallback();

    const auto n = static_cast<std::uint64_t>(ns);
    int digits = 1; // decimal digits of n; at most 16 below the limit
    while (n >= kPow10[digits])
        ++digits;
    // n rounded to six significant digits, as 100000..999999.
    std::uint64_t sig;
    if (digits > 6) {
        const std::uint64_t unit = kPow10[digits - 6];
        sig = n / unit;
        const std::uint64_t dropped = n - sig * unit;
        if (dropped * 2 == unit)
            return fallback(); // exact tie: the binary quotient decides
        if (dropped * 2 > unit && ++sig == 1'000'000) {
            sig = 100'000;
            ++digits;
        }
    } else {
        sig = n * kPow10[6 - digits];
    }
    // %g's decimal exponent of the value in microseconds.
    const int exp10 = digits - 4;

    int nd = 6;
    while (sig % 10 == 0) {
        sig /= 10;
        --nd;
    }
    char d[6] = {};
    for (int i = nd - 1; i >= 0; --i) {
        d[i] = static_cast<char>('0' + sig % 10);
        sig /= 10;
    }

    char *p = first;
    auto put = [&p](const char *s, int count) {
        std::memcpy(p, s, static_cast<std::size_t>(count));
        p += count;
    };
    if (exp10 >= 6) {
        // Exponent form; exp10 <= 13 below the limit, so two digits.
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            put(d + 1, nd - 1);
        }
        *p++ = 'e';
        *p++ = '+';
        *p++ = static_cast<char>('0' + exp10 / 10);
        *p++ = static_cast<char>('0' + exp10 % 10);
    } else if (exp10 < 0) {
        // 0.001 .. 0.999999 us.
        *p++ = '0';
        *p++ = '.';
        for (int z = -exp10 - 1; z > 0; --z)
            *p++ = '0';
        put(d, nd);
    } else {
        const int whole = exp10 + 1;
        for (int i = 0; i < whole; ++i)
            *p++ = i < nd ? d[i] : '0';
        if (nd > whole) {
            *p++ = '.';
            put(d + whole, nd - whole);
        }
    }
    return p;
}

std::string
chromeTraceString(const Tracer &tracer)
{
    const std::vector<std::string> labels = escapeAll(
        tracer.labelCount(),
        [&](std::uint32_t id) -> std::string_view {
            return tracer.labelName(LabelId{id});
        });
    const std::vector<std::string> kinds = escapeAll(
        tracer.eventKindCount(), [&](std::uint32_t id) -> std::string_view {
            return tracer.eventKindName(EventKindId{id});
        });

    // Stable thread ids per track (1..N in sorted-name order, matching
    // the std::map iteration the legacy writer relied on), plus name
    // metadata events.
    const std::vector<TrackId> tracks = tracer.sortedNonEmptyTracks();
    const std::vector<std::string> track_names =
        escapeAll(tracks.size(), [&](std::uint32_t i) -> std::string_view {
            return tracer.trackName(tracks[i]);
        });
    const Tracer::EventStore &ev = tracer.eventStore();

    // Worst-case record sizes less the escaped names; their sum
    // reserves the whole document, so the buffer never regrows.
    constexpr std::size_t kMetaMax = kSep.size() + kMetaHead.size() +
                                     kMaxTidChars + kMetaName.size() +
                                     kMetaTail.size();
    constexpr std::size_t kIntervalMax =
        kSep.size() + kNameHead.size() + kIntervalTid.size() +
        kMaxTidChars + kIntervalTs.size() + kMaxUsChars +
        kIntervalDur.size() + kMaxUsChars + kIntervalTail.size();
    constexpr std::size_t kEventMax =
        kSep.size() + kNameHead.size() + kEventTs.size() + kMaxUsChars +
        kEventDetail.size() + kEventTail.size();
    std::size_t reserve =
        kOpen.size() + kClose.size() + ev.size() * kEventMax;
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        reserve += kMetaMax + track_names[i].size() +
                   t.size() * kIntervalMax;
        for (LabelId label : t.labels)
            reserve += labels[label.value].size();
    }
    for (std::size_t j = 0; j < ev.size(); ++j)
        reserve += kinds[ev.kinds[j].value].size() +
                   labels[ev.details[j].value].size();

    std::string out;
    out.reserve(reserve);
    out += kOpen;
    bool first = true;
    auto sep = [&](Record &r) {
        if (!first)
            r << kSep;
        first = false;
    };

    for (std::size_t i = 0; i < tracks.size(); ++i) {
        Record r(out, kMetaMax + track_names[i].size());
        sep(r);
        r << kMetaHead << (i + 1) << kMetaName << track_names[i]
          << kMetaTail;
    }

    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        for (std::size_t j = 0; j < t.size(); ++j) {
            const std::string &label = labels[t.labels[j].value];
            Record r(out, kIntervalMax + label.size());
            sep(r);
            r << kNameHead << label << kIntervalTid << (i + 1)
              << kIntervalTs;
            r.us(t.begins[j]) << kIntervalDur;
            r.us(t.ends[j] - t.begins[j]) << kIntervalTail;
        }
    }

    for (std::size_t j = 0; j < ev.size(); ++j) {
        const std::string &kind = kinds[ev.kinds[j].value];
        const std::string &detail = labels[ev.details[j].value];
        Record r(out, kEventMax + kind.size() + detail.size());
        sep(r);
        r << kNameHead << kind << kEventTs;
        r.us(ev.whens[j]) << kEventDetail << detail << kEventTail;
    }

    out += kClose;
    return out;
}

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    const std::string s = chromeTraceString(tracer);
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace aitax::trace
