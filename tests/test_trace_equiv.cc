/**
 * @file
 * Equivalence tests for the interned/columnar tracer.
 *
 * The tracer overhaul must be invisible to every consumer: the
 * streaming chrome-trace writer has to match the legacy
 * string-concatenating ostream writer byte for byte (the golden
 * traces were recorded with it), and a scenario recorded through the
 * id-based overloads has to produce identical serialized output and
 * identical utilization/counterRate/countEvents analytics as the same
 * scenario recorded through the legacy string API.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/chrome_trace.h"
#include "trace/tracer.h"

namespace aitax::trace {
namespace {

/**
 * Verbatim replica of the pre-overhaul writeChromeTrace (ostream <<
 * double formatting and all), kept here as the byte-format oracle.
 */
std::string
legacyJsonEscape(const std::string &s)
{
    std::string out;
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
          default:
            out += c;
        }
    }
    return out;
}

void
legacyWriteChromeTrace(std::ostream &os, const Tracer &tracer)
{
    os << "[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    std::map<std::string, int> tids;
    int next_tid = 1;
    for (const auto &track : tracer.trackNames()) {
        tids[track] = next_tid++;
        sep();
        os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)"
           << tids[track] << R"(,"args":{"name":")"
           << legacyJsonEscape(track) << R"("}})";
    }

    for (const auto &track : tracer.trackNames()) {
        const int tid = tids[track];
        for (const auto &iv : tracer.intervals(track)) {
            sep();
            os << R"({"name":")" << legacyJsonEscape(iv.label)
               << R"(","ph":"X","pid":1,"tid":)" << tid << R"(,"ts":)"
               << static_cast<double>(iv.begin) / 1e3 << R"(,"dur":)"
               << static_cast<double>(iv.end - iv.begin) / 1e3 << "}";
        }
    }

    for (const auto &event : tracer.events()) {
        sep();
        os << R"({"name":")" << legacyJsonEscape(event.kind)
           << R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":)"
           << static_cast<double>(event.when) / 1e3 << R"(,"args":{)"
           << R"("detail":")" << legacyJsonEscape(event.detail)
           << R"("}})";
    }

    os << "\n]\n";
}

/** Tiny deterministic LCG so the scenario covers awkward timestamps. */
struct Lcg
{
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 16;
    }
};

struct Op
{
    int track;
    int label;
    sim::TimeNs begin;
    sim::TimeNs end;
    int kind;       // -1 = no event
    double counter; // <= 0 = no counter sample
};

std::vector<Op>
makeScenario()
{
    const int kTracks = 6, kLabels = 12, kKinds = 2;
    Lcg rng;
    std::vector<Op> ops;
    sim::TimeNs now = 0;
    for (int i = 0; i < 4000; ++i) {
        Op op;
        op.track = static_cast<int>(rng.next() % kTracks);
        op.label = static_cast<int>(rng.next() % kLabels);
        // Sub-microsecond offsets exercise the %g fractional cases.
        now += static_cast<sim::TimeNs>(rng.next() % 9973);
        op.begin = now;
        op.end = now + 1 + static_cast<sim::TimeNs>(rng.next() % 74321);
        op.kind = (i % 7 == 0)
                      ? static_cast<int>(rng.next() % kKinds)
                      : -1;
        op.counter = (i % 5 == 0)
                         ? static_cast<double>(rng.next() % 100000)
                         : 0.0;
        ops.push_back(op);
    }
    return ops;
}

std::string
trackName(int i)
{
    return "core" + std::to_string(i);
}

std::string
labelName(int i)
{
    // Mix in escape-needing labels.
    if (i % 4 == 0)
        return "job\"q\\" + std::to_string(i);
    return "job_" + std::to_string(i);
}

const char *
kindName(int i)
{
    return i == 0 ? "context_switch" : "migration";
}

void
recordViaStringApi(Tracer &t, const std::vector<Op> &ops)
{
    for (const Op &op : ops) {
        t.recordInterval(trackName(op.track), labelName(op.label),
                         op.begin, op.end);
        if (op.kind >= 0)
            t.recordEvent(kindName(op.kind), labelName(op.label),
                          op.begin);
        if (op.counter > 0)
            t.recordCounter("axi_bytes", op.begin, op.counter);
    }
}

void
recordViaIdApi(Tracer &t, const std::vector<Op> &ops)
{
    std::vector<TrackId> tracks;
    for (int i = 0; i < 6; ++i)
        tracks.push_back(t.internTrack(trackName(i)));
    std::vector<LabelId> labels;
    for (int i = 0; i < 12; ++i)
        labels.push_back(t.internLabel(labelName(i)));
    const EventKindId kinds[2] = {t.internEventKind(kindName(0)),
                                  t.internEventKind(kindName(1))};
    const CounterId axi = t.internCounter("axi_bytes");

    for (const Op &op : ops) {
        t.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                         labels[static_cast<std::size_t>(op.label)],
                         op.begin, op.end);
        if (op.kind >= 0)
            t.recordEvent(kinds[op.kind],
                          labels[static_cast<std::size_t>(op.label)],
                          op.begin);
        if (op.counter > 0)
            t.recordCounter(axi, op.begin, op.counter);
    }
}

TEST(TraceEquiv, StreamingWriterMatchesLegacyBytes)
{
    Tracer t;
    recordViaStringApi(t, makeScenario());
    std::ostringstream legacy;
    legacyWriteChromeTrace(legacy, t);
    EXPECT_EQ(legacy.str(), chromeTraceString(t));
}

TEST(TraceEquiv, IdApiMatchesStringApiBytes)
{
    const auto ops = makeScenario();
    Tracer via_string;
    recordViaStringApi(via_string, ops);
    Tracer via_id;
    recordViaIdApi(via_id, ops);
    EXPECT_EQ(chromeTraceString(via_string), chromeTraceString(via_id));
}

TEST(TraceEquiv, IdApiMatchesStringApiAnalytics)
{
    const auto ops = makeScenario();
    Tracer via_string;
    recordViaStringApi(via_string, ops);
    Tracer via_id;
    recordViaIdApi(via_id, ops);

    sim::TimeNs t1 = 0;
    for (const Op &op : ops)
        t1 = std::max(t1, op.end);

    for (int i = 0; i < 6; ++i) {
        const std::string track = trackName(i);
        const auto ua = via_string.utilization(track, 0, t1, 97);
        const auto ub = via_id.utilization(track, 0, t1, 97);
        ASSERT_EQ(ua.size(), ub.size());
        for (std::size_t k = 0; k < ua.size(); ++k)
            EXPECT_DOUBLE_EQ(ua[k], ub[k]) << track << " bucket " << k;
    }
    const auto ra = via_string.counterRate("axi_bytes", 0, t1, 64);
    const auto rb = via_id.counterRate("axi_bytes", 0, t1, 64);
    for (std::size_t k = 0; k < ra.size(); ++k)
        EXPECT_DOUBLE_EQ(ra[k], rb[k]);

    EXPECT_EQ(via_string.countEvents("context_switch"),
              via_id.countEvents("context_switch"));
    EXPECT_EQ(via_string.countEvents("migration"),
              via_id.countEvents("migration"));
    EXPECT_EQ(via_string.intervalCount(), via_id.intervalCount());
    EXPECT_EQ(via_string.eventCount(), via_id.eventCount());
}

TEST(TraceEquiv, UtilizationMatchesBruteForceOverlap)
{
    // The closed-form bucket coverage must agree with the old
    // per-bucket overlap loop to within FP noise.
    const auto ops = makeScenario();
    Tracer t;
    recordViaStringApi(t, ops);

    sim::TimeNs t1 = 0;
    for (const Op &op : ops)
        t1 = std::max(t1, op.end);

    const std::size_t buckets = 53;
    const double bucket_ns =
        static_cast<double>(t1) / static_cast<double>(buckets);
    for (int i = 0; i < 6; ++i) {
        const std::string track = trackName(i);
        std::vector<double> expect(buckets, 0.0);
        for (const auto &iv : t.intervals(track)) {
            for (std::size_t k = 0; k < buckets; ++k) {
                const double b0 =
                    static_cast<double>(k) * bucket_ns;
                const double b1 = b0 + bucket_ns;
                const double lo =
                    std::max(b0, static_cast<double>(iv.begin));
                const double hi =
                    std::min(b1, static_cast<double>(iv.end));
                if (hi > lo)
                    expect[k] += (hi - lo) / bucket_ns;
            }
        }
        const auto got = t.utilization(track, 0, t1, buckets);
        for (std::size_t k = 0; k < buckets; ++k)
            EXPECT_NEAR(got[k], std::min(expect[k], 1.0), 1e-6)
                << track << " bucket " << k;
    }
}

// --- Formatter and escape-cache coverage ---------------------------
//
// The oracle above only ever sees timestamps below ~2e4 us, so it never
// reaches the %g exponent form or a 6-digit rounding tie. These cases
// drive the writer's number formatting and its per-call escape cache
// (one escaped string per interned id) through the corners.

std::string
legacyString(const Tracer &t)
{
    std::ostringstream os;
    legacyWriteChromeTrace(os, t);
    return os.str();
}

TEST(TraceEquiv, FormatterCornersMatchLegacyBytes)
{
    Tracer t;
    const TrackId core = t.internTrack("core0");
    const TrackId dsp = t.internTrack("cdsp");
    const TrackId idle = t.internTrack("idle");
    const LabelId job = t.internLabel("job\"q\\\nx");
    const LabelId plain = t.internLabel("plain");
    t.internLabel("interned_never_recorded");
    const EventKindId cs = t.internEventKind("context_switch");

    const sim::TimeNs begins[] = {
        0,
        1,                   // 0.001 us
        999'999'500,         // 999999.5 us rounds across a decade
        999'999'499,         // ... and this one does not
        1'000'000'000,       // 1e+06 us, the first exponent form
        1'234'565'000,       // 6-digit tie, exactly representable
        1'234'575'000,       // tie the other way (round half even)
        123'456'500,         // 123456.5 us: tie in fixed notation
        123'457'500,
        1'234'565,           // 1234.565 us: a tie only in decimal
        9'999'995'000,
        12'345'678'901'234,  // large timeline
        9'007'199'254'740'992, // 2^53 ns
    };
    for (sim::TimeNs b : begins) {
        t.recordInterval(core, job, b, b + 500);      // dur 0.5 us
        t.recordInterval(dsp, plain, b, b + 1'000'000'000);
        t.recordEvent(cs, job, b); // the label doubles as a detail
    }
    // Zero-length intervals are dropped by both writers, so a track
    // holding only those gets no thread_name row either.
    t.recordInterval(idle, plain, 5'000, 5'000);
    t.recordInterval(core, plain, 7'000'000'000, 7'000'000'000);

    EXPECT_EQ(legacyString(t), chromeTraceString(t));
    const std::string json = chromeTraceString(t);
    EXPECT_NE(json.find(R"("ts":1e+06,)"), std::string::npos);
    EXPECT_NE(json.find(R"("ts":1.23456e+06,)"), std::string::npos);
    EXPECT_NE(json.find(R"("ts":1.23458e+06,)"), std::string::npos);
    EXPECT_EQ(json.find("idle"), std::string::npos);
}

TEST(TraceEquiv, EmptyTracerMatchesLegacyBytes)
{
    Tracer empty;
    EXPECT_EQ(chromeTraceString(empty), "[\n\n]\n");
    EXPECT_EQ(legacyString(empty), chromeTraceString(empty));

    // Interned names with nothing recorded serialize the same way.
    Tracer named;
    named.internTrack("core0");
    named.internLabel("job");
    named.internEventKind("migration");
    EXPECT_EQ(chromeTraceString(named), "[\n\n]\n");
}

/** The writer's escape rules, spelled out independently of it. */
std::string
expectedEscape(std::string_view s)
{
    static const char *const kHex = "0123456789abcdef";
    std::string out;
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (u < 0x20) {
                out += "\\u00";
                out += kHex[u >> 4];
                out += kHex[u & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

TEST(TraceEquiv, EscapesEveryControlByteInEveryNameSlot)
{
    std::string nasty = "a";
    for (char c = 0x01; c < 0x20; ++c)
        nasty += c;
    nasty += "\"\\z";
    const std::string track = "tr\x01" "ack";
    const std::string kind = "kind\x1f\"";

    Tracer t;
    const LabelId label = t.internLabel(nasty);
    const LabelId other = t.internLabel("other\\");
    t.recordInterval(t.internTrack(track), label, 1'000, 3'000);
    t.recordInterval(t.internTrack("b"), other, 2'000, 2'500);
    const EventKindId k = t.internEventKind(kind);
    t.recordEvent(k, label, 4'000);
    t.recordEvent(k, other, 5'000);

    const std::string expected =
        "[\n"
        R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":")" +
        expectedEscape("b") + "\"}},\n" +
        R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":")" +
        expectedEscape(track) + "\"}},\n" +
        R"({"name":")" + expectedEscape("other\\") +
        R"(","ph":"X","pid":1,"tid":1,"ts":2,"dur":0.5},)" + "\n" +
        R"({"name":")" + expectedEscape(nasty) +
        R"(","ph":"X","pid":1,"tid":2,"ts":1,"dur":2},)" + "\n" +
        R"({"name":")" + expectedEscape(kind) +
        R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":4,"args":{"detail":")" +
        expectedEscape(nasty) + "\"}},\n" +
        R"({"name":")" + expectedEscape(kind) +
        R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":5,"args":{"detail":")" +
        expectedEscape("other\\") + "\"}}\n]\n";
    EXPECT_EQ(expected, chromeTraceString(t));
    int raw_control = 0;
    for (char c : chromeTraceString(t))
        raw_control += c != '\n' && static_cast<unsigned char>(c) < 0x20;
    EXPECT_EQ(raw_control, 0);
}

TEST(TraceEquiv, NamesResolveAgainstTheTracerBeingWritten)
{
    // Same ids, different names: nothing escaped for one tracer (or
    // for an earlier state of it) may leak into another's document.
    Tracer a, b;
    const LabelId la = a.internLabel("alpha\"");
    const LabelId lb = b.internLabel("beta\\");
    a.recordInterval(a.internTrack("x"), la, 10, 20);
    b.recordInterval(b.internTrack("x"), lb, 10, 20);
    a.recordEvent(a.internEventKind("context_switch"), la, 30);
    b.recordEvent(b.internEventKind("migration"), lb, 30);
    ASSERT_EQ(la, lb);

    const std::string first_a = chromeTraceString(a);
    EXPECT_EQ(legacyString(a), first_a);
    EXPECT_EQ(legacyString(b), chromeTraceString(b));
    EXPECT_EQ(first_a, chromeTraceString(a));

    // A tracer restored from another one writes the other's names.
    a.cloneFrom(b);
    EXPECT_EQ(chromeTraceString(b), chromeTraceString(a));
    a.clear();
    const LabelId fresh = a.internLabel("gamma");
    a.recordInterval(a.internTrack("x"), fresh, 40, 50);
    EXPECT_EQ(legacyString(a), chromeTraceString(a));
}

TEST(TraceEquiv, TimestampSweepMatchesLegacyFormatting)
{
    // 10^6 seeded nanosecond values, two per one-interval trace (as
    // "ts" and "dur"), each checked against the ostream oracle:
    // small values, random magnitudes up to 2^53, and neighbourhoods
    // of 5*10^k, where 6-digit rounding ties live.
    Lcg rng;
    Tracer t;
    const TrackId track = t.internTrack("core0");
    const LabelId label = t.internLabel("job");
    std::ostringstream legacy;
    auto value = [&](int i) -> sim::TimeNs {
        const std::uint64_t r = rng.next();
        switch (i % 3) {
          case 0:
            return static_cast<sim::TimeNs>(r % 3'000'000);
          case 1: {
            const std::uint64_t wide = (r << 16) ^ rng.next();
            return static_cast<sim::TimeNs>(
                       (wide & ((1ull << 53) - 1)) >> (r % 53)) +
                   1;
          }
          default: {
            sim::TimeNs p = 5;
            for (std::uint64_t k = (r >> 8) % 13; k > 0; --k)
                p *= 10;
            return p * 1'000 + static_cast<sim::TimeNs>(r % 4001) -
                   2'000;
          }
        }
    };
    int mismatches = 0;
    for (int i = 0; i < 500'000; ++i) {
        const sim::TimeNs begin = value(i);
        const sim::TimeNs dur = value(i + 1) + 1;
        t.clear();
        t.recordInterval(track, label, begin, begin + dur);
        legacy.str("");
        legacyWriteChromeTrace(legacy, t);
        if (legacy.str() != chromeTraceString(t) && ++mismatches <= 5)
            ADD_FAILURE() << "begin " << begin << " dur " << dur << "\n"
                          << legacy.str() << chromeTraceString(t);
    }
    EXPECT_EQ(mismatches, 0);
}

// --- formatUs against the ostream oracle ---------------------------
//
// formatUs builds the digits from the integer nanoseconds and falls
// back to to_chars on exact six-digit ties, on ns <= 0 and above 2^52.
// Each value below is checked against the legacy writer's own number
// formatting: `os << double(ns) / 1e3` at the default precision.

class UsChecker
{
  public:
    void
    check(sim::TimeNs ns)
    {
        oracle_.str("");
        oracle_ << static_cast<double>(ns) / 1e3;
        char buf[kMaxUsChars];
        const std::string_view got(buf, static_cast<std::size_t>(
                                            formatUs(buf, ns) - buf));
        ++checked_;
        if (got != oracle_.str() && ++mismatches_ <= 5)
            ADD_FAILURE() << "ns " << ns << ": formatUs \"" << got
                          << "\", legacy \"" << oracle_.str() << '"';
    }
    int mismatches() const { return mismatches_; }
    long checked() const { return checked_; }

  private:
    std::ostringstream oracle_;
    int mismatches_ = 0;
    long checked_ = 0;
};

TEST(FormatUs, EveryValueBelowTwoMillion)
{
    UsChecker c;
    for (sim::TimeNs ns = 0; ns < 2'000'000; ++ns)
        c.check(ns);
    EXPECT_EQ(c.mismatches(), 0);
}

TEST(FormatUs, EveryDecadeBoundaryUpTo1e16)
{
    // +-2000 ns around 10^k ns covers each change of digit count, the
    // carry of 999999.5 into the next decade, and the switch to the
    // exponent form at 10^6 us.
    UsChecker c;
    sim::TimeNs p = 1;
    for (int k = 0; k <= 16; ++k, p *= 10)
        for (sim::TimeNs ns = p - 2'000; ns <= p + 2'000; ++ns)
            c.check(ns);
    EXPECT_EQ(c.checked(), 17 * 4'001);
    EXPECT_EQ(c.mismatches(), 0);
}

TEST(FormatUs, ExactTiesTakeTheFallback)
{
    // ns whose digits beyond the sixth are exactly 5 followed by zeros:
    // 10^5 seeded ties, 7 to 16 digits long (the longest lie above the
    // 2^52 bound and take the fallback for that reason too).
    Lcg rng;
    UsChecker c;
    for (int i = 0; i < 100'000; ++i) {
        const int digits = 7 + static_cast<int>(rng.next() % 10);
        const auto sig =
            static_cast<sim::TimeNs>(100'000 + rng.next() % 900'000);
        sim::TimeNs unit = 1;
        for (int d = 6; d < digits; ++d)
            unit *= 10;
        c.check(sig * unit + unit / 2);
    }
    EXPECT_EQ(c.mismatches(), 0);
}

TEST(FormatUs, AtAndAboveTheIntegerBound)
{
    UsChecker c;
    constexpr sim::TimeNs kBound = sim::TimeNs{1} << 52;
    for (sim::TimeNs ns = kBound - 2'000; ns <= kBound + 2'000; ++ns)
        c.check(ns);
    Lcg rng;
    for (int i = 0; i < 20'000; ++i) {
        // Above the bound: up to INT64_MAX.
        const auto r = static_cast<sim::TimeNs>(
            ((rng.next() << 16) ^ rng.next()) >> 1);
        c.check(r < kBound ? r + kBound : r);
    }
    c.check(std::numeric_limits<sim::TimeNs>::max());
    c.check(-1);
    c.check(std::numeric_limits<sim::TimeNs>::min());
    EXPECT_EQ(c.mismatches(), 0);
}

} // namespace
} // namespace aitax::trace
