/**
 * @file
 * Frame codec mutation test (ctest -L verify).
 *
 * The TCP frame decoder (sweep/protocol.h) is the first code to touch
 * bytes from a remote peer, on both ends of a campaign. A seeded
 * in-tree mutator derives 10^5 byte streams from valid frame streams
 * — bit flips, truncations, splices of two streams, and length
 * prefixes rewritten to 0, to kMaxFramePayload and to just above it —
 * and checks, for every one:
 *
 *  - no delivered payload exceeds kMaxFramePayload;
 *  - an oversized length prefix reports Corrupt and nothing after it
 *    is ever delivered (the result equals a direct walk of the
 *    stream that stops there);
 *  - the output is identical whether the stream arrives whole, one
 *    byte at a time, or in seeded random splits.
 *
 * Encode -> decode must round-trip arbitrary lines, and the socket
 * sender refuses (and hangs up on) a payload no decoder would accept.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "sim/random.h"
#include "sweep/protocol.h"

namespace aitax {
namespace {

using sweep::FrameDecoder;
using sweep::kMaxFramePayload;

/** Everything a decoder delivered for one stream. */
struct Decoded
{
    std::vector<std::string> frames;
    bool corrupt = false;

    bool operator==(const Decoded &o) const
    {
        return frames == o.frames && corrupt == o.corrupt;
    }
};

/** Pop every complete frame @p dec holds into @p d. */
void
drain(FrameDecoder &dec, Decoded &d)
{
    std::string payload;
    for (;;) {
        const FrameDecoder::Status st = dec.next(payload);
        if (st == FrameDecoder::Status::NeedMore)
            return;
        if (st == FrameDecoder::Status::Corrupt) {
            d.corrupt = true;
            return;
        }
        d.frames.push_back(payload);
    }
}

/** Feed @p stream in pieces of cut() bytes (>= 1), draining each time. */
template <typename Cut>
Decoded
decodeInPieces(std::string_view stream, Cut cut)
{
    FrameDecoder dec;
    Decoded d;
    for (std::size_t off = 0; off < stream.size();) {
        const std::size_t n = std::min(stream.size() - off, cut());
        dec.feed(stream.substr(off, n));
        drain(dec, d);
        off += n;
    }
    drain(dec, d);
    return d;
}

Decoded
decodeWhole(std::string_view stream)
{
    return decodeInPieces(stream, [&] { return stream.size(); });
}

/** The specified semantics, as a direct walk over the whole stream. */
Decoded
reference(std::string_view s)
{
    Decoded d;
    std::size_t off = 0;
    while (s.size() - off >= 4) {
        std::uint32_t len = 0;
        for (std::size_t i = 0; i < 4; ++i)
            len = len * 256u + static_cast<unsigned char>(s[off + i]);
        if (len > kMaxFramePayload) {
            d.corrupt = true;
            break;
        }
        if (s.size() - off - 4 < len)
            break;
        d.frames.emplace_back(s.substr(off + 4, len));
        off += 4 + len;
    }
    return d;
}

std::size_t
pick(sim::RandomStream &rng, std::size_t lo, std::size_t hi)
{
    return static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/** Any byte values, mostly protocol-line sized, sometimes longer. */
std::string
randomLine(sim::RandomStream &rng)
{
    std::string line(pick(rng, 0, pick(rng, 0, 7) == 0 ? 300 : 32), '\0');
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < line.size(); ++i, bits >>= 8) {
        if (i % 8 == 0)
            bits = rng.nextU64();
        line[i] = static_cast<char>(bits & 0xffu);
    }
    return line;
}

/** A valid frame stream and where each of its frames starts. */
struct Stream
{
    std::string bytes;
    std::vector<std::string> lines;
    std::vector<std::size_t> starts;
};

Stream
validStream(sim::RandomStream &rng, std::size_t minFrames)
{
    Stream s;
    const std::size_t frames = pick(rng, minFrames, 8);
    for (std::size_t i = 0; i < frames; ++i) {
        s.lines.push_back(randomLine(rng));
        s.starts.push_back(s.bytes.size());
        EXPECT_TRUE(sweep::appendFrame(s.bytes, s.lines.back()));
    }
    return s;
}

void
writeLength(std::string &bytes, std::size_t at, std::uint32_t len)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<char>((len >> (24 - 8 * i)) & 0xffu);
}

TEST(FrameCodec, MutatedStreamsDecodeSafelyInAnySplit)
{
    constexpr int kStreams = 100000;
    sim::RandomStream rng(20210326, "frame-codec-mutator");
    int corrupt = 0;
    int frames = 0;
    for (int iter = 0; iter < kStreams; ++iter) {
        const int kind = static_cast<int>(pick(rng, 0, 5));
        Stream base = validStream(rng, kind >= 3 ? 1 : 0);
        std::string bytes = base.bytes;
        std::size_t rewritten = 0; // frame index, for kinds 3..5
        switch (kind) {
        case 0: // bit flips
            for (std::size_t n = pick(rng, 1, 3); n > 0 && !bytes.empty();
                 --n)
                bytes[pick(rng, 0, bytes.size() - 1)] ^=
                    static_cast<char>(1u << pick(rng, 0, 7));
            break;
        case 1: // truncation
            bytes.resize(pick(rng, 0, bytes.size()));
            break;
        case 2: { // splice: a prefix of one stream + a suffix of another
            const std::string other = validStream(rng, 0).bytes;
            bytes = bytes.substr(0, pick(rng, 0, bytes.size())) +
                    other.substr(pick(rng, 0, other.size()));
            break;
        }
        default: { // rewrite one length prefix
            rewritten = pick(rng, 0, base.starts.size() - 1);
            const std::uint32_t len = kind == 3   ? 0u
                                      : kind == 4 ? kMaxFramePayload
                                                  : kMaxFramePayload + 1;
            writeLength(bytes, base.starts[rewritten], len);
            break;
        }
        }

        const Decoded whole = decodeWhole(bytes);
        ASSERT_EQ(whole, reference(bytes)) << "stream " << iter;
        for (const std::string &f : whole.frames)
            ASSERT_LE(f.size(), kMaxFramePayload) << "stream " << iter;
        ASSERT_EQ(decodeInPieces(bytes, [] { return std::size_t{1}; }),
                  whole)
            << "byte-at-a-time, stream " << iter;
        ASSERT_EQ(decodeInPieces(bytes, [&] { return pick(rng, 1, 64); }),
                  whole)
            << "random splits, stream " << iter;

        if (kind >= 3) {
            // Frames before the rewritten prefix arrive intact; what
            // follows depends on the new length.
            const std::vector<std::string> before(
                base.lines.begin(),
                base.lines.begin() + static_cast<std::ptrdiff_t>(rewritten));
            ASSERT_GE(whole.frames.size(), before.size());
            EXPECT_TRUE(std::equal(before.begin(), before.end(),
                                   whole.frames.begin()));
            if (kind == 3) {
                ASSERT_GT(whole.frames.size(), rewritten);
                EXPECT_TRUE(whole.frames[rewritten].empty());
            } else {
                // 1 MiB never arrives (kind 4) or is refused (kind 5).
                EXPECT_EQ(whole.frames.size(), rewritten);
                EXPECT_EQ(whole.corrupt, kind == 5);
            }
        }
        corrupt += whole.corrupt ? 1 : 0;
        frames += static_cast<int>(whole.frames.size());
    }
    // The mutator must reach both outcomes often, or the test is moot.
    EXPECT_GT(corrupt, kStreams / 10);
    EXPECT_GT(frames, kStreams);
}

TEST(FrameCodec, EncodeDecodeRoundTripsArbitraryLines)
{
    sim::RandomStream rng(77, "frame-codec-roundtrip");
    std::vector<std::string> lines = {"", std::string(1, '\0'), "\n",
                                      std::string(kMaxFramePayload, 'x')};
    for (int i = 0; i < 2000; ++i)
        lines.push_back(randomLine(rng));
    std::string wire;
    for (const std::string &l : lines)
        ASSERT_TRUE(sweep::appendFrame(wire, l));
    const Decoded d = decodeInPieces(wire, [&] { return pick(rng, 1, 9000); });
    EXPECT_FALSE(d.corrupt);
    EXPECT_TRUE(d.frames == lines);

    // A payload no decoder would accept is never encoded.
    std::string untouched = "prefix";
    EXPECT_FALSE(sweep::appendFrame(
        untouched, std::string(kMaxFramePayload + 1, 'x')));
    EXPECT_EQ(untouched, "prefix");
}

TEST(FrameCodec, SendFrameDeliversAndRefusesOversize)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Nobody drains the pair concurrently: a sender that wrongly
    // pushes the oversized frame must time out, not hang the test.
    const timeval limit = {2, 0};
    for (const int fd : fds) {
        setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
        setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    }
    ASSERT_TRUE(sweep::sendFrame(fds[0], "range 0 32"));
    ASSERT_FALSE(
        sweep::sendFrame(fds[0], std::string(kMaxFramePayload + 1, 'x')));

    // The peer gets the valid frame, then end-of-stream: the oversized
    // payload was not sent, and the sender hung up instead.
    FrameDecoder dec;
    char buf[256];
    ssize_t n = 0;
    while ((n = recv(fds[1], buf, sizeof(buf), 0)) > 0)
        dec.feed({buf, static_cast<std::size_t>(n)});
    EXPECT_EQ(n, 0);
    std::string payload;
    ASSERT_EQ(dec.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "range 0 32");
    EXPECT_EQ(dec.next(payload), FrameDecoder::Status::NeedMore);
    close(fds[0]);
    close(fds[1]);
}

} // namespace
} // namespace aitax
