/**
 * @file
 * The campaign worker protocol's wire bytes: the banner, the manifest
 * magic, and the TCP frame codec.
 *
 * The line grammar itself is documented in campaign.h; this header
 * pins what the coordinator (campaign.cc), the worker service
 * (serve.cc) and the transports (transport.cc) must agree on
 * byte-for-byte. Over TCP every protocol line travels as one frame:
 * a 4-byte big-endian payload length followed by the line's bytes
 * (no '\n'). Both ends encode, decode and send frames only through
 * the functions below.
 */

#ifndef AITAX_SWEEP_PROTOCOL_H
#define AITAX_SWEEP_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace aitax::sweep {

/**
 * Worker banner, the first line of every session. A peer that opens
 * with anything else (an older protocol's banner included) is refused.
 */
inline constexpr const char *kWorkerBanner =
    "aitax-sweep-worker-v2 ready";

/** Checkpoint manifest header magic (identity line follows). */
inline constexpr const char *kManifestMagic = "aitax-campaign-v1";

/**
 * Upper bound on one frame's payload (a single protocol line). A
 * larger length prefix means a corrupt or non-protocol peer; both
 * sides drop the connection, which the coordinator treats like any
 * other worker loss (chunk re-dispatch).
 */
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/**
 * Append the frame carrying @p payload to @p wire.
 * @return false (appending nothing) when the payload exceeds
 *         kMaxFramePayload, which no peer would accept.
 */
bool appendFrame(std::string &wire, std::string_view payload);

/**
 * Send one frame on the connected socket @p fd, retrying short and
 * EINTR-interrupted sends. An oversized @p payload is not sent: the
 * connection is shut down instead, just as the peer's decoder would
 * drop it. @return false on refusal or a send error (a vanished peer
 * surfaces as EPIPE, never as SIGPIPE; the read side reports it).
 */
bool sendFrame(int fd, std::string_view payload);

/**
 * Incremental frame decoder: feed it stream bytes as they arrive, in
 * any split, and pop whole payloads. An oversized length prefix makes
 * it Corrupt for good — nothing after it is ever delivered.
 */
class FrameDecoder
{
  public:
    enum class Status
    {
        Frame,    ///< one payload popped
        NeedMore, ///< no complete frame buffered yet
        Corrupt,  ///< oversized length prefix seen; drop the peer
    };

    /** Buffer received bytes (discarded once Corrupt). */
    void feed(std::string_view bytes);

    /** Pop the next complete payload into @p payload. */
    Status next(std::string &payload);

  private:
    std::string raw_;       ///< received bytes from head_ on are undecoded
    std::size_t head_ = 0;  ///< start of the first undecoded frame
    bool corrupt_ = false;
};

} // namespace aitax::sweep

#endif // AITAX_SWEEP_PROTOCOL_H
