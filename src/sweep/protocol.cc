#include "sweep/protocol.h"

#include <cerrno>

#include <sys/socket.h>

namespace aitax::sweep {

bool
appendFrame(std::string &wire, std::string_view payload)
{
    if (payload.size() > kMaxFramePayload)
        return false;
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int shift = 24; shift >= 0; shift -= 8)
        wire += static_cast<char>((len >> shift) & 0xffu);
    wire.append(payload);
    return true;
}

bool
sendFrame(int fd, std::string_view payload)
{
    std::string wire;
    if (!appendFrame(wire, payload)) {
        shutdown(fd, SHUT_RDWR);
        return false;
    }
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n = send(fd, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
FrameDecoder::feed(std::string_view bytes)
{
    if (corrupt_)
        return;
    raw_.erase(0, head_);
    head_ = 0;
    raw_.append(bytes);
}

FrameDecoder::Status
FrameDecoder::next(std::string &payload)
{
    if (corrupt_)
        return Status::Corrupt;
    if (raw_.size() - head_ < 4)
        return Status::NeedMore;
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
        len = (len << 8) | static_cast<unsigned char>(raw_[head_ + i]);
    if (len > kMaxFramePayload) {
        corrupt_ = true;
        raw_.clear();
        head_ = 0;
        return Status::Corrupt;
    }
    if (raw_.size() - head_ - 4 < len)
        return Status::NeedMore;
    payload.assign(raw_, head_ + 4, len);
    head_ += 4 + static_cast<std::size_t>(len);
    return Status::Frame;
}

} // namespace aitax::sweep
