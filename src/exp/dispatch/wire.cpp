#include "exp/dispatch/wire.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/varint.h"

namespace ups::exp::dispatch {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  core::put_varint(out, v);
}

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  return core::get_varint_checked<wire_error>(p, end, "frame payload");
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint8_t raw[8];
  std::memcpy(raw, &v, 8);
  out.insert(out.end(), raw, raw + 8);
}

double get_f64(const std::uint8_t*& p, const std::uint8_t* end) {
  if (end - p < 8) throw wire_error("truncated f64 in frame payload");
  double v;
  std::memcpy(&v, p, 8);
  p += 8;
  return v;
}

namespace {

// Validates a header's length+type, throwing wire_error on damage.
std::uint32_t check_frame_header(const std::uint8_t* header) {
  std::uint32_t len;
  std::memcpy(&len, header, 4);
  if (len > kMaxFramePayload) {
    throw wire_error("frame payload length " + std::to_string(len) +
                     " exceeds the " + std::to_string(kMaxFramePayload) +
                     "-byte bound (garbage length field)");
  }
  const std::uint8_t type = header[4];
  if (type < static_cast<std::uint8_t>(frame_type::assign) ||
      type > static_cast<std::uint8_t>(frame_type::shutdown)) {
    throw wire_error("unknown frame type tag " + std::to_string(type));
  }
  return len;
}

}  // namespace

#if defined(__unix__) || defined(__APPLE__)

namespace {

// Full-buffer send over a SOCK_STREAM socketpair. MSG_NOSIGNAL turns a
// dead peer into EPIPE instead of SIGPIPE (macOS lacks the flag but
// socketpairs there get SO_NOSIGPIPE set at creation by the coordinator).
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

[[nodiscard]] bool send_all(int fd, const std::uint8_t* data,
                            std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: peer gone
    }
    data += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool send_frame(int fd, frame_type type,
                const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kFrameHeaderBytes];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(header, &len, 4);
  header[4] = static_cast<std::uint8_t>(type);
  if (!send_all(fd, header, sizeof header)) return false;
  return payload.empty() || send_all(fd, payload.data(), payload.size());
}

#endif

void frame_splitter::feed(const std::uint8_t* data, std::size_t n) {
  // Drop the consumed prefix before it grows unbounded across a long run.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (1u << 20))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool frame_splitter::pop(frame& out) {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return false;
  const std::uint32_t len = check_frame_header(buf_.data() + pos_);
  if (avail < kFrameHeaderBytes + len) return false;
  out.type = static_cast<frame_type>(buf_[pos_ + 4]);
  out.payload.assign(
      buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes),
      buf_.begin() +
          static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes + len));
  pos_ += kFrameHeaderBytes + len;
  return true;
}

}  // namespace ups::exp::dispatch
