// Length-prefixed frame protocol between the dispatch coordinator and its
// worker processes (the tcp_framer idiom: every message is a u32 payload
// length, a one-byte type tag, then the payload — so a receiver can split a
// byte stream into frames without understanding any payload).
//
//   frame     := u32 payload_len (LE) · u8 type · payload[payload_len]
//   ASSIGN    1  coordinator -> worker   varint job
//   RESULT    2  worker -> coordinator   varint job · job payload
//   JOB_ERROR 3  worker -> coordinator   varint job · utf8 message (to end)
//   SHUTDOWN  4  coordinator -> worker   (empty)
//
// Both ends receive through a frame_splitter: a worker feeds it the reads
// of its only socket, the coordinator the reads poll() reports on each of
// its N workers, and each pops complete frames as they form. Malformed
// input — oversized or impossible length, unknown type tag — throws
// wire_error (typed, never a hang or UB); a clean EOF in the middle of a
// frame is the caller's signal that the peer died mid-message
// (frame_splitter::mid_frame).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ups::exp::dispatch {

// Structural damage on the coordinator/worker byte stream.
class wire_error : public std::runtime_error {
 public:
  explicit wire_error(const std::string& what) : std::runtime_error(what) {}
};

enum class frame_type : std::uint8_t {
  assign = 1,
  result = 2,
  job_error = 3,
  shutdown = 4,
};

struct frame {
  frame_type type = frame_type::shutdown;
  std::vector<std::uint8_t> payload;
};

// A result frame carries a whole outcome vector (~10 B per replayed
// packet), so the bound is generous; anything larger is a garbled length
// field, not a real message.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;
inline constexpr std::size_t kFrameHeaderBytes = 5;  // u32 length + u8 type

// --- payload scalar helpers (LEB128 varints, fixed little-endian f64) -----
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
[[nodiscard]] std::uint64_t get_varint(const std::uint8_t*& p,
                                       const std::uint8_t* end);
void put_f64(std::vector<std::uint8_t>& out, double v);
[[nodiscard]] double get_f64(const std::uint8_t*& p, const std::uint8_t* end);

// --- blocking send (unix only, as the process backend is) -----------------
// Writes one frame; returns false if the peer is gone (EPIPE/ECONNRESET —
// sends use MSG_NOSIGNAL, so a dead peer never raises SIGPIPE).
bool send_frame(int fd, frame_type type,
                const std::vector<std::uint8_t>& payload);

// --- incremental splitter ---------------------------------------------------
// feed() raw bytes as reads deliver them; pop() yields complete frames.
class frame_splitter {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  // Extracts the next complete frame into `out`; false if more bytes are
  // needed. Throws wire_error as soon as a header is malformed, even if
  // the declared payload never arrives — a garbage length must fail fast,
  // not hang waiting for 4 GB.
  bool pop(frame& out);
  // True when a partial frame is buffered — at peer EOF this is the
  // difference between a clean close and a truncated result frame.
  [[nodiscard]] bool mid_frame() const { return buf_.size() > pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
};

}  // namespace ups::exp::dispatch
