// LEB128 varints: the one encode/decode implementation shared by every
// byte-stream in the codebase (v3 trace columns, the replay-result codec,
// the dispatch wire protocol). Each consumer throws its own typed error on
// structural damage, so the decoder is templated on the exception type —
// a corrupt stream fails as trace_format_error / codec_error / wire_error,
// never as a generic runtime_error.
//
// Layout: little-endian base-128, 7 payload bits per byte, the high bit a
// continuation flag. A 64-bit value is at most 10 bytes; the decoder
// rejects encodings whose payload exceeds 64 bits ("overlong" in the
// structural sense — non-canonical but in-range encodings like 0x80 0x00
// decode to the same value a canonical encoding would).
//
// get_varint_checked is the only decoder. Trace decode is about 3% of a
// disk replay (trace.decode_share on the benchmark's rf-disk workload), so
// a faster batch decoder beside it could save at most that much.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ups::core {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

// Bounded decode of one value at `p`, which advances past it. Truncation
// mid-value and encodings carrying more than 64 payload bits throw Error;
// `what` names the stream for the message (e.g. "trace v3").
template <typename Error>
[[nodiscard]] inline std::uint64_t get_varint_checked(
    const std::uint8_t*& p, const std::uint8_t* end, const char* what) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (p == end) {
      throw Error(std::string(what) + ": truncated varint");
    }
    const std::uint8_t b = *p++;
    if (shift == 63 && b > 1) {
      throw Error(std::string(what) + ": varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) {
      throw Error(std::string(what) + ": varint overflows 64 bits");
    }
  }
}

}  // namespace ups::core
