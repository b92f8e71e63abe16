// Bandwidth and size units plus exact link-timing arithmetic.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace ups::sim {

// Link capacities are bits per second.
using bits_per_sec = std::int64_t;

inline constexpr bits_per_sec kMbps = 1'000'000;
inline constexpr bits_per_sec kGbps = 1'000'000'000;

// Sentinel for "infinitely fast" ports (zero transmission time); used by the
// theory gadgets whose uncongested routers transmit instantaneously.
inline constexpr bits_per_sec kInfiniteRate = INT64_MAX;

// Sizes up to this many bytes time in 64-bit arithmetic: bytes * 8 * kSecond
// fits in an int64_t (1,152,921 B, every packet).
inline constexpr std::int64_t kMaxBytesTimedIn64 = INT64_MAX / (8 * kSecond);

// Exact transmission time of `bytes` at `rate` in picoseconds. Larger sizes
// take a 128-bit intermediate, so multi-megabyte sizes cannot overflow; both
// forms give the same quotient.
[[nodiscard]] constexpr time_ps transmission_time(std::int64_t bytes,
                                                  bits_per_sec rate) noexcept {
  if (bytes >= 0 && bytes <= kMaxBytesTimedIn64) {
    return bytes * 8 * kSecond / rate;
  }
  const auto bits = static_cast<__int128>(bytes) * 8;
  return static_cast<time_ps>(bits * kSecond / rate);
}

// Bytes that can be transmitted in `t` picoseconds at `rate` (rounded down).
[[nodiscard]] constexpr std::int64_t bytes_in(time_ps t,
                                              bits_per_sec rate) noexcept {
  const auto bits = static_cast<__int128>(t) * rate / kSecond;
  return static_cast<std::int64_t>(bits / 8);
}

}  // namespace ups::sim
