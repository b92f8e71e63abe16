// Tests for the shared LEB128 layer (core/varint.h): round trips across
// every value width, zigzag, and the typed errors of the one decoder —
// every cut inside a value throws "truncated varint" and every encoding
// carrying payload past bit 63 throws "varint overflows 64 bits".
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/varint.h"

namespace ups::core {
namespace {

struct varint_test_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using bytes = std::vector<std::uint8_t>;

// Decodes one value and expects it to throw `message`.
void expect_throws(const std::uint8_t*& p, const std::uint8_t* end,
                   const std::string& message, const std::string& ctx) {
  try {
    (void)get_varint_checked<varint_test_error>(p, end, "t");
    ADD_FAILURE() << ctx << ": decoded";
  } catch (const varint_test_error& e) {
    EXPECT_EQ(e.what(), message) << ctx;
  }
}

TEST(varint, scalar_round_trip_width_sweep) {
  std::vector<std::uint64_t> vals = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000};
  for (int bits = 15; bits < 64; ++bits) {
    vals.push_back((1ull << bits) - 1);
    vals.push_back(1ull << bits);
  }
  vals.push_back(~0ull);
  for (const std::uint64_t v : vals) {
    bytes buf;
    put_varint(buf, v);
    ASSERT_LE(buf.size(), 10u);
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(get_varint_checked<varint_test_error>(
                  p, buf.data() + buf.size(), "t"),
              v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(varint, zigzag_round_trip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  // Small magnitudes map to small codes — the property the columns rely on.
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(varint, batch_matches_scalar_on_truncations) {
  // Encode a mixed run, then decode every truncated prefix: the values
  // wholly inside the prefix come back, and the value the cut lands in
  // throws "truncated varint" — including a cut right at its first byte.
  std::mt19937_64 rng(99);
  bytes buf;
  std::vector<std::uint64_t> vals;
  std::vector<std::size_t> ends;  // offset one past each value's last byte
  for (std::size_t i = 0; i < 40; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 64);
    const std::uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
    vals.push_back(rng() & mask);
    put_varint(buf, vals.back());
    ends.push_back(buf.size());
  }
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const bytes prefix(buf.begin(), buf.begin() + static_cast<long>(cut));
    const std::uint8_t* p = prefix.data();
    const std::uint8_t* end = prefix.data() + prefix.size();
    std::size_t i = 0;
    for (; ends[i] <= cut; ++i) {
      ASSERT_EQ(get_varint_checked<varint_test_error>(p, end, "t"), vals[i])
          << "cut=" << cut << " value " << i;
    }
    expect_throws(p, end, "t: truncated varint", "cut=" + std::to_string(cut));
  }
}

TEST(varint, batch_matches_scalar_on_overlong_encodings) {
  // 10+ continuation bytes (never terminates within the 64-bit budget) and
  // a 10-byte encoding whose final byte carries payload past bit 63 both
  // throw, mid-stream after well-formed values.
  for (const bytes& bad :
       {bytes(12, 0x80),
        bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
        bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}}) {
    // Appended byte by byte: GCC 12 emits a spurious -Warray-bounds for a
    // range insert or copy of `bad` here.
    bytes buf(16, 0x01);
    for (const std::uint8_t b : bad) buf.push_back(b);
    buf.insert(buf.end(), 16, 0x01);
    const std::uint8_t* p = buf.data();
    const std::uint8_t* end = buf.data() + buf.size();
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(get_varint_checked<varint_test_error>(p, end, "t"), 1u);
    }
    expect_throws(p, end, "t: varint overflows 64 bits", "overlong");
  }
  // The canonical 10-byte maximum (~0ull) is legal and must decode.
  bytes ok(16, 0x01);
  put_varint(ok, ~0ull);
  ok.insert(ok.end(), 16, 0x01);
  const std::uint8_t* p = ok.data();
  const std::uint8_t* end = ok.data() + ok.size();
  for (int i = 0; i < 33; ++i) {
    EXPECT_EQ(get_varint_checked<varint_test_error>(p, end, "t"),
              i == 16 ? ~0ull : 1u);
  }
  EXPECT_EQ(p, end);
}

}  // namespace
}  // namespace ups::core
