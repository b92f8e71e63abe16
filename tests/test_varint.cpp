// Differential tests for the shared LEB128 layer (core/varint.h): the SWAR
// batch decoder must be value-for-value, byte-for-byte, and
// error-for-error identical to the scalar bounds-checked loop on every
// input — uniform and mixed widths, word-boundary-straddling encodings,
// 9/10-byte values, truncations, and overlong encodings. The word sweep is
// also driven directly, so its output is checked value by value and not
// only through the scalar tail that follows it.
#include <gtest/gtest.h>

#include <cstdint>
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

// The reference semantics: `count` successive scalar decodes. Returns the
// decoded values and the consumed-byte offset, or rethrows the scalar
// loop's error.
struct scalar_outcome {
  std::vector<std::uint64_t> values;
  std::size_t consumed = 0;
  bool threw = false;
  std::string error;
};

scalar_outcome decode_scalar(const bytes& buf, std::size_t count) {
  scalar_outcome o;
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  try {
    for (std::size_t i = 0; i < count; ++i) {
      o.values.push_back(get_varint_checked<varint_test_error>(p, end, "t"));
    }
  } catch (const varint_test_error& e) {
    o.threw = true;
    o.error = e.what();
  }
  o.consumed = static_cast<std::size_t>(p - buf.data());
  return o;
}

scalar_outcome decode_batch(const bytes& buf, std::size_t count) {
  scalar_outcome o;
  o.values.assign(count, 0);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  try {
    get_varints<varint_test_error>(p, end, o.values.data(), count, "t");
  } catch (const varint_test_error& e) {
    o.threw = true;
    o.error = e.what();
    o.values.clear();  // partial output is unspecified on throw
  }
  o.consumed = static_cast<std::size_t>(p - buf.data());
  return o;
}

void expect_batch_matches_scalar(const bytes& buf, std::size_t count,
                                 const char* ctx) {
  const auto ref = decode_scalar(buf, count);
  const auto got = decode_batch(buf, count);
  ASSERT_EQ(ref.threw, got.threw) << ctx;
  if (ref.threw) {
    EXPECT_EQ(ref.error, got.error) << ctx;
    return;  // consumed-on-throw is unspecified for the batch decoder
  }
  EXPECT_EQ(ref.consumed, got.consumed) << ctx;
  ASSERT_EQ(ref.values.size(), got.values.size()) << ctx;
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    ASSERT_EQ(ref.values[i], got.values[i]) << ctx << " value " << i;
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

TEST(varint, all_one_byte_detection) {
  bytes buf(100, 0x7f);
  EXPECT_TRUE(all_one_byte_varints(buf.data(), buf.size()));
  buf[63] = 0x80;  // continuation bit mid-buffer
  EXPECT_FALSE(all_one_byte_varints(buf.data(), buf.size()));
  buf[63] = 0x7f;
  buf[99] = 0xff;  // ... and in the scalar tail
  EXPECT_FALSE(all_one_byte_varints(buf.data(), buf.size()));
  EXPECT_TRUE(all_one_byte_varints(buf.data(), 0));
}

TEST(varint, batch_matches_scalar_uniform_widths) {
  std::mt19937_64 rng(7);
  for (int bits = 1; bits <= 64; ++bits) {
    bytes buf;
    std::size_t count = 300;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
      put_varint(buf, rng() & mask);
    }
    expect_batch_matches_scalar(buf, count,
                                ("uniform bits=" + std::to_string(bits))
                                    .c_str());
  }
}

TEST(varint, batch_matches_scalar_mixed_width_fuzz) {
  std::mt19937_64 rng(1234);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t count = rng() % 70;
    bytes buf;
    for (std::size_t i = 0; i < count; ++i) {
      // Geometric-ish width mix biased toward short values, with full
      // 64-bit (10-byte) encodings sprinkled in so every word-boundary
      // straddle pattern shows up across iterations.
      const int bits = 1 + static_cast<int>(rng() % 64);
      const std::uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
      put_varint(buf, rng() & mask);
    }
    expect_batch_matches_scalar(buf, count,
                                ("fuzz iter=" + std::to_string(iter)).c_str());
  }
}

TEST(varint, batch_matches_scalar_on_truncations) {
  // Encode a mixed run, then decode from every truncated prefix: the batch
  // decoder must throw exactly when and what the scalar loop throws.
  std::mt19937_64 rng(99);
  bytes buf;
  const std::size_t count = 40;
  for (std::size_t i = 0; i < count; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 64);
    const std::uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
    put_varint(buf, rng() & mask);
  }
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    bytes prefix(buf.begin(), buf.begin() + cut);
    expect_batch_matches_scalar(prefix, count,
                                ("cut=" + std::to_string(cut)).c_str());
  }
}

TEST(varint, batch_matches_scalar_on_overlong_encodings) {
  // 10 continuation bytes (never terminates within the 64-bit budget) and
  // a 10-byte encoding whose final byte carries payload past bit 63 — both
  // must fail identically through either decoder.
  for (const bytes& bad :
       {bytes(12, 0x80),
        bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
        bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}}) {
    // Lead with one-byte values so the SWAR loop is mid-flight when it
    // meets the bad encoding. Appended byte by byte: GCC 12 emits a
    // spurious -Warray-bounds for a range insert or copy of `bad` here.
    bytes buf(16, 0x01);
    for (const std::uint8_t b : bad) buf.push_back(b);
    buf.insert(buf.end(), 16, 0x01);
    expect_batch_matches_scalar(buf, 33, "overlong");
  }
  // The canonical 10-byte maximum (~0ull) is legal and must decode.
  bytes ok(16, 0x01);
  put_varint(ok, ~0ull);
  ok.insert(ok.end(), 16, 0x01);
  expect_batch_matches_scalar(ok, 33, "max u64");
}

TEST(varint, sweep_words_decodes_encoded_values) {
  // Drive the word sweep directly: every value it reports must equal the
  // value that was encoded, however many it decodes before handing off.
  std::mt19937_64 rng(5150);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t count = 8 + rng() % 60;
    bytes buf;
    std::vector<std::uint64_t> vals;
    for (std::size_t i = 0; i < count; ++i) {
      const int bits = 1 + static_cast<int>(rng() % 56);  // <= 8-byte values
      vals.push_back(rng() & ((1ull << bits) - 1));
      put_varint(buf, vals.back());
    }
    buf.resize(buf.size() + 16);  // slack so the sweep can run to the end
    const std::uint8_t* end = buf.data() + buf.size();

    std::vector<std::uint64_t> out(count, 0);
    const std::uint8_t* p = buf.data();
    const std::size_t n = varint_detail::sweep_words(p, end, out.data(), count);
    ASSERT_GE(n, std::size_t{1});
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], vals[i]) << i;
  }
}

TEST(varint, batch_count_zero_and_tiny_counts) {
  bytes buf;
  for (int i = 0; i < 20; ++i) put_varint(buf, 1000u * i);
  for (std::size_t count : {0u, 1u, 2u, 7u, 8u, 9u}) {
    expect_batch_matches_scalar(buf, count,
                                ("count=" + std::to_string(count)).c_str());
  }
}

}  // namespace
}  // namespace ups::core
