// Unit tests for time/bandwidth arithmetic and the deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "sim/units.h"

namespace ups::sim {
namespace {

TEST(units, transmission_time_is_exact_for_paper_rates) {
  // 1500 B at 1 Gbps = 12 us, the paper's threshold T.
  EXPECT_EQ(transmission_time(1500, kGbps), 12 * kMicrosecond);
  EXPECT_EQ(transmission_time(1500, 10 * kGbps), 1'200 * kNanosecond);
  EXPECT_EQ(transmission_time(1500, kGbps * 5 / 2), 4'800 * kNanosecond);
  // 125 B (1000 bits) at 1 Gbps = 1 us: the gadget unit.
  EXPECT_EQ(transmission_time(125, kGbps), kMicrosecond);
}

TEST(units, transmission_time_handles_large_sizes) {
  // 1 GB at 1 Gbps = 8 seconds; must not overflow.
  EXPECT_EQ(transmission_time(1'000'000'000, kGbps), 8 * kSecond);
}

TEST(units, transmission_time_64_bit_form_matches_128_bit_form) {
  // Up to kMaxBytesTimedIn64 the quotient is taken in 64 bits; it must be
  // the 128-bit one, on both sides of the limit and for rates that do not
  // divide 10^12, whose quotients are truncated.
  const auto wide = [](std::int64_t bytes, bits_per_sec rate) {
    return static_cast<time_ps>(static_cast<__int128>(bytes) * 8 * kSecond /
                                rate);
  };
  ASSERT_EQ(kMaxBytesTimedIn64, 1'152'921);
  std::vector<std::int64_t> sizes;
  for (std::int64_t b = 0; b <= 1'500; ++b) sizes.push_back(b);
  for (const std::int64_t b : {std::int64_t{9'000}, kMaxBytesTimedIn64,
                               kMaxBytesTimedIn64 + 1,
                               std::int64_t{1'000'000'000}}) {
    sizes.push_back(b);
  }
  for (const bits_per_sec rate :
       {kGbps / 2, kGbps, kGbps * 5 / 2, 10 * kGbps, 40 * kGbps,
        bits_per_sec{7'000'000'000}, bits_per_sec{999'999'937}}) {
    for (const std::int64_t b : sizes) {
      ASSERT_EQ(transmission_time(b, rate), wide(b, rate))
          << b << " B at " << rate << " bps";
    }
  }
}

TEST(units, bytes_in_inverts_transmission_time) {
  for (const bits_per_sec rate : {kGbps, 10 * kGbps, kGbps / 2}) {
    for (const std::int64_t bytes : {40LL, 125LL, 1460LL, 1500LL}) {
      EXPECT_EQ(bytes_in(transmission_time(bytes, rate), rate), bytes);
    }
  }
}

TEST(units, time_conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_micros(kMicrosecond), 1.0);
  EXPECT_EQ(from_seconds(0.5), kSecond / 2);
}

TEST(rng, deterministic_across_instances) {
  rng a(7);
  rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.raw(), b.raw());
}

TEST(rng, derived_streams_differ) {
  rng a = rng::derive(7, 1);
  rng b = rng::derive(7, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.raw() == b.raw()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(rng, uniform_in_unit_interval) {
  rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(rng, next_below_bounds) {
  rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(rng, exponential_mean_close) {
  rng r(11);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(rng, bounded_pareto_within_bounds) {
  rng r(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.bounded_pareto(1.2, 1460, 3e6);
    EXPECT_GE(v, 1460.0 * 0.999);
    EXPECT_LE(v, 3e6 * 1.001);
  }
}

// --- MT19937-64 against std::mt19937_64 -------------------------------------

// Seeds for the engine comparisons: 0, 1, 2^64 - 1, then SplitMix64 outputs
// (the values rng::derive feeds the engine), 1,003 in all.
std::vector<std::uint64_t> engine_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  std::uint64_t state = 2015;
  while (seeds.size() < 1'003) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

// The draw counts around the lazy first round's edges: the first draw, the
// last draws that read an untwisted word k + 156, the first that read a
// twisted one, the round's end and the first full twist.
constexpr std::size_t kDrawCounts[] = {1, 155, 156, 157, 311, 312, 313, 1'300};

TEST(mt19937_64, draws_equal_the_standard_engine) {
  for (const std::uint64_t seed : engine_seeds()) {
    mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    for (std::size_t i = 0; i < 1'300; ++i) {
      ASSERT_EQ(ours(), want()) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(mt19937_64, each_draw_count_continues_the_standard_sequence) {
  // An engine that stops after n draws, however far its first round got,
  // carries on with draw n + 1 of the standard sequence; so does a copy
  // taken there, independently of the original.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   ~std::uint64_t{0}, std::uint64_t{5489}}) {
    for (const std::size_t n : kDrawCounts) {
      mt19937_64 ours(seed);
      std::mt19937_64 want(seed);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ours(), want());
      mt19937_64 copy = ours;
      std::mt19937_64 want_copy = want;
      for (std::size_t i = 0; i < 700; ++i) {
        ASSERT_EQ(ours(), want()) << "seed " << seed << " after " << n;
      }
      for (std::size_t i = 0; i < 700; ++i) {
        ASSERT_EQ(copy(), want_copy()) << "copy, seed " << seed << " after "
                                       << n;
      }
    }
  }
}

TEST(mt19937_64, derived_streams_equal_the_standard_engine) {
  // rng::derive's SplitMix64 step, restated.
  const auto mix = [](std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    rng ours = rng::derive(1, stream);
    std::mt19937_64 want(mix(1, stream));
    for (int i = 0; i < 400; ++i) ASSERT_EQ(ours.raw(), want());
  }
}

TEST(rng, helpers_equal_the_standard_distributions) {
  // Each helper returns what the libstdc++ distribution it stands for
  // returns over std::mt19937_64, draw for draw: next_below's bounds
  // include ones whose rejection zone is large (2^63 + 1 rejects almost
  // half the draws) and 1, which never draws past the first.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  17,
                                  830,
                                  1'000'003,
                                  (std::uint64_t{1} << 32) + 1,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0} - 2,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7},
                                   std::uint64_t{0xCA11B8A7E}}) {
    rng ours(seed);
    std::mt19937_64 want(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 2'000; ++i) {
      for (const std::uint64_t n : bounds) {
        ASSERT_EQ(ours.next_below(n),
                  std::uniform_int_distribution<std::uint64_t>(0, n - 1)(want))
            << "next_below(" << n << ")";
      }
      ASSERT_EQ(ours.uniform(), unit(want));
      ASSERT_EQ(ours.uniform(-3.0, 5.5), -3.0 + (5.5 - -3.0) * unit(want));
      ASSERT_EQ(ours.exponential(250.0),
                std::exponential_distribution<double>(1.0 / 250.0)(want));
      const double u = unit(want);
      const double la = std::pow(1460.0, 1.2);
      const double ha = std::pow(3e6, 1.2);
      ASSERT_EQ(ours.bounded_pareto(1.2, 1460.0, 3e6),
                std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / 1.2));
    }
  }
}

}  // namespace
}  // namespace ups::sim
