#include "net/fault.h"

#include <cstdio>
#include <stdexcept>

#include "net/spec_params.h"

namespace ups::net {

namespace {

// SplitMix64 finalizer: the same avalanche stage sim::rng uses, applied to
// a counter-derived word instead of an advancing state. Any (seed, link,
// ctr, lane) maps to one fixed 64-bit word regardless of evaluation order.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void check_prob(double v, const char* what) {
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument(std::string("fault: ") + what +
                                " must be in [0, 1]");
  }
}

}  // namespace

std::string fault_spec::label() const {
  char buf[96];
  switch (kind) {
    case fault_kind::none:
      return {};
    case fault_kind::bernoulli:
      std::snprintf(buf, sizeof buf, "bern:%g", p);
      return buf;
    case fault_kind::gilbert_elliott:
      std::snprintf(buf, sizeof buf, "ge:%g,%g,%g", p, p_bad, flip);
      return buf;
    case fault_kind::jam:
      if (jam_speedup != 1.0) {
        std::snprintf(buf, sizeof buf, "jam:%g,%g,s%g",
                      static_cast<double>(jam_period) / 1e6, jam_duty,
                      jam_speedup);
      } else {
        std::snprintf(buf, sizeof buf, "jam:%g,%g",
                      static_cast<double>(jam_period) / 1e6, jam_duty);
      }
      return buf;
  }
  return {};
}

fault_spec fault_spec::parse(const std::string& s) {
  fault_spec f;
  if (s.empty() || s == "none") return f;
  const std::size_t colon = s.find(':');
  const std::string head = s.substr(0, colon);
  const std::string body =
      colon == std::string::npos ? std::string{} : s.substr(colon + 1);
  if (head == "bernoulli" || head == "bern") {
    const auto v = parse_spec_params(body, 1, 1, "fault", "bernoulli");
    check_prob(v[0], "bernoulli p");
    f.kind = fault_kind::bernoulli;
    f.p = v[0];
  } else if (head == "ge") {
    const auto v = parse_spec_params(body, 3, 3, "fault", "ge");
    check_prob(v[0], "ge p_g");
    check_prob(v[1], "ge p_b");
    check_prob(v[2], "ge r");
    f.kind = fault_kind::gilbert_elliott;
    f.p = v[0];
    f.p_bad = v[1];
    f.flip = v[2];
  } else if (head == "jam") {
    const auto v = parse_spec_params(body, 2, 3, "fault", "jam");
    f.jam_period = spec_int64(v[0] * 1e6, "fault", "jam period");  // us -> ps
    if (f.jam_period <= 0) {
      throw std::invalid_argument("fault: jam period must be > 0");
    }
    check_prob(v[1], "jam duty");
    f.kind = fault_kind::jam;
    f.jam_duty = v[1];
    if (v.size() == 3) {
      if (v[2] < 1.0) {
        throw std::invalid_argument("fault: jam speedup must be >= 1");
      }
      f.jam_speedup = v[2];
    }
  } else {
    throw std::invalid_argument("fault: unknown model '" + head +
                                "' (want bernoulli|ge|jam|none)");
  }
  return f;
}

double link_fault::uniform(std::uint64_t ctr, std::uint64_t lane) const {
  // Distinct odd multipliers keep the (link, ctr, lane) axes from aliasing
  // before the finalizer mixes; the +1 offsets keep (0, 0, 0) off the raw
  // seed.
  const std::uint64_t x =
      seed_ + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(link_id_) + 1) +
      0xD1B54A32D192ED03ull * (ctr * 2 + lane + 1);
  return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

bool link_fault::lose(sim::time_ps now) {
  switch (spec_.kind) {
    case fault_kind::none:
      return false;
    case fault_kind::bernoulli: {
      const std::uint64_t ctr = counter_++;
      return uniform(ctr, 0) < spec_.p;
    }
    case fault_kind::gilbert_elliott: {
      const std::uint64_t ctr = counter_++;
      const double loss_p = bad_ ? spec_.p_bad : spec_.p;
      const bool lost = uniform(ctr, 0) < loss_p;
      if (uniform(ctr, 1) < spec_.flip) bad_ = !bad_;
      return lost;
    }
    case fault_kind::jam: {
      ++counter_;
      return now % spec_.jam_period <
             static_cast<sim::time_ps>(spec_.jam_duty *
                                       static_cast<double>(spec_.jam_period));
    }
  }
  return false;
}

}  // namespace ups::net
