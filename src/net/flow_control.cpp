#include "net/flow_control.h"

#include <cstdio>

#include "net/spec_params.h"

namespace ups::net {

namespace {

// One full-size packet: a credit budget (or a pause high threshold) below
// this could never admit an MTU-sized transmission, i.e. guaranteed
// deadlock by construction.
constexpr std::int64_t kMinBudgetBytes = 1500;

// The longest credit-return delay a spec may ask for: one simulated second,
// far above any link's round trip. Credit returns land up to this far
// ahead, and the stall watchdog checks every few round trips, so both stay
// far inside the range of simulated time.
constexpr sim::time_ps kMaxCreditRtt = sim::kSecond;

}  // namespace

std::string flow_spec::label() const {
  char buf[96];
  switch (kind) {
    case flow_kind::none:
      return {};
    case flow_kind::credit:
      if (return_delay >= 0) {
        std::snprintf(buf, sizeof buf, "credit:%lld,%g",
                      static_cast<long long>(credit_bytes),
                      static_cast<double>(return_delay) / 1e6);
      } else {
        std::snprintf(buf, sizeof buf, "credit:%lld",
                      static_cast<long long>(credit_bytes));
      }
      return buf;
    case flow_kind::pause:
      std::snprintf(buf, sizeof buf, "pause:%lld,%lld",
                    static_cast<long long>(pause_high),
                    static_cast<long long>(pause_low));
      return buf;
  }
  return {};
}

flow_spec flow_spec::parse(const std::string& s) {
  flow_spec f;
  if (s.empty() || s == "none") return f;
  const std::size_t colon = s.find(':');
  const std::string head = s.substr(0, colon);
  const std::string body =
      colon == std::string::npos ? std::string{} : s.substr(colon + 1);
  if (head == "credit") {
    const auto v = parse_spec_params(body, 1, 2, "flow", "credit");
    const std::int64_t bytes = spec_int64(v[0], "flow", "credit budget");
    if (bytes < kMinBudgetBytes) {
      throw std::invalid_argument(
          "flow: credit budget must be >= " + std::to_string(kMinBudgetBytes) +
          " bytes (one full-size packet)");
    }
    f.kind = flow_kind::credit;
    f.credit_bytes = bytes;
    if (v.size() == 2) {
      if (v[1] < 0.0) {
        throw std::invalid_argument("flow: credit rtt_us must be >= 0");
      }
      f.return_delay =
          spec_int64(v[1] * 1e6, "flow", "credit rtt_us");  // us -> ps
      if (f.return_delay > kMaxCreditRtt) {
        char rtt[32];
        std::snprintf(rtt, sizeof rtt, "%.15g", v[1]);
        throw std::invalid_argument(
            std::string("flow: credit rtt_us ") + rtt +
            " is above one simulated second (1000000 us)");
      }
    }
  } else if (head == "pause") {
    const auto v = parse_spec_params(body, 2, 2, "flow", "pause");
    const std::int64_t high = spec_int64(v[0], "flow", "pause high");
    const std::int64_t low = spec_int64(v[1], "flow", "pause low");
    if (high < kMinBudgetBytes) {
      throw std::invalid_argument(
          "flow: pause high must be >= " + std::to_string(kMinBudgetBytes) +
          " bytes (one full-size packet)");
    }
    if (low <= 0 || low >= high) {
      throw std::invalid_argument(
          "flow: pause thresholds need high > low > 0 "
          "(equal thresholds can never resume)");
    }
    f.kind = flow_kind::pause;
    f.pause_high = high;
    f.pause_low = low;
  } else {
    throw std::invalid_argument("flow: unknown mode '" + head +
                                "' (want credit|pause|none)");
  }
  return f;
}

}  // namespace ups::net
