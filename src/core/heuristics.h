// Practical slack-initialization heuristics (§3 of the paper).
//
// In practical mode there is no recorded schedule: the sender (the "ingress"
// of §3) initializes the slack header with a heuristic chosen for the
// network-wide objective, and LSTF in the switches does the rest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "net/packet.h"
#include "sim/time.h"
#include "sim/units.h"

namespace ups::core {

// §3.1 — minimize mean FCT: slack(p) = flow_size(p) × D with D much larger
// than any packet delay (the paper uses D = 1 sec). The huge spacing between
// distinct sizes makes LSTF order packets by flow size (SJF), while the
// accumulated-wait term breaks ties FIFO+-style within a size class.
//
// We measure the flow size in MSS-sized packets so that size × D stays well
// inside 64-bit picoseconds: adjacent size classes are D = 1 s apart, far
// beyond any delay the network can accumulate, so the LSTF ordering over
// different size classes is exactly SJF's.
class fct_slack {
 public:
  explicit fct_slack(sim::time_ps d = sim::kSecond, std::uint32_t mss = 1460)
      : d_(d), mss_(mss) {}

  [[nodiscard]] sim::time_ps slack_for(std::uint64_t flow_size_bytes) const {
    const std::uint64_t pkts = (flow_size_bytes + mss_ - 1) / mss_;
    const std::uint64_t capped = std::min<std::uint64_t>(pkts, kPacketCap);
    return static_cast<sim::time_ps>(capped) * d_;
  }

  // 1e6 packets × 1 s = 1e18 ps < 2^62: overflow-safe under any addition the
  // schedulers perform.
  static constexpr std::uint64_t kPacketCap = 1'000'000;

 private:
  sim::time_ps d_;
  std::uint32_t mss_;
};

// §3.2 — minimize tail packet delay: every packet gets the same initial
// slack (1 sec), which makes LSTF identical to FIFO+.
class tail_slack {
 public:
  explicit tail_slack(sim::time_ps uniform = sim::kSecond)
      : uniform_(uniform) {}
  [[nodiscard]] sim::time_ps slack_for() const noexcept { return uniform_; }

 private:
  sim::time_ps uniform_;
};

// §3.3 — asymptotic fairness via a Virtual Clock [32] at the ingress:
//   slack(p_0)  = 0
//   slack(p_i)  = max(0, slack(p_{i-1}) + bits(p_i)/r_est − (i(p_i) − i(p_{i-1})))
// Any r_est ≤ r* (the fair rate) converges to the fair share as long as all
// flows use the same value; weighted fairness falls out of per-flow r_est.
class fairness_slack {
 public:
  explicit fairness_slack(sim::bits_per_sec r_est) : r_est_(r_est) {}

  // Returns the slack for the next packet of `flow` arriving now.
  [[nodiscard]] sim::time_ps next(std::uint64_t flow,
                                  std::uint32_t size_bytes, sim::time_ps now);

 private:
  struct flow_state {
    sim::time_ps last_slack = 0;
    sim::time_ps last_arrival = 0;
    bool seen = false;
  };
  sim::bits_per_sec r_est_;
  std::unordered_map<std::uint64_t, flow_state> flows_;
};

}  // namespace ups::core
