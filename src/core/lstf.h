// Least Slack Time First — the paper's near-universal scheduler.
//
// Each packet carries its remaining slack in the header; the slack is
// initialized at the ingress (by the replay engine or by a §3 heuristic) and
// rewritten at every hop: the owning port subtracts the time the packet
// waited. Per Appendix D the remaining slack of the packet's *last bit* at
// service time t is
//     slack(p, α, t) = slack_in_header + (t_enqueue − t) + T(p, α)
// so ordering by the static per-hop key
//     key = t_enqueue + slack_in_header + T(p, α)
// serves exactly the least-slack packet, and equals the EDF priority of
// Appendix E (tests/test_edf_equiv.cpp verifies the equivalence end-to-end).
//
// The preemptive variant implements the theory's fragmentation model with
// resume semantics: a more urgent arrival pauses the packet in service and
// the remainder re-contends with its original per-hop key.
#pragma once

#include "sched/rank_scheduler.h"
#include "sim/units.h"

namespace ups::core {

class lstf final : public sched::rank_scheduler_base<lstf> {
 public:
  explicit lstf(sim::bits_per_sec rate, bool preemptive = false,
                bool drop_highest_slack = true)
      : rank_scheduler_base(drop_highest_slack),
        rate_(rate),
        preemptive_(preemptive) {}

  [[nodiscard]] bool supports_preemption() const noexcept override {
    return preemptive_;
  }

  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps now) const noexcept {
    const sim::time_ps tx =
        rate_ == sim::kInfiniteRate
            ? 0
            : sim::transmission_time(p.size_bytes, rate_);
    return now + p.slack + tx;
  }

 private:
  sim::bits_per_sec rate_;
  bool preemptive_;
};

}  // namespace ups::core
