// Network-wide Earliest Deadline First (Appendix E).
//
// The header carries only the static target output time o(p); each router
// derives a local priority
//     priority(p, α) = o(p) − tmin(p, α, dest) + T(p, α)
// from static topology knowledge. The paper proves this produces exactly
// the same replay schedule as LSTF with dynamic slack; we keep both so the
// equivalence is checkable by construction.
//
// tmin(p, α, dest) is static, so the packet carries it instead of each
// router walking the rest of the path: the network stamps
// packet::remaining_tmin when the packet reaches its ingress router, and
// it shrinks by one hop's transmission plus propagation time as the packet
// crosses each router->router link. A rank is O(1); Debug builds check the
// carried value against network::tmin on every rank.
#pragma once

#include <cassert>

#include "net/network.h"
#include "sched/rank_scheduler.h"
#include "sim/units.h"

namespace ups::core {

class edf final : public sched::rank_scheduler_base<edf> {
 public:
  // `net` must outlive the scheduler; Debug builds recompute tmin from it.
  edf(const net::network& net, sim::bits_per_sec rate)
      : rank_scheduler_base(/*drop_highest_rank=*/true),
        net_(net),
        rate_(rate) {}

  [[nodiscard]] bool ranks_by_remaining_tmin() const noexcept override {
    return true;
  }

  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps /*now*/) const {
    // On arrival at the port of router path[k], p.hop == k + 1 and the
    // packet carries tmin(p, k). At a host NIC (hop == 0) both sides are
    // 0: hop - 1 wraps past the path, and tmin over no hops is empty.
    assert(p.remaining_tmin == net_.tmin(p, p.hop - 1));
    const sim::time_ps tx =
        rate_ == sim::kInfiniteRate
            ? 0
            : sim::transmission_time(p.size_bytes, rate_);
    return p.deadline - p.remaining_tmin + tx;
  }

 private:
  [[maybe_unused]] const net::network& net_;
  sim::bits_per_sec rate_;
};

}  // namespace ups::core
