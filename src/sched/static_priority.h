// Simple (static) priority scheduling: the header carries a priority value
// assigned at the ingress and routers serve the smallest value first. This
// is the paper's "natural candidate" near-UPS that LSTF is proven to beat
// (Appendix F), and the comparison point of §2.3(7) with priority = o(p).
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::sched {

class static_priority final : public rank_scheduler_base<static_priority> {
 public:
  explicit static_priority(bool drop_highest_rank = false)
      : rank_scheduler_base(drop_highest_rank) {}

  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps /*now*/) const noexcept {
    return p.priority;
  }
};

}  // namespace ups::sched
