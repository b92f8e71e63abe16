// Shortest Job First: serves the packet whose flow has the smallest total
// size (the size is stamped into the header at the ingress, as the paper's
// "SJF using priorities" does).
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::sched {

class sjf final : public rank_scheduler_base<sjf> {
 public:
  explicit sjf(bool drop_highest_rank = false)
      : rank_scheduler_base(drop_highest_rank) {}

  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps /*now*/) const noexcept {
    return static_cast<std::int64_t>(p.flow_size_bytes);
  }
};

}  // namespace ups::sched
