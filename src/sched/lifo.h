// Last-in first-out: used by the paper as a hard-to-replay original schedule
// (it produces a strongly skewed slack distribution).
//
// Expressed as a rank scheduler with a strictly decreasing rank per arrival,
// so the newest queued packet is always the minimum of the shared queue.
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::sched {

class lifo final : public rank_scheduler_base<lifo> {
 public:
  [[nodiscard]] std::int64_t rank_of(const net::packet& /*p*/,
                                     sim::time_ps /*now*/) const noexcept {
    return -(++seq_);
  }

 private:
  // rank_of runs exactly once per enqueue: lifo is drop-tail (the base's
  // evict_for never computes an incoming key) and does not preempt (no
  // packet comes back to it with a cached rank), so the per-arrival
  // counter is safe despite the const interface. Any new rank_of call site
  // would bump the counter and perturb the order.
  mutable std::int64_t seq_ = 0;
};

}  // namespace ups::sched
