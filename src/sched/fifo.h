// First-in first-out: the baseline the paper replays and compares against.
//
// Expressed as a rank scheduler with a constant rank: the shared queue's
// FCFS tie-break among equal keys *is* the FIFO order, so the discipline
// rides the same allocation-free keyed_queue as every other policy.
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::sched {

class fifo final : public rank_scheduler_base<fifo> {
 public:
  [[nodiscard]] std::int64_t rank_of(const net::packet& /*p*/,
                                     sim::time_ps /*now*/) const noexcept {
    return 0;  // arrival sequence breaks the tie: pure FCFS
  }
};

}  // namespace ups::sched
