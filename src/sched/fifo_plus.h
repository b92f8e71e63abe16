// FIFO+ (Clark, Shenker, Zhang 1992): packets are ordered by the arrival
// time they would have had if they had seen no queueing at previous hops,
// i.e. packets that already waited longer upstream are served earlier.
//
// §3.2 of the paper observes this is exactly LSTF with a uniform initial
// slack; tests/test_lstf.cpp checks that equivalence.
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::sched {

class fifo_plus final : public rank_scheduler_base<fifo_plus> {
 public:
  explicit fifo_plus(bool drop_highest_rank = false)
      : rank_scheduler_base(drop_highest_rank) {}

  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps now) const noexcept {
    return now - p.queueing_delay;
  }
};

}  // namespace ups::sched
