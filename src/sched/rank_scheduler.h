// CRTP base for schedulers that serve the queued packet with the smallest
// rank.
//
// The rank is computed once on arrival at the port — through a statically
// bound, inlinable call to Derived::rank_of, so per-packet rank computation
// costs no virtual dispatch; the port's single virtual enqueue/dequeue call
// is the only indirection on the hot path. The computed rank is cached in
// packet::sched_key so that (a) the owning port can compare the in-service
// packet against newcomers for preemption and (b) a packet re-enqueued after
// preemption keeps the rank it was assigned when it first reached this port.
// Such a packet is the only one that arrives with tx_remaining >= 0 (the
// port's own test for a resumed transmission), so that is when the cached
// rank is kept.
//
// Derived classes provide a public, const member
//     std::int64_t rank_of(const net::packet& p, sim::time_ps now) const
// (lower = served earlier) and inherit everything else, including the
// drop-highest-rank eviction policy over the shared keyed_queue.
#pragma once

#include <cstdint>

#include "net/scheduler.h"
#include "sched/keyed_queue.h"

namespace ups::sched {

template <class Derived>
class rank_scheduler_base : public net::scheduler {
 public:
  // drop_highest_rank: on buffer overflow evict the worst-ranked packet
  // (the paper's LSTF drop policy drops the highest slack, §3).
  explicit rank_scheduler_base(bool drop_highest_rank = false)
      : drop_highest_rank_(drop_highest_rank) {}

  void enqueue(net::packet_ptr p, sim::time_ps now) final {
    const std::int64_t key = key_for(*p, now);
    p->sched_key = key;
    q_.insert(key, std::move(p));
  }

  net::packet_ptr dequeue(sim::time_ps /*now*/) final { return q_.pop_min(); }

  [[nodiscard]] bool empty() const noexcept final { return q_.empty(); }
  [[nodiscard]] std::size_t packets() const noexcept final {
    return q_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept final { return q_.bytes(); }

  net::packet_ptr evict_for(const net::packet& incoming,
                            sim::time_ps now) final {
    if (!drop_highest_rank_ || q_.empty()) return nullptr;
    const std::int64_t incoming_key = key_for(incoming, now);
    if (incoming_key >= *q_.max_key()) return nullptr;  // incoming is worst
    return q_.pop_max();
  }

  [[nodiscard]] std::optional<std::int64_t> peek_rank() const final {
    return q_.min_key();
  }

 private:
  [[nodiscard]] std::int64_t key_for(const net::packet& p,
                                     sim::time_ps now) const {
    if (p.tx_remaining >= 0) return p.sched_key;  // resumed after preemption
    return static_cast<const Derived&>(*this).rank_of(p, now);
  }

  bool drop_highest_rank_;
  keyed_queue q_;
};

}  // namespace ups::sched
