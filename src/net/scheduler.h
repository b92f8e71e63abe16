// Abstract per-port packet scheduler.
//
// A scheduler is a pure ordering policy over queued packets; the owning port
// performs all transmission timing and slack bookkeeping. Schedulers may use
// packet::sched_key as scratch so that a packet re-enqueued after preemption
// (the one case where it arrives with tx_remaining >= 0) keeps the rank it
// was assigned on arrival at this port.
#pragma once

#include <cstddef>
#include <optional>

#include "net/packet.h"
#include "sim/time.h"

namespace ups::net {

class scheduler {
 public:
  virtual ~scheduler() = default;

  virtual void enqueue(packet_ptr p, sim::time_ps now) = 0;

  // Removes and returns the next packet to serve; nullptr when empty.
  virtual packet_ptr dequeue(sim::time_ps now) = 0;

  [[nodiscard]] virtual bool empty() const noexcept = 0;
  [[nodiscard]] virtual std::size_t packets() const noexcept = 0;
  [[nodiscard]] virtual std::size_t bytes() const noexcept = 0;

  // Buffer overflow: called when `incoming` wants to enter a full buffer.
  // Return the queued packet to evict in its favour, or nullptr to drop the
  // incoming packet itself (drop-tail, the default).
  virtual packet_ptr evict_for(const packet& incoming, sim::time_ps now) {
    (void)incoming;
    (void)now;
    return nullptr;
  }

  // Preemption: rank of the most urgent queued packet (lower = more urgent),
  // comparable against packet::sched_key of the packet in service. Only
  // meaningful when supports_preemption() is true.
  [[nodiscard]] virtual bool supports_preemption() const noexcept {
    return false;
  }
  [[nodiscard]] virtual std::optional<std::int64_t> peek_rank() const {
    return std::nullopt;
  }

  // True if ranks read packet::remaining_tmin (EDF). The network then
  // stamps it on every packet that reaches its ingress router.
  [[nodiscard]] virtual bool ranks_by_remaining_tmin() const noexcept {
    return false;
  }
};

}  // namespace ups::net
