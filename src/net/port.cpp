#include "net/port.h"

#include <cassert>
#include <utility>

#include "net/network.h"

namespace ups::net {

port::port(network& net, sim::simulator& sim, std::int32_t id, node_id from,
           node_id to, sim::bits_per_sec rate, sim::time_ps prop_delay,
           std::unique_ptr<scheduler> sched, std::int64_t buffer_bytes)
    : net_(net),
      sim_(sim),
      id_(id),
      from_(from),
      to_(to),
      rate_(rate),
      delay_(prop_delay),
      router_link_(net.is_router(from) && net.is_router(to)),
      sched_(std::move(sched)),
      buffer_bytes_(buffer_bytes) {}

void port::receive(packet_ptr p) {
  const sim::time_ps now = sim_.now();
  p->port_enqueue_time = now;
  // Infinitely fast ports (the theory gadgets' "white" routers) forward
  // synchronously: zero transmission time means they can never queue, and
  // cutting through inline keeps same-instant arrivals visible to the next
  // congested port before its (deferred) service decision runs.
  if (rate_ == sim::kInfiniteRate && flow_ == nullptr && !busy() &&
      sched_->empty()) {
    ++stats_.packets_sent;
    stats_.bytes_sent += p->size_bytes;
    if (net_.records_hops() && net_.is_router(from_)) {
      p->hop_departs.push_back(now);
    }
    // Cut-through still completes a hop for the credit ledger: any credit
    // held from the previous governed port becomes releasable once the
    // packet leaves this router.
    p->credit_prev_port = p->credit_port;
    p->credit_port = -1;
    leave(*p, 0);
    net_.transmitted(std::move(p), *this, now);
    return;
  }
  if (buffer_bytes_ > 0 &&
      static_cast<std::int64_t>(sched_->bytes()) + p->size_bytes >
          buffer_bytes_) {
    packet_ptr victim = sched_->evict_for(*p, now);
    if (victim == nullptr) {
      drop(std::move(p));
      return;
    }
    drop(std::move(victim));
  }
  sched_->enqueue(std::move(p), now);
  if (!busy()) {
    schedule_start();
  } else if (preemption_ && sched_->supports_preemption()) {
    maybe_preempt();
  }
}

void port::schedule_start() {
  if (decision_.pending() || busy()) return;
  sim_.defer_late(decision_);
}

void port::start_next() {
  const sim::time_ps now = sim_.now();
  // A head denied by flow control keeps its position: nothing behind it may
  // overtake (head-of-line blocking), so retries always pick it back up
  // before consulting the scheduler.
  const bool resumed = blocked_head_ != nullptr;
  packet_ptr p =
      resumed ? std::move(blocked_head_) : sched_->dequeue(now);
  if (p == nullptr) return;
  // Only a *fresh* transmission consumes downstream credit; a
  // preemption-resumed packet (tx_remaining >= 0) already holds its credit
  // from the initial start.
  const bool fresh = p->tx_remaining < 0;
  if (fresh && flow_ != nullptr && !flow_->can_send(p->size_bytes)) {
    blocked_head_ = std::move(p);
    if (!resumed) {
      // First denial: record the pause; re-denied retries keep the
      // original blocked_since_ so stalled time is counted once.
      blocked_since_ = now;
      ++stats_.pauses;
      net_.flow_port_blocked(*this);
    }
    return;
  }
  if (resumed) {
    const sim::time_ps stalled = now - blocked_since_;
    stats_.stalled_time += stalled;
    ++stats_.resumes;
    ++p->stall_count;
    p->stall_time += stalled;
    if (stalled > p->stall_max) {
      p->stall_max = stalled;
      p->stall_hop = static_cast<std::int32_t>(p->hop) - 1;
    }
    net_.flow_resumed(stalled);
  }
  if (fresh) {
    p->tx_remaining = transmission_time(p->size_bytes);
    p->credit_prev_port = p->credit_port;
    p->credit_port = flow_ != nullptr ? id_ : -1;
    if (flow_ != nullptr) flow_->consume(p->size_bytes);
  }
  current_rank_ = p->sched_key;
  tx_started_ = now;
  current_ = std::move(p);
  sim_.schedule_in(current_->tx_remaining, completion_);
}

void port::maybe_preempt() {
  assert(current_ != nullptr);
  const auto rank = sched_->peek_rank();
  if (!rank.has_value() || *rank >= current_rank_) return;
  const sim::time_ps elapsed = sim_.now() - tx_started_;
  const sim::time_ps remaining = current_->tx_remaining - elapsed;
  if (remaining <= 0) return;  // finishing at this instant anyway
  sim_.cancel(completion_);
  current_->tx_remaining = remaining;
  ++stats_.preemptions;
  // Re-enqueue the paused packet. It keeps its per-hop rank: the scheduler
  // cached it in sched_key, and tx_remaining >= 0 tells the scheduler to
  // reuse it.
  sched_->enqueue(std::move(current_), sim_.now());
  schedule_start();
}

void port::on_complete() {
  assert(current_ != nullptr);
  packet_ptr p = std::move(current_);
  const sim::time_ps now = sim_.now();
  // Waiting = total residence at this port minus pure transmission time;
  // correct under preemption because pauses count as waiting.
  const sim::time_ps tx = transmission_time(p->size_bytes);
  const sim::time_ps waited = (now - p->port_enqueue_time) - tx;
  assert(waited >= 0);
  p->queueing_delay += waited;
  p->slack -= waited;
  p->tx_remaining = -1;
  ++stats_.packets_sent;
  stats_.bytes_sent += p->size_bytes;
  if (net_.records_hops() && net_.is_router(from_)) {
    p->hop_departs.push_back(now);
  }
  leave(*p, tx);
  net_.transmitted(std::move(p), *this, now);
  schedule_start();
}

void port::drop(packet_ptr p) {
  ++stats_.packets_dropped;
  net_.flow_release_all(*p);
  net_.count_drop(*p, from_, sim_.now(), drop_kind::buffer);
}

}  // namespace ups::net
