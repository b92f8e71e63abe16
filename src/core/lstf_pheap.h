// LSTF backed by the pipelined heap instead of a balanced tree.
//
// Functionally identical ordering to core::lstf (same per-hop key, same
// FCFS tie-break); exists to demonstrate §5's hardware-feasibility claim
// with the data structure the paper cites, and to let the microbenchmarks
// compare the two backings. Does not support the drop-highest-slack
// eviction (a hardware p-heap is min-extract only), so it is used with
// unbounded buffers — exactly the replay setting.
#pragma once

#include "core/pheap.h"
#include "net/scheduler.h"
#include "sim/units.h"

namespace ups::core {

class lstf_pheap final : public net::scheduler {
 public:
  explicit lstf_pheap(sim::bits_per_sec rate) : rate_(rate) {}

  void enqueue(net::packet_ptr p, sim::time_ps now) override {
    // A packet resumed after preemption (tx_remaining >= 0) keeps its rank.
    if (p->tx_remaining < 0) {
      const sim::time_ps tx =
          rate_ == sim::kInfiniteRate
              ? 0
              : sim::transmission_time(p->size_bytes, rate_);
      p->sched_key = now + p->slack + tx;
    }
    bytes_ += p->size_bytes;
    const std::int64_t key = p->sched_key;
    heap_.insert(key, std::move(p));
  }

  net::packet_ptr dequeue(sim::time_ps /*now*/) override {
    if (heap_.empty()) return nullptr;
    net::packet_ptr p = heap_.pop_min();
    bytes_ -= p->size_bytes;
    return p;
  }

  [[nodiscard]] bool empty() const noexcept override { return heap_.empty(); }
  [[nodiscard]] std::size_t packets() const noexcept override {
    return heap_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept override { return bytes_; }

  [[nodiscard]] std::optional<std::int64_t> peek_rank() const override {
    if (heap_.empty()) return std::nullopt;
    return heap_.peek_rank();
  }

  [[nodiscard]] const pheap<net::packet_ptr>& heap() const noexcept {
    return heap_;
  }

 private:
  sim::bits_per_sec rate_;
  std::size_t bytes_ = 0;
  pheap<net::packet_ptr> heap_{8};
};

}  // namespace ups::core
