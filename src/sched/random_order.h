// Random scheduler: serves a uniformly random queued packet.
//
// The paper's default "hard" original schedule (§2.3): its output is an
// arbitrary interleaving, so replaying it exercises LSTF with no structural
// help from the original algorithm.
//
// Draws come from sim::rng::derive(seed, stream). The generator (2.5 KB of
// MT19937-64 state) is allocated just before the first draw and enqueue
// draws nothing, so the draws are the same whenever it is built, and a port
// that never serves a packet allocates none. It seeds and twists its first
// round one draw at a time (see sim/rng.h), so a port that serves a few
// packets pays for a few draws, not for 312 state words.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/scheduler.h"
#include "sim/rng.h"

namespace ups::sched {

class random_order final : public net::scheduler {
 public:
  random_order(std::uint64_t seed, std::uint64_t stream)
      : seed_(seed), stream_(stream) {}

  void enqueue(net::packet_ptr p, sim::time_ps /*now*/) override {
    bytes_ += p->size_bytes;
    q_.push_back(std::move(p));
  }

  net::packet_ptr dequeue(sim::time_ps /*now*/) override {
    if (q_.empty()) return nullptr;
    if (!rng_) {
      rng_ = std::make_unique<sim::rng>(sim::rng::derive(seed_, stream_));
    }
    const std::size_t i = rng_->next_below(q_.size());
    std::swap(q_[i], q_.back());
    net::packet_ptr p = std::move(q_.back());
    q_.pop_back();
    bytes_ -= p->size_bytes;
    return p;
  }

  [[nodiscard]] bool empty() const noexcept override { return q_.empty(); }
  [[nodiscard]] std::size_t packets() const noexcept override {
    return q_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept override { return bytes_; }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::unique_ptr<sim::rng> rng_;  // built on the first draw
  std::vector<net::packet_ptr> q_;
  std::size_t bytes_ = 0;
};

}  // namespace ups::sched
