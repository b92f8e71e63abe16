// Freelist arena recycling packet objects and their embedded vectors.
//
// Creating a packet through the pool is a freelist pop (or a one-time heap
// allocation while the pool grows toward the workload's high-water mark of
// in-flight packets); destroying a pooled packet_ptr resets the packet to
// a default-constructed one whose path/hop_deadlines/hop_departs vectors
// keep their capacity (packet::reset) and pushes it back. In steady state
// the packet lifecycle therefore performs zero heap allocations per
// packet-hop, which tests/test_zero_alloc.cpp gates for every discipline.
//
// The pool must outlive every packet it produced (network declares its pool
// first so members holding packets are destroyed before it). Single-threaded
// like the rest of the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace ups::net {

class packet_pool {
 public:
  packet_pool() = default;
  packet_pool(const packet_pool&) = delete;
  packet_pool& operator=(const packet_pool&) = delete;

  ~packet_pool() {
    for (packet* p : free_) delete p;
  }

  // Acquires a packet in the freshly-constructed state, recycled when
  // possible. The returned pointer's deleter routes destruction back here.
  [[nodiscard]] packet_ptr make() {
    packet* p;
    if (free_.empty()) {
      p = new packet;
      ++created_;
    } else {
      p = free_.back();
      free_.pop_back();
    }
    ++live_;
    return packet_ptr(p, packet_recycler{this});
  }

  // Returns a packet to the freelist. Called by packet_recycler; not meant
  // for direct use.
  void recycle(packet* p) noexcept {
    p->reset();
    ++recycled_;
    --live_;
    // Growing the freelist can in principle throw; fall back to freeing.
    try {
      free_.push_back(p);
    } catch (...) {
      delete p;
      --created_;
    }
  }

  // Packets currently out in the simulation.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  // Packets parked in the freelist, ready for reuse.
  [[nodiscard]] std::size_t pooled() const noexcept { return free_.size(); }
  // Distinct packet objects ever heap-allocated (the high-water mark).
  [[nodiscard]] std::uint64_t created() const noexcept { return created_; }
  // Total recycle operations (≈ packets served without an allocation).
  [[nodiscard]] std::uint64_t recycled() const noexcept { return recycled_; }

 private:
  std::vector<packet*> free_;
  std::size_t live_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace ups::net
