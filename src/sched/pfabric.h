// pFabric-style priority scheduling with starvation prevention [3].
//
// Footnote 8 of the paper: "the router always schedules the earliest
// arriving packet of the flow which contains the highest priority packet."
// In SRPT mode the rank is the remaining flow size stamped at emission; in
// SJF mode it is the total flow size. On overflow the worst-ranked packet
// is dropped (pFabric's drop policy).
//
// Storage is flattened onto pooled structures so steady-state enqueue/
// dequeue performs zero heap allocations (tests/test_zero_alloc.cpp gates
// it): queued packets live in a slab of index-linked nodes recycled
// through a freelist, each flow's arrival order is an intrusive
// doubly-linked list through that slab, and the global (rank, uid) index is
// an ordered tree over the same node-freelist allocator keyed_queue uses.
// Flow bookkeeping entries persist across a flow's quiet periods — O(number
// of distinct flows seen) memory — so re-activating a flow allocates
// nothing.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/scheduler.h"
#include "sched/keyed_queue.h"

namespace ups::sched {

enum class pfabric_mode : std::uint8_t { srpt, sjf };

class pfabric final : public net::scheduler {
 public:
  explicit pfabric(pfabric_mode mode)
      : mode_(mode), rank_index_(std::less<rank_key>{}, alloc{&free_tree_}) {}
  pfabric(const pfabric&) = delete;
  pfabric& operator=(const pfabric&) = delete;

  ~pfabric() override {
    rank_index_.clear();  // returns tree nodes to the freelist first
    for (void* p : free_tree_) ::operator delete(p);
    free_tree_.clear();
  }

  void enqueue(net::packet_ptr p, sim::time_ps now) override;
  net::packet_ptr dequeue(sim::time_ps now) override;

  [[nodiscard]] bool empty() const noexcept override {
    return rank_index_.empty();
  }
  [[nodiscard]] std::size_t packets() const noexcept override {
    return rank_index_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept override { return bytes_; }

  net::packet_ptr evict_for(const net::packet& incoming,
                            sim::time_ps now) override;

 private:
  // Queued packet: slab entry linked into its flow's arrival-order list.
  struct qnode {
    net::packet_ptr p;
    std::int64_t rank = 0;
    std::uint64_t uid = 0;
    std::int32_t flow_slot = -1;
    std::int32_t prev = -1;  // earlier arrival in the same flow
    std::int32_t next = -1;  // later arrival in the same flow
  };
  // Arrival-order endpoints of one flow's queued packets; persists (empty)
  // after the flow drains so its map entry is allocated exactly once.
  struct flow_state {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  [[nodiscard]] std::int64_t rank_of(const net::packet& p) const {
    return static_cast<std::int64_t>(mode_ == pfabric_mode::srpt
                                         ? p.remaining_flow_bytes
                                         : p.flow_size_bytes);
  }
  [[nodiscard]] std::int32_t flow_slot_for(std::uint64_t flow_id);
  // Detaches node `n` from its flow list and the rank index, recycles the
  // slab slot, and hands back its packet.
  net::packet_ptr extract(std::int32_t n);

  pfabric_mode mode_;
  std::uint64_t next_uid_ = 0;
  std::size_t bytes_ = 0;

  std::vector<qnode> slab_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<flow_state> flows_;
  std::unordered_map<std::uint64_t, std::int32_t> flow_slot_;

  // Global rank index: min entry identifies the highest-priority packet,
  // whose *flow* is then served in arrival order; max entry is the eviction
  // victim. Tree nodes recycle through free_tree_ (declared first so it
  // outlives the tree during destruction).
  using rank_key = std::pair<std::int64_t, std::uint64_t>;  // (rank, uid)
  using alloc =
      detail::node_freelist_alloc<std::pair<const rank_key, std::int32_t>>;
  std::vector<void*> free_tree_;
  std::map<rank_key, std::int32_t, std::less<rank_key>, alloc> rank_index_;
};

}  // namespace ups::sched
