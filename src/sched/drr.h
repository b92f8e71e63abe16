// Deficit Round Robin (Shreedhar & Varghese [27]): O(1) approximate fair
// queueing. Included as the second fairness baseline alongside virtual-time
// FQ; the fairness experiments can swap it in via the registry.
//
// Storage follows the slab/freelist pattern pFabric set (and
// tests/test_zero_alloc.cpp enforces): queued packets live in a slab of
// index-linked nodes recycled through a freelist, each flow's FIFO is an
// intrusive singly-linked list through that slab, and the active-flow
// ring is an intrusive list through the flow table itself. Flow bookkeeping
// entries persist across a flow's quiet periods — O(distinct flows seen)
// memory — so re-activating a flow allocates nothing, and steady-state
// enqueue/dequeue performs zero heap allocations.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/scheduler.h"

namespace ups::sched {

class drr final : public net::scheduler {
 public:
  explicit drr(std::int64_t quantum_bytes = 1514)
      : quantum_(quantum_bytes) {}

  void enqueue(net::packet_ptr p, sim::time_ps /*now*/) override {
    const std::int32_t f = flow_slot_for(p->flow_id);
    flow_state& st = flows_[static_cast<std::size_t>(f)];
    bytes_ += p->size_bytes;
    ++packets_;

    std::int32_t n;
    if (!free_nodes_.empty()) {
      n = free_nodes_.back();
      free_nodes_.pop_back();
    } else {
      n = static_cast<std::int32_t>(slab_.size());
      slab_.emplace_back();
    }
    qnode& node = slab_[static_cast<std::size_t>(n)];
    node.p = std::move(p);
    node.next = -1;
    if (st.tail >= 0) {
      slab_[static_cast<std::size_t>(st.tail)].next = n;
    } else {
      st.head = n;
    }
    st.tail = n;

    if (!st.active) {
      st.active = true;
      st.deficit = 0;
      ring_push(f);
    }
  }

  net::packet_ptr dequeue(sim::time_ps /*now*/) override {
    while (ring_head_ >= 0) {
      const std::int32_t f = ring_head_;
      flow_state& st = flows_[static_cast<std::size_t>(f)];
      if (st.head < 0) {
        st.active = false;
        st.deficit = 0;
        ring_pop();
        continue;
      }
      const qnode& head = slab_[static_cast<std::size_t>(st.head)];
      const auto head_size = static_cast<std::int64_t>(head.p->size_bytes);
      if (st.deficit < head_size) {
        st.deficit += quantum_;
        ring_pop();
        ring_push(f);
        continue;
      }
      st.deficit -= head_size;
      net::packet_ptr p = pop_front(st);
      bytes_ -= p->size_bytes;
      --packets_;
      if (st.head < 0) {
        st.active = false;
        st.deficit = 0;
        ring_pop();
      }
      return p;
    }
    return nullptr;
  }

  [[nodiscard]] bool empty() const noexcept override { return packets_ == 0; }
  [[nodiscard]] std::size_t packets() const noexcept override {
    return packets_;
  }
  [[nodiscard]] std::size_t bytes() const noexcept override { return bytes_; }

 private:
  // Queued packet: slab entry linked into its flow's FIFO.
  struct qnode {
    net::packet_ptr p;
    std::int32_t next = -1;
  };
  // Per-flow state; persists (inactive, empty) after the flow drains so its
  // table entry is allocated exactly once per distinct flow.
  struct flow_state {
    std::int32_t head = -1;  // oldest queued packet
    std::int32_t tail = -1;
    std::int64_t deficit = 0;
    bool active = false;     // linked into the ring
    std::int32_t ring_next = -1;
  };

  [[nodiscard]] std::int32_t flow_slot_for(std::uint64_t flow_id) {
    const auto [it, inserted] = flow_slot_.try_emplace(
        flow_id, static_cast<std::int32_t>(flows_.size()));
    if (inserted) flows_.emplace_back();
    return it->second;
  }

  net::packet_ptr pop_front(flow_state& st) {
    const std::int32_t n = st.head;
    qnode& node = slab_[static_cast<std::size_t>(n)];
    net::packet_ptr p = std::move(node.p);
    st.head = node.next;
    if (st.head < 0) st.tail = -1;
    node.next = -1;
    free_nodes_.push_back(n);
    return p;
  }

  void ring_push(std::int32_t f) {
    flows_[static_cast<std::size_t>(f)].ring_next = -1;
    if (ring_tail_ >= 0) {
      flows_[static_cast<std::size_t>(ring_tail_)].ring_next = f;
    } else {
      ring_head_ = f;
    }
    ring_tail_ = f;
  }

  void ring_pop() {
    const std::int32_t f = ring_head_;
    ring_head_ = flows_[static_cast<std::size_t>(f)].ring_next;
    if (ring_head_ < 0) ring_tail_ = -1;
    flows_[static_cast<std::size_t>(f)].ring_next = -1;
  }

  std::int64_t quantum_;
  std::size_t packets_ = 0;
  std::size_t bytes_ = 0;

  std::vector<qnode> slab_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<flow_state> flows_;
  std::unordered_map<std::uint64_t, std::int32_t> flow_slot_;
  std::int32_t ring_head_ = -1;  // round-robin order of active flows
  std::int32_t ring_tail_ = -1;
};

}  // namespace ups::sched
