// Ordered packet container shared by all rank-based schedulers.
//
// Packets are kept sorted by (key, arrival sequence): lower key first, FCFS
// among equal keys. Supports O(log n) min/max removal, which rank schedulers
// need for service (min) and for highest-rank eviction at full buffers (max).
//
// Most packets find their port idle: in a seed-1 LSTF replay of rf-disk's
// RocketFuel trace, 80% of dequeues take the only packet queued. So a lone
// packet waits in an inline slot, with its (key, arrival sequence), while
// the tree is empty, and costs no tree node, rebalance or erase. A second
// arrival moves it into the tree under that same pair, so the order is
// exactly the tree's: FCFS ties and every rank scheduler's output stay the
// same as without the slot.
//
// Behind the slot is an ordered tree over a node freelist: erased nodes are
// recycled instead of freed, so steady-state enqueue/dequeue performs zero
// heap allocations (the freelist only grows toward the backlog's high-water
// mark). The tree backend was chosen over flat binary/min-max heaps by
// measurement: with per-hop rank keys that slide with simulation time,
// ordered-tree churn (insert + leftmost-erase) was ~2x faster than a heap's
// full-depth trickle per pop at every backlog depth from 16 to 4096.
// tests/test_zero_alloc.cpp gates the zero allocations at depths 0-4096.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace ups::sched {

namespace detail {

// Minimal stateful allocator recycling fixed-size tree nodes through a
// freelist owned by the container. Only single-object allocations (tree
// nodes) are recycled; anything else falls through to the global heap.
template <typename T>
class node_freelist_alloc {
 public:
  using value_type = T;

  explicit node_freelist_alloc(std::vector<void*>* free_nodes) noexcept
      : free_nodes_(free_nodes) {}
  template <typename U>
  node_freelist_alloc(const node_freelist_alloc<U>& other) noexcept
      : free_nodes_(other.free_nodes()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 1 && !free_nodes_->empty()) {
      void* p = free_nodes_->back();
      free_nodes_->pop_back();
      return static_cast<T*>(p);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      try {
        free_nodes_->push_back(p);
        return;
      } catch (...) {
        // fall through to a plain free
      }
    }
    ::operator delete(p);
  }

  [[nodiscard]] std::vector<void*>* free_nodes() const noexcept {
    return free_nodes_;
  }

  template <typename U>
  [[nodiscard]] bool operator==(const node_freelist_alloc<U>& o) const noexcept {
    return free_nodes_ == o.free_nodes();
  }

 private:
  std::vector<void*>* free_nodes_;
};

}  // namespace detail

class keyed_queue {
 public:
  keyed_queue() : items_(std::less<order_key>{}, alloc{&free_nodes_}) {}
  // The tree's allocator points at this object's freelist; pinning the
  // container keeps that link trivially valid.
  keyed_queue(const keyed_queue&) = delete;
  keyed_queue& operator=(const keyed_queue&) = delete;

  ~keyed_queue() {
    items_.clear();  // returns every node to the freelist first
    for (void* p : free_nodes_) ::operator delete(p);
    free_nodes_.clear();  // members destruct after this body: no double free
  }

  void insert(std::int64_t key, net::packet_ptr p) {
    bytes_ += p->size_bytes;
    const order_key k{key, next_uid_++};
    if (items_.empty()) {
      if (lone_ == nullptr) {
        lone_ = std::move(p);
        lone_key_ = k;
        return;
      }
      // A second arrival: the lone packet joins the tree under the pair it
      // arrived with, so the order is the tree's as if it had always been
      // there.
      items_.emplace(lone_key_, std::move(lone_));
    }
    items_.emplace(k, std::move(p));
  }

  [[nodiscard]] net::packet_ptr pop_min() {
    if (lone_ != nullptr) return take_lone();
    if (items_.empty()) return nullptr;
    return take(items_.begin());
  }

  [[nodiscard]] net::packet_ptr pop_max() {
    if (lone_ != nullptr) return take_lone();
    if (items_.empty()) return nullptr;
    return take(std::prev(items_.end()));
  }

  [[nodiscard]] std::optional<std::int64_t> min_key() const {
    if (lone_ != nullptr) return lone_key_.first;
    if (items_.empty()) return std::nullopt;
    return items_.begin()->first.first;
  }

  [[nodiscard]] std::optional<std::int64_t> max_key() const {
    if (lone_ != nullptr) return lone_key_.first;
    if (items_.empty()) return std::nullopt;
    return std::prev(items_.end())->first.first;
  }

  [[nodiscard]] bool empty() const noexcept {
    return lone_ == nullptr && items_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() + (lone_ != nullptr ? 1 : 0);
  }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  using order_key = std::pair<std::int64_t, std::uint64_t>;
  using alloc =
      detail::node_freelist_alloc<std::pair<const order_key, net::packet_ptr>>;
  using tree = std::map<order_key, net::packet_ptr, std::less<order_key>, alloc>;

  net::packet_ptr take_lone() noexcept {
    bytes_ -= lone_->size_bytes;
    return std::move(lone_);
  }
  net::packet_ptr take(tree::iterator it) {
    net::packet_ptr p = std::move(it->second);
    bytes_ -= p->size_bytes;
    items_.erase(it);
    return p;
  }

  // Declared before items_ so the freelist outlives the tree during
  // destruction (clear() pushes nodes here before ~keyed_queue frees them).
  std::vector<void*> free_nodes_;
  tree items_;
  // The one-packet slot: holds the queue's only packet, with its (key,
  // arrival sequence), and is empty whenever the tree is not.
  net::packet_ptr lone_;
  order_key lone_key_{};
  std::uint64_t next_uid_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace ups::sched
