#include "sim/simulator.h"

#include <stdexcept>

namespace ups::sim {

void simulator::throw_past_schedule() {
  throw std::logic_error("simulator: scheduling into the past");
}

void simulator::throw_slab_exhausted() {
  throw std::length_error("simulator: more than 2^24 concurrent events");
}

simulator::handle simulator::file(time_ps t, std::uint64_t order,
                                  callback&& cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= kSlotMask) {
      throw_slab_exhausted();
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // Neither the freelist nor the heap can outgrow the slab (every heap
    // entry owns a distinct queued slot), so growing their reservations in
    // lockstep pins steady state at exactly zero allocations.
    free_slots_.reserve(slots_.capacity());
    heap_.reserve(slots_.capacity());
  }
  event_slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.queued = true;
  s.cancelled = false;
  heap_.push_back(heap_entry{t, order, slot});
  sift_up(heap_.size() - 1, heap_.back());
  ++live_;
  return handle{(s.generation << kSlotBits) |
                (static_cast<std::uint64_t>(slot) + 1)};
}

void simulator::cancel(handle h) {
  if (!h.valid()) return;
  const std::uint32_t slot =
      static_cast<std::uint32_t>((h.id & kSlotMask) - 1);
  const std::uint64_t generation = h.id >> kSlotBits;
  if (slot >= slots_.size()) return;
  event_slot& s = slots_[slot];
  // A stale handle (event already ran or was cancelled, slot possibly
  // reused) fails the generation check and is ignored.
  if (s.generation != generation || !s.queued || s.cancelled) return;
  s.cancelled = true;
  s.cb.reset();  // release captures now; the heap entry goes later
  assert(live_ > 0);
  --live_;
  if (++dead_ > live_ + kCompactSlack) compact();
}

void simulator::sift_up(std::size_t pos, heap_entry e,
                        std::size_t floor) noexcept {
  const auto k = key(e);
  while (pos > floor) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(k < key(heap_[parent]))) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void simulator::sift_down(std::size_t hole, heap_entry e) noexcept {
  const std::size_t top = hole;
  const std::size_t n = heap_.size();
  // Both children exist: move the smaller one up, chosen without a branch.
  for (std::size_t l = 2 * hole + 1; l + 1 < n; l = 2 * hole + 1) {
    const std::size_t c = l + (key(heap_[l + 1]) < key(heap_[l]));
    heap_[hole] = heap_[c];
    hole = c;
  }
  if (const std::size_t l = 2 * hole + 1; l < n) {  // a lone last child
    heap_[hole] = heap_[l];
    hole = l;
  }
  sift_up(hole, e, top);
}

void simulator::pop_top() noexcept {
  const heap_entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void simulator::compact() noexcept {
  std::size_t n = 0;
  for (const heap_entry& e : heap_) {
    if (slots_[e.slot].cancelled) {
      retire(e.slot);
    } else {
      heap_[n++] = e;
    }
  }
  heap_.resize(n);
  dead_ = 0;
  for (std::size_t i = n / 2; i-- > 0;) sift_down(i, heap_[i]);
}

void simulator::run() {
  while (run_next()) {
  }
}

void simulator::run_until(time_ps t) {
  for (;;) {
    if (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
      // A dead top must not let run_next() reach past t.
      const std::uint32_t slot = heap_.front().slot;
      pop_top();
      --dead_;
      retire(slot);
      continue;
    }
    const bool due = (!heap_.empty() && heap_.front().at <= t) ||
                     (has_late() && now_ <= t);
    if (!due) break;
    run_next();
  }
  if (now_ < t) now_ = t;
}

}  // namespace ups::sim
