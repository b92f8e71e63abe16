#include "sim/simulator.h"

#include <stdexcept>

namespace ups::sim {

void simulator::throw_past_schedule() {
  throw std::logic_error("simulator: scheduling into the past");
}

void simulator::file(event& ev, time_ps t, std::uint64_t order) {
  assert(!ev.pending());  // filed at most once at a time
  ev.at_ = t;
  ev.order_ = order;
  heap_.push_back(entry{t, order, &ev});
  sift_up(heap_.size() - 1, heap_.back());
  if (heap_.size() > peak_) peak_ = heap_.size();
}

void simulator::sift_up(std::size_t pos, entry e, std::size_t floor) noexcept {
  const auto k = key(e);
  while (pos > floor) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(k < key(heap_[parent]))) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void simulator::sift_down(std::size_t hole, entry e) noexcept {
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
  const entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void simulator::compact() noexcept {
  std::size_t n = 0;
  for (const entry& e : heap_) {
    if (live(e)) heap_[n++] = e;
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
  while (run_next_through(t)) {
  }
  if (now_ < t) now_ = t;
}

void simulator::run_before(time_ps t) {
  if (t < now_) throw_past_schedule();
  // Timestamps are integers and now() is never negative, so "< t" is
  // "<= t - 1".
  run_until(t - 1);
  now_ = t;
}

}  // namespace ups::sim
