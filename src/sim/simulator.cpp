#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace ups::sim {

namespace {
// Bucket chains are pointer walks over a slab that can dwarf the cache at
// RocketFuel-scale pending sets; fetching the next node while the current
// one is processed hides most of the miss latency.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}
}  // namespace

void simulator::throw_past_schedule() {
  throw std::logic_error("simulator: scheduling into the past");
}

void simulator::throw_slab_exhausted() {
  throw std::length_error("simulator: more than 2^24 concurrent events");
}

simulator::handle simulator::file(time_ps t, std::uint64_t order,
                                  callback cb) {
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
    // The freelist can never exceed the slab, so growing its reservation in
    // lockstep pins steady state at exactly zero allocations even when
    // retirements arrive in bucket-sized bursts.
    free_slots_.reserve(slots_.capacity());
  }
  event_slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.queued = true;
  s.cancelled = false;
  s.at = t;
  s.order = order;
  if (ready_active() && t == ready_time_) {
    // Scheduled for the instant currently being dispatched (t == now_):
    // join the live run at the (phase, seq) position a global priority
    // queue would dispatch it at. Entries already run have been popped, so
    // only the pending tail [ready_pos_, end) — sorted by order — shifts.
    const auto it = std::lower_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
        ready_.end(), s.order,
        [](const wheel_entry& x, std::uint64_t o) { return x.order < o; });
    ready_.insert(it, wheel_entry{t, s.order, slot});
  } else {
    place(slot);
  }
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
  s.cb.reset();  // release captures now; the wheel entry purges lazily
  assert(live_ > 0);
  --live_;
}

int simulator::level_for(time_ps t) const noexcept {
  assert(t >= cur_);
  const std::uint64_t diff =
      static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cur_);
  if (diff == 0) return 0;
  return (63 - std::countl_zero(diff)) / kWheelBits;
}

void simulator::place(std::uint32_t slot) {
  event_slot& s = slots_[slot];
  const int level = level_for(s.at);
  if (level >= kWheelLevels) {
    overflow_push(wheel_entry{s.at, s.order, slot});
    return;
  }
  const int idx = static_cast<int>(
      (static_cast<std::uint64_t>(s.at) >> (kWheelBits * level)) &
      (kWheelSlots - 1));
  std::uint32_t& head =
      bucket_head_[static_cast<std::size_t>(level * kWheelSlots + idx)];
  s.next = head;
  head = slot;
  occupied_[static_cast<std::size_t>(level * kBitmapWords + idx / 64)] |=
      1ull << (idx % 64);
}

int simulator::first_occupied(int level, int from) const noexcept {
  int word = from / 64;
  std::uint64_t m =
      occupied_[static_cast<std::size_t>(level * kBitmapWords + word)] &
      (~0ull << (from % 64));
  for (;;) {
    if (m != 0) return word * 64 + std::countr_zero(m);
    if (++word == kBitmapWords) return -1;
    m = occupied_[static_cast<std::size_t>(level * kBitmapWords + word)];
  }
}

void simulator::clear_occupied(int level, int idx) noexcept {
  occupied_[static_cast<std::size_t>(level * kBitmapWords + idx / 64)] &=
      ~(1ull << (idx % 64));
}

void simulator::migrate_overflow() {
  while (!overflow_.empty()) {
    const wheel_entry top = overflow_[0];
    if (slots_[top.slot].cancelled) {
      retire(top.slot);
      overflow_pop_top();
      continue;
    }
    if (level_for(top.at) >= kWheelLevels) break;
    overflow_pop_top();
    place(top.slot);
  }
}

bool simulator::refill_ready(time_ps limit) {
  ready_.clear();
  ready_pos_ = 0;
  for (;;) {
    // Overflow events never precede wheel events (they live in a later
    // top-level window), so pulling the ones that now fit before searching
    // keeps the wheel complete up to its span.
    migrate_overflow();
    const int idx0 = first_occupied(0, static_cast<int>(
                                           cur_ & (kWheelSlots - 1)));
    if (idx0 >= 0) {
      // Level-0 buckets are one tick wide: every entry shares this exact
      // timestamp, so the bucket *is* the same-instant run.
      const time_ps t =
          (cur_ & ~static_cast<time_ps>(kWheelSlots - 1)) | idx0;
      if (t > limit) return false;
      clear_occupied(0, idx0);
      cur_ = t;
      std::uint32_t n = bucket_head_[static_cast<std::size_t>(idx0)];
      bucket_head_[static_cast<std::size_t>(idx0)] = kNilSlot;
      while (n != kNilSlot) {
        const std::uint32_t next = slots_[n].next;
        if (next != kNilSlot) prefetch(&slots_[next]);
        if (slots_[n].cancelled) {
          retire(n);
        } else {
          ready_.push_back(wheel_entry{slots_[n].at, slots_[n].order, n});
        }
        n = next;
      }
      if (ready_.empty()) continue;  // bucket was fully cancelled
      if (ready_.size() > 1) {
        std::sort(ready_.begin(), ready_.end(),
                  [](const wheel_entry& a, const wheel_entry& b_) {
                    return a.order < b_.order;
                  });
      }
      ready_time_ = t;
      return true;
    }
    int level = 0;
    int idx = -1;
    for (int l = 1; l < kWheelLevels; ++l) {
      idx = first_occupied(l, 0);
      if (idx >= 0) {
        level = l;
        break;
      }
    }
    if (level != 0) {
      // Cascade: the first occupied bucket of the lowest occupied level
      // holds the earliest pending events (lower levels are empty and
      // higher levels cover strictly later slots). Advance the wheel clock
      // to the bucket's start and redistribute its entries downward.
      const int shift = kWheelBits * level;
      const time_ps window_mask =
          (static_cast<time_ps>(1) << (shift + kWheelBits)) - 1;
      const time_ps start =
          (cur_ & ~window_mask) | (static_cast<time_ps>(idx) << shift);
      if (start > limit) return false;
      clear_occupied(level, idx);
      cur_ = start;
      std::uint32_t n =
          bucket_head_[static_cast<std::size_t>(level * kWheelSlots + idx)];
      bucket_head_[static_cast<std::size_t>(level * kWheelSlots + idx)] =
          kNilSlot;
      while (n != kNilSlot) {
        const std::uint32_t next = slots_[n].next;
        if (next != kNilSlot) prefetch(&slots_[next]);
        if (slots_[n].cancelled) {
          retire(n);
        } else {
          place(n);  // lands strictly below `level`
        }
        n = next;
      }
      continue;
    }
    // Wheel empty: jump the clock to the overflow heap's next instant (the
    // migrate at the loop top then pulls everything within span).
    while (!overflow_.empty() && slots_[overflow_[0].slot].cancelled) {
      retire(overflow_[0].slot);
      overflow_pop_top();
    }
    if (overflow_.empty()) {
      // Nothing pending anywhere: rewind the wheel clock to the dispatch
      // clock so intermediate advances past all-cancelled buckets can
      // never strand a future schedule_at(now) behind the wheel.
      cur_ = now_;
      return false;
    }
    if (overflow_[0].at > limit) return false;
    cur_ = overflow_[0].at;
  }
}

void simulator::run_ready_run() {
  while (ready_pos_ < ready_.size()) {
    const wheel_entry e = ready_[ready_pos_++];
    event_slot& s = slots_[e.slot];
    if (s.cancelled) {
      retire(e.slot);
      continue;
    }
    assert(e.at >= now_);
    now_ = e.at;
    ++processed_;
    --live_;
    callback cb = std::move(s.cb);
    retire(e.slot);
    cb();
  }
}

void simulator::run() {
  // One refill (bucket pull + sort) per instant, then straight-line pops.
  while (run_next()) {
  }
}

void simulator::run_until(time_ps t) {
  while (ready_active() ? ready_time_ <= t : refill_ready(t)) {
    run_ready_run();
  }
  if (now_ < t) now_ = t;
}

void simulator::overflow_push(wheel_entry e) {
  std::size_t pos = overflow_.size();
  overflow_.push_back(e);
  while (pos > 0) {
    const std::size_t up = (pos - 1) / kArity;
    if (!before(e, overflow_[up])) break;
    overflow_[pos] = overflow_[up];
    pos = up;
  }
  overflow_[pos] = e;
}

void simulator::overflow_pop_top() {
  const wheel_entry filler = overflow_.back();
  overflow_.pop_back();
  const std::size_t n = overflow_.size();
  if (n == 0) return;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(overflow_[c], overflow_[best])) best = c;
    }
    if (!before(overflow_[best], filler)) break;
    overflow_[pos] = overflow_[best];
    pos = best;
  }
  overflow_[pos] = filler;
}

}  // namespace ups::sim
