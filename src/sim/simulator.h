// Discrete-event simulation kernel.
//
// A single-threaded event loop over a slab of reusable event slots addressed
// by generation-stamped handles, ordered by one flat binary min-heap of
// (time, phase, sequence) keys. A heap entry carries its whole sort key, so
// sifting never touches the slab. Push sifts up; pop walks the hole to a
// leaf along the smaller child, picked without a branch, and sifts the
// displaced last entry back up from there (Floyd's bottom-up pop).
//
// The pending set is small: a replay holds about one event per port (a wire
// owns one event for its head packet, see net/network.h) and a traffic
// source holds one pending start (see traffic/source.h), so O(log n) over a
// few hundred entries is a handful of cache-resident compares.
//
// Events scheduled for the same instant run early < normal, then in
// scheduling order, which keeps every simulation deterministic. The heap
// dispatches by exactly that key, so the order is a global (time, phase,
// sequence) priority queue by construction. Callbacks deferred with
// defer_late() never touch the heap: they wait in a FIFO run list and run
// at the current instant once no early or normal event is left at it,
// normal events they file for that instant included. That is the order a
// third heap phase keyed by (now, late, sequence) would give, so
// tests/test_sim_wheel.cpp fuzzes the kernel against an ordered-map model
// of the three-phase queue. Steady-state scheduling is allocation-free:
// slots are recycled through a freelist, the heap and the freelist grow
// their reservations in lockstep with the slab, the run list keeps its
// capacity, and callbacks are stored inline (see sim/callback.h).
//
// Cancellation marks the slot and drops the callback immediately; the dead
// heap entry is discarded when it reaches the top. Dead entries never pile
// up: once they outnumber live events by more than kCompactSlack, they are
// all removed at once and the heap is rebuilt in O(n), so a timer that is
// cancelled and re-armed far ahead on every packet (a TCP retransmit clock)
// keeps the slab at a few dozen slots. A live-event counter keeps
// empty()/pending() exact, and the slot's generation stamp makes cancelling
// an already-run (or already-cancelled) handle a structural no-op: stale
// handles can never corrupt accounting or leak, by construction. Deferred
// callbacks have no handle and cannot be cancelled.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace ups::sim {

class simulator {
 public:
  using callback = inline_callback;

  // Opaque generation-stamped reference to a scheduled event. `id` packs
  // (generation << 24) | (slot + 1); 0 is the null handle. 24 bits bound
  // the slab at ~16.7M concurrently tracked events (~1 GB of slots, far
  // beyond any experiment) which buys a 40-bit generation: a slot must be
  // reused ~10^12 times before a stale handle could alias a live event.
  struct handle {
    std::uint64_t id = 0;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  simulator() = default;
  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  [[nodiscard]] time_ps now() const noexcept { return now_; }

  handle schedule_at(time_ps t, callback cb) {
    return schedule(t, kPhaseNormal, std::move(cb));
  }

  // Relative scheduling. now + dt saturates to the latest representable
  // instant instead of overflowing: an effectively-infinite relative timer
  // (e.g. an idle TCP retransmit clock at WAN scale) parks at the end of
  // time — still cancellable, never wrapping into the past.
  handle schedule_in(time_ps dt, callback cb) {
    return schedule(future_time(now_, dt), kPhaseNormal, std::move(cb));
  }

  // Runs before every normal event with the same timestamp, regardless of
  // when it was scheduled. The replay feeder uses this: the packets it
  // injects at instant t reach their ingress queues before every forwarded
  // arrival at t, even one whose event was scheduled earlier, so injection
  // order depends only on (time, injection sequence) and rank ties resolve
  // the same way however far ahead the trace is read.
  handle schedule_early(time_ps t, callback cb) {
    return schedule(t, kPhaseEarly, std::move(cb));
  }

  // Defers cb to the end of the current instant: it runs at now(), after
  // every early and normal event at now() (normal events filed for now()
  // meanwhile included, even by an earlier deferred callback), in FIFO
  // order among deferred callbacks. Ports use this for service decisions so
  // that all same-instant packet arrivals — even those still propagating
  // through zero-delay forwarding chains — are visible to the scheduler
  // before it picks. A deferred callback takes no event slot, no heap entry
  // and no handle: it cannot be cancelled.
  void defer_late(callback cb) { late_.push_back(std::move(cb)); }

  // Reserved sequence numbers: an event decided now but filed later.
  // reserve_seq() consumes and returns the sequence number a schedule_at
  // issued at this moment would get. schedule_reserved(t, seq, cb) files a
  // normal-phase event under it, so it dispatches exactly where that
  // schedule_at(t, cb) would have, and no other event's number shifts.
  // Network wires use this (a packet's landing event keeps the key of the
  // moment it was launched, but is only filed once the packet reaches the
  // head of its wire), and so do traffic sources (each start keeps the key
  // it had when the source was built, but is only filed when the previous
  // start runs).
  //
  // Precondition: the event is filed before dispatch reaches the point
  // where that schedule_at would have run it, i.e. from the reserving
  // event itself or from any event that would have dispatched before it
  // (same-instant filing included). A later filing would dispatch out of
  // order and is a caller bug; scheduling into the past still throws
  // std::logic_error.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return next_seq_++; }
  handle schedule_reserved(time_ps t, std::uint64_t seq, callback cb) {
    assert(seq < next_seq_);
    if (t < now_) throw_past_schedule();
    return file(t, (static_cast<std::uint64_t>(kPhaseNormal) << 62) | seq,
                std::move(cb));
  }

  // Cancels a pending event. Cancelling an already-run, already-cancelled,
  // or unknown handle is a harmless no-op (the generation stamp no longer
  // matches).
  void cancel(handle h);

  // Runs the next pending event or deferred callback; returns false if
  // there is none. Defined inline: this is the innermost loop of every
  // experiment.
  bool run_next() {
    while (!heap_.empty()) {
      const heap_entry top = heap_.front();
      if (top.at > now_ && has_late()) break;  // this instant is not over
      pop_top();
      event_slot& s = slots_[top.slot];
      if (s.cancelled) {
        --dead_;
        retire(top.slot);
        continue;
      }
      assert(top.at >= now_);
      now_ = top.at;
      ++processed_;
      --live_;
      // Detach the callback and retire the slot *before* invoking, so the
      // callback can freely schedule (possibly into this slot) or cancel.
      callback cb = std::move(s.cb);
      retire(top.slot);
      cb();
      return true;
    }
    return run_late();
  }

  // Runs until the event queue and the run list drain.
  void run();

  // Runs events with timestamp <= t (and the callbacks they defer), then
  // advances the clock to t.
  void run_until(time_ps t);

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  // Scheduled events not yet run or cancelled, plus deferred callbacks.
  [[nodiscard]] std::size_t pending() const noexcept {
    return live_ + (late_.size() - late_next_);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  // Capacity of the slot slab (high-water mark of concurrently tracked
  // events, cancelled ones awaiting removal included; deferred callbacks
  // take no slot); exposed for tests and benches.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

 private:
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ull << 40) - 1;
  // Same-instant ordering: early < normal, then scheduling order.
  static constexpr std::uint8_t kPhaseEarly = 0;
  static constexpr std::uint8_t kPhaseNormal = 1;
  // Dead heap entries tolerated beyond the live count before compaction.
  static constexpr std::size_t kCompactSlack = 64;

  struct event_slot {
    std::uint64_t generation = 0;  // kept within kGenMask; see handle
    bool queued = false;     // has a heap entry (live or awaiting removal)
    bool cancelled = false;  // dead entry: discard when it surfaces
    callback cb;
  };

  // `order` packs (phase << 62) | seq — phase (early/normal) dominates,
  // then scheduling order; seq is a process-lifetime counter and
  // cannot reach 2^62. Every key is unique, so the dispatch order is total.
  struct heap_entry {
    time_ps at;
    std::uint64_t order;
    std::uint32_t slot;
  };
  // One 128-bit compare per sift step; `at` is never negative.
  [[nodiscard]] static unsigned __int128 key(const heap_entry& e) noexcept {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at))
            << 64) |
           e.order;
  }

  [[nodiscard]] static time_ps future_time(time_ps now, time_ps dt) noexcept {
    if (dt > 0 && now > std::numeric_limits<time_ps>::max() - dt) {
      return std::numeric_limits<time_ps>::max();
    }
    return now + dt;
  }

  // The callback travels by reference down to its slot: each move of an
  // inline_callback is an indirect call.
  handle schedule(time_ps t, std::uint8_t phase, callback&& cb) {
    if (t < now_) throw_past_schedule();
    return file(t, (static_cast<std::uint64_t>(phase) << 62) | next_seq_++,
                std::move(cb));
  }
  // Files an event at t >= now() under a packed (phase << 62) | seq key.
  handle file(time_ps t, std::uint64_t order, callback&& cb);

  // Places `e` at index `pos` or above it, no higher than `floor`.
  void sift_up(std::size_t pos, heap_entry e, std::size_t floor = 0) noexcept;
  // Refills the hole at `hole` with `e`: walks the hole down to a leaf along
  // the smaller child, then sifts `e` up from there, no higher than `hole`.
  void sift_down(std::size_t hole, heap_entry e) noexcept;
  // Removes the top entry.
  void pop_top() noexcept;
  // Drops every cancelled entry, retiring its slot, and re-heapifies.
  void compact() noexcept;

  // Retires a slot: bumps the generation (invalidating outstanding handles)
  // and pushes it onto the freelist.
  void retire(std::uint32_t slot) {
    event_slot& s = slots_[slot];
    s.queued = false;
    s.cancelled = false;
    s.generation = (s.generation + 1) & kGenMask;
    free_slots_.push_back(slot);
  }

  [[nodiscard]] bool has_late() const noexcept {
    return late_next_ != late_.size();
  }
  // Runs the oldest deferred callback; returns false if there is none.
  bool run_late() {
    if (!has_late()) return false;
    callback cb = std::move(late_[late_next_]);
    // Drained: rewind, keeping the capacity. The callback is already out,
    // so it may defer more.
    if (++late_next_ == late_.size()) {
      late_.clear();
      late_next_ = 0;
    }
    ++processed_;
    cb();
    return true;
  }

  [[noreturn]] static void throw_past_schedule();
  [[noreturn]] static void throw_slab_exhausted();

  time_ps now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  // scheduled and not yet run or cancelled
  std::size_t dead_ = 0;  // cancelled, still in heap_
  std::vector<event_slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<heap_entry> heap_;  // binary min-heap by key()
  // Deferred callbacks at now_, oldest first from late_next_.
  std::vector<callback> late_;
  std::size_t late_next_ = 0;
};

}  // namespace ups::sim
