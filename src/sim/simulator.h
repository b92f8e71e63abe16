// Discrete-event simulation kernel.
//
// A single-threaded event loop over a slab of reusable event slots addressed
// by generation-stamped handles, ordered by a hierarchical timing wheel of
// flat (time, phase, sequence) keys. Schedule and dispatch are O(1) amortized
// at any pending-set depth: an event lands in a power-of-two picosecond
// bucket chosen by the position of the highest bit in which its timestamp
// differs from the wheel clock, cascades toward level 0 as time advances
// (at most once per level), and far-future events beyond the wheel span park
// in an overflow 4-ary heap that is migrated into the wheel lazily.
//
// Level-0 buckets are one picosecond wide, so every event in a bucket shares
// an exact timestamp: dispatch pulls the whole bucket as one batched
// same-instant run, sorts it once by (phase, sequence), and pops entries with
// no further ordering work. Events scheduled *for* the instant being
// dispatched insert into the live run at their (phase, sequence) position,
// which keeps the dispatch order byte-identical to a global (time, phase,
// sequence) priority queue (tests/test_sim_wheel.cpp fuzzes the wheel
// against an ordered-map model of exactly that queue).
//
// Events scheduled for the same instant run in scheduling order, which keeps
// every simulation deterministic. Steady-state scheduling is allocation-free:
// slots are recycled through a freelist, buckets and the ready run reuse
// their backing arrays, and callbacks are stored inline in the slot (see
// sim/callback.h).
//
// Cancellation marks the slot and drops the callback immediately; the dead
// wheel entry is discarded when its bucket is dispatched or cascaded. A
// live-event counter keeps empty()/pending() exact, and the slot's
// generation stamp makes cancelling an already-run (or already-cancelled)
// handle a structural no-op — stale handles can never corrupt accounting or
// leak, by construction.
#pragma once

#include <array>
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

  simulator() { bucket_head_.fill(kNilSlot); }
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
  // when it was scheduled. Replay injection uses this: a packet injected at
  // instant t runs before every forwarded arrival at t, even one whose
  // event was scheduled earlier, so injection order depends only on
  // (time, injection sequence) and rank ties resolve the same way however
  // far ahead the trace is read.
  handle schedule_early(time_ps t, callback cb) {
    return schedule(t, kPhaseEarly, std::move(cb));
  }

  // Runs after every normal event with the same timestamp, including normal
  // events those events schedule for the same instant. Ports use this for
  // service decisions so that all same-instant packet arrivals — even those
  // still propagating through zero-delay forwarding chains — are visible to
  // the scheduler before it picks.
  handle schedule_late(time_ps t, callback cb) {
    return schedule(t, kPhaseLate, std::move(cb));
  }

  // Reserved sequence numbers: an event decided now but filed later.
  // reserve_seq() consumes and returns the sequence number a schedule_at
  // issued at this moment would get. schedule_reserved(t, seq, cb) files a
  // normal-phase event under it, so it dispatches exactly where that
  // schedule_at(t, cb) would have, and no other event's number shifts.
  // Network wires use this: a packet's landing event keeps the key of the
  // moment it was launched, but is only filed once the packet reaches the
  // head of its wire.
  //
  // Precondition: the event is filed before dispatch reaches the point
  // where that schedule_at would have run it, i.e. from the reserving
  // event itself or from any event that would have dispatched before it
  // (same-instant filing into the live run included). A later filing would
  // dispatch out of order and is a caller bug; scheduling into the past
  // still throws std::logic_error.
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

  // Runs the next pending event; returns false if the queue is empty.
  // Defined inline: this is the innermost loop of every experiment. The
  // fast path is a bump of the ready-run cursor; the wheel is only touched
  // when the current instant's batch is exhausted.
  bool run_next() {
    for (;;) {
      if (ready_pos_ >= ready_.size() && !refill_ready(kNoLimit)) {
        return false;
      }
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
      // Detach the callback and retire the slot *before* invoking, so the
      // callback can freely schedule (possibly into this slot) or cancel.
      callback cb = std::move(s.cb);
      retire(e.slot);
      cb();
      return true;
    }
  }

  // Runs until the event queue drains, one batched instant at a time.
  void run();

  // Runs events with timestamp <= t, then advances the clock to t.
  void run_until(time_ps t);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  // Capacity of the slot slab (high-water mark of concurrently tracked
  // events); exposed for tests and benches.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

 private:
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ull << 40) - 1;
  // Same-instant ordering: early < normal < late, then scheduling order.
  static constexpr std::uint8_t kPhaseEarly = 0;
  static constexpr std::uint8_t kPhaseNormal = 1;
  static constexpr std::uint8_t kPhaseLate = 2;

  // Wheel geometry: 6 levels of 256 slots. Level l slots are 2^(8l) ps
  // wide, so the wheel spans 2^48 ps (~4.7 simulated minutes) ahead of its
  // clock; anything beyond parks in the overflow heap. Wide levels keep
  // cascades rare (an event placed at level l cascades at most l times, and
  // microsecond-scale timers sit at level 1-2), and a level's occupancy is
  // a 4-word bitmap — "next occupied bucket" is a handful of
  // count-trailing-zeros, never a scan of empty slots.
  static constexpr int kWheelBits = 8;
  static constexpr int kWheelSlots = 1 << kWheelBits;
  static constexpr int kWheelLevels = 6;
  static constexpr int kBitmapWords = kWheelSlots / 64;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr time_ps kNoLimit = std::numeric_limits<time_ps>::max();

  // Wheel linkage lives inside the slot: a pending event is exactly one
  // bucket-list node (or one overflow-heap entry), so bucket storage never
  // allocates — a schedule threads the slot onto its bucket's list head.
  // The wheel-walk fields lead the struct so a cascade touches one cache
  // line per slot; the fat callback is only read at dispatch.
  struct event_slot {
    time_ps at = 0;            // absolute timestamp while queued
    std::uint64_t order = 0;   // (phase << 62) | seq while queued
    std::uint64_t generation = 0;   // kept within kGenMask; see handle
    std::uint32_t next = kNilSlot;  // bucket chain link
    bool queued = false;     // owned by the wheel (live or awaiting purge)
    bool cancelled = false;  // dead entry: discard when it surfaces
    callback cb;
  };

  // Flat sort key for the ready run and the overflow heap: comparisons
  // never touch the slot slab. `order` packs (phase << 62) | seq — phase
  // (2 bits: early/normal/late) dominates, then scheduling order; seq is a
  // process-lifetime counter and cannot reach 2^62.
  struct wheel_entry {
    time_ps at;
    std::uint64_t order;
    std::uint32_t slot;
  };
  [[nodiscard]] static bool before(const wheel_entry& a,
                                   const wheel_entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  }

  static constexpr std::size_t kArity = 4;  // overflow heap: half the levels

  [[nodiscard]] static time_ps future_time(time_ps now, time_ps dt) noexcept {
    if (dt > 0 && now > std::numeric_limits<time_ps>::max() - dt) {
      return std::numeric_limits<time_ps>::max();
    }
    return now + dt;
  }

  handle schedule(time_ps t, std::uint8_t phase, callback cb) {
    if (t < now_) throw_past_schedule();
    return file(t, (static_cast<std::uint64_t>(phase) << 62) | next_seq_++,
                std::move(cb));
  }
  // Files an event at t >= now() under a packed (phase << 62) | seq key.
  handle file(time_ps t, std::uint64_t order, callback cb);

  [[nodiscard]] bool ready_active() const noexcept {
    return ready_pos_ < ready_.size();
  }

  // Wheel level for an event at absolute time t relative to the wheel clock
  // cur_ (requires t >= cur_): the level containing the highest bit in
  // which t and cur_ differ. >= kWheelLevels means overflow.
  [[nodiscard]] int level_for(time_ps t) const noexcept;

  // Files a queued slot (at/order already stamped) into its wheel bucket or
  // the overflow heap.
  void place(std::uint32_t slot);

  // First occupied bucket index >= `from` at `level`, or -1.
  [[nodiscard]] int first_occupied(int level, int from) const noexcept;
  void clear_occupied(int level, int idx) noexcept;

  // Pulls overflow events that now fit inside the wheel span.
  void migrate_overflow();

  // Materializes the next pending instant's run into ready_ (sorted by
  // order), advancing the wheel clock and cascading upper levels as needed.
  // Never advances the wheel clock past `limit`; returns false — with the
  // clock <= limit and ready_ empty — when no event at time <= limit
  // exists. Cancelled entries encountered along the way are retired.
  bool refill_ready(time_ps limit);

  // Drains the current ready run (all events share ready_time_).
  void run_ready_run();

  void overflow_push(wheel_entry e);
  void overflow_pop_top();

  // Retires a slot: bumps the generation (invalidating outstanding handles)
  // and pushes it onto the freelist.
  void retire(std::uint32_t slot) {
    event_slot& s = slots_[slot];
    s.queued = false;
    s.cancelled = false;
    s.generation = (s.generation + 1) & kGenMask;
    free_slots_.push_back(slot);
  }

  [[noreturn]] static void throw_past_schedule();
  [[noreturn]] static void throw_slab_exhausted();

  time_ps now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  // scheduled and not yet run or cancelled
  std::vector<event_slot> slots_;
  std::vector<std::uint32_t> free_slots_;

  // Wheel clock: lower bound on the time of every event stored in the wheel
  // (<= now_ whenever user code runs; advances bucket-to-bucket during
  // refill_ready). Bucket membership is relative to this clock.
  time_ps cur_ = 0;
  // Buckets are intrusive lists of slot indices (event_slot::next).
  std::array<std::uint32_t, kWheelLevels * kWheelSlots> bucket_head_;
  std::array<std::uint64_t, kWheelLevels * kBitmapWords> occupied_{};
  std::vector<wheel_entry> overflow_;  // 4-ary min-heap, beyond wheel span

  // The current same-instant dispatch run: entries at ready_time_, sorted
  // ascending by order; ready_pos_ is the next entry to dispatch. Active
  // iff ready_pos_ < ready_.size(), and then ready_time_ == now_.
  std::vector<wheel_entry> ready_;
  std::size_t ready_pos_ = 0;
  time_ps ready_time_ = 0;
};

}  // namespace ups::sim
