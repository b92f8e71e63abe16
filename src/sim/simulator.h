// Discrete-event simulation kernel.
//
// A single-threaded event loop over events (sim::event, below) ordered by
// one flat binary min-heap of (time, sequence) keys. Every event is
// embedded in its owner: a port's completion and its service decision, a
// wire's landing, a port's credit returns, a forced-stall hold (see
// net/port.h and net/network.h), a TCP flow's start and retransmit timer, a
// source's next start and a pacer's next wake. A heap entry is a key plus a
// pointer to its event, so filing one copies nothing into the kernel and
// running one is a single virtual call.
//
// A heap entry carries its whole sort key, so sifting never touches an
// event. Push sifts up; pop walks the hole to a leaf along the smaller
// child, picked without a branch, and sifts the displaced last entry back
// up from there (Floyd's bottom-up pop).
//
// The pending set is small: a replay holds about one event per port (a wire
// owns one event for its head packet, see net/network.h) and a traffic
// source holds one pending start (see traffic/source.h), so O(log n) over a
// few hundred entries is a handful of cache-resident compares.
//
// Events scheduled for the same instant run in scheduling order, which
// keeps every simulation deterministic. The heap dispatches by exactly that
// key, so the order is a global (time, sequence) priority queue by
// construction. Events deferred with defer_late() never touch the heap:
// they wait in a FIFO run list and run at the current instant once no heap
// event is left at it, events they file for that instant included. That is
// the order a second key (now, late, sequence), sorting after every heap
// key at its instant, would give, so tests/test_sim_wheel.cpp fuzzes the
// kernel against an ordered-map model keyed that way. A caller that acts
// between instants (core::replay_trace injects each packet at its ingress
// instant) runs the kernel up to that instant with run_before(), so what it
// does there comes ahead of every event at the instant.
//
// Liveness has one rule: an event keeps the key it was last filed under,
// and an entry is live iff its key equals its event's. Cancelling an event
// forgets its key, which leaves its entry stale without touching it, so the
// event may be filed again at once (a preempted completion and a re-armed
// retransmit timer are); the stale entry is discarded when it surfaces, and
// cancelling an event that is not pending does nothing. Stale entries never
// pile up: once they outnumber live ones by more than kCompactSlack, they
// are all removed at once and the heap is rebuilt in O(n), so a timer that
// is cancelled and re-armed far ahead on every packet (a TCP retransmit
// clock) keeps the heap at a few dozen entries. Counting them keeps
// empty()/pending() exact. A deferred event cannot be cancelled.
//
// An event must stay at one address and outlive every later run of the
// kernel it was filed with, cancelled or not: its stale entry may still be
// queued. Ports, wires, credit queues and holds live in their network,
// flows in their tcp_manager, and start chains and pacers in their source,
// none of which a caller outlives with a running simulator.
//
// Steady-state scheduling is allocation-free: the heap and the run list
// keep their capacity, and the kernel stores nothing but entries.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.h"

namespace ups::sim {

class simulator;

// A kernel event. Its owner embeds it, keeps it at one address, and says
// what it does in fire(). It is filed at most once at a time: filing or
// deferring a pending event is a caller bug, which debug builds assert.
class event {
 public:
  event() = default;
  event(const event&) = delete;
  event& operator=(const event&) = delete;

  // Filed or deferred, and not yet run or cancelled.
  [[nodiscard]] bool pending() const noexcept { return order_ != kIdle; }

  // Runs the event. The kernel marks it idle first, so fire() may file it
  // again.
  virtual void fire() = 0;

 protected:
  ~event() = default;

 private:
  friend class simulator;
  static constexpr std::uint64_t kIdle = 0;  // no live entry
  static constexpr std::uint64_t kDeferred = ~0ull;  // in the run list

  // The key of the event's one live entry: (at_, order_), see
  // simulator::entry. Sequence numbers start at 1 and never reach 2^64 - 1,
  // so no entry's order is kIdle or kDeferred.
  time_ps at_ = 0;
  std::uint64_t order_ = kIdle;
};

// An event that calls one member function of its owner.
template <class Owner, void (Owner::*Fn)()>
class member_event final : public event {
 public:
  explicit member_event(Owner& owner) noexcept : owner_(owner) {}
  void fire() override { (owner_.*Fn)(); }

 private:
  Owner& owner_;
};

class simulator {
 public:
  simulator() = default;
  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  [[nodiscard]] time_ps now() const noexcept { return now_; }

  // Files ev at t. Precondition: ev is not pending.
  void schedule_at(time_ps t, event& ev) {
    if (t < now_) throw_past_schedule();
    file(ev, t, next_seq_++);
  }
  // Relative scheduling. now + dt saturates to the latest representable
  // instant instead of overflowing: an effectively-infinite relative timer
  // (e.g. an idle TCP retransmit clock at WAN scale) parks at the end of
  // time, never wrapping into the past.
  void schedule_in(time_ps dt, event& ev) {
    schedule_at(future_time(now_, dt), ev);
  }
  // Cancels a filed event, which may then be filed again at once. An event
  // that is not pending is left alone.
  void cancel(event& ev) noexcept {
    assert(ev.order_ != event::kDeferred);  // deferred: not cancellable
    if (ev.order_ == event::kIdle || ev.order_ == event::kDeferred) return;
    ev.order_ = event::kIdle;  // its entry is stale from now on
    // dead_ > live entries + slack, with live entries = size - dead_.
    if (2 * ++dead_ > heap_.size() + kCompactSlack) compact();
  }
  // Defers ev to the end of the current instant: it runs at now(), after
  // every heap event at now() (events filed for now() meanwhile included,
  // even by an earlier deferred event), in FIFO order among deferred
  // events. Ports use this for service decisions so that all same-instant
  // packet arrivals — even those still propagating through zero-delay
  // forwarding chains — are visible to the scheduler before it picks. A
  // deferred event takes no heap entry and cannot be cancelled.
  // Precondition: ev is not pending.
  void defer_late(event& ev) {
    assert(!ev.pending());
    ev.at_ = now_;
    ev.order_ = event::kDeferred;
    late_.push_back(&ev);
  }

  // Reserved sequence numbers: an event decided now but filed later.
  // reserve_seq() consumes and returns the sequence number a schedule_at
  // issued at this moment would get. schedule_reserved(t, seq, ev) files ev
  // under it, so it dispatches exactly where that schedule_at would have,
  // and no other event's number shifts. Network wires use this (a packet's
  // landing keeps the key of the moment it was launched, but is only filed
  // once the packet reaches the head of its wire), so do a port's credit
  // returns (each keeps the key of the moment it was decided), and so do
  // traffic sources' start chains (each start keeps the key it had when the
  // source was built, but is only filed when the previous start runs).
  //
  // Precondition: the event is filed before dispatch reaches the point
  // where that schedule_at would have run it, i.e. from the reserving
  // event itself or from any event that would have dispatched before it
  // (same-instant filing included). A later filing would dispatch out of
  // order and is a caller bug; scheduling into the past still throws
  // std::logic_error.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return next_seq_++; }
  void schedule_reserved(time_ps t, std::uint64_t seq, event& ev) {
    assert(seq < next_seq_);
    if (t < now_) throw_past_schedule();
    file(ev, t, seq);
  }

  // Runs the next pending event; returns false if there is none.
  bool run_next() { return run_next_through(kEndOfTime); }

  // Runs until the event queue and the run list drain.
  void run();

  // Runs events with timestamp <= t (and the events they defer), then
  // advances the clock to t.
  void run_until(time_ps t);

  // Runs events with timestamp < t (and the events they defer), then sets
  // the clock to t, leaving every event at t pending: whatever the caller
  // does next at t comes ahead of them. Replay injects each packet this way
  // (see core/replay.cpp). Throws std::logic_error if t < now(), as
  // scheduling into the past does.
  void run_before(time_ps t);

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  // Filed events not yet run or cancelled, plus deferred events.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() - dead_ + (late_.size() - late_next_);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  // High-water mark of heap entries, live or awaiting removal: the most
  // events ever filed at once, stale entries of cancelled ones included
  // (deferred events take no entry).
  [[nodiscard]] std::size_t peak_entries() const noexcept { return peak_; }

 private:
  // Stale heap entries tolerated beyond the live count before compaction.
  static constexpr std::size_t kCompactSlack = 64;
  static constexpr time_ps kEndOfTime = std::numeric_limits<time_ps>::max();

  // `order` is the filing's sequence number, a process-lifetime counter.
  // Every filing has its own, so the dispatch order is total. A deferred
  // event's entry is (now, event::kDeferred).
  struct entry {
    time_ps at;
    std::uint64_t order;
    event* ev;
  };
  // One 128-bit compare per sift step; `at` is never negative.
  [[nodiscard]] static unsigned __int128 key(const entry& e) noexcept {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at))
            << 64) |
           e.order;
  }
  [[nodiscard]] static bool live(const entry& e) noexcept {
    return e.ev->order_ == e.order && e.ev->at_ == e.at;
  }

  [[nodiscard]] static time_ps future_time(time_ps now, time_ps dt) noexcept {
    if (dt > 0 && now > kEndOfTime - dt) return kEndOfTime;
    return now + dt;
  }

  // Files ev at t >= now() under sequence number `order`.
  void file(event& ev, time_ps t, std::uint64_t order);

  // Places `e` at index `pos` or above it, no higher than `floor`.
  void sift_up(std::size_t pos, entry e, std::size_t floor = 0) noexcept;
  // Refills the hole at `hole` with `e`: walks the hole down to a leaf along
  // the smaller child, then sifts `e` up from there, no higher than `hole`.
  void sift_down(std::size_t hole, entry e) noexcept;
  // Removes the top entry.
  void pop_top() noexcept;
  // Drops every stale entry and re-heapifies.
  void compact() noexcept;

  [[nodiscard]] bool has_late() const noexcept {
    return late_next_ != late_.size();
  }

  [[noreturn]] static void throw_past_schedule();

  // Runs the next pending event if its timestamp is <= last; returns
  // whether one ran. run_next, run, run_until and run_before all dispatch
  // through it. Defined inline: this is the innermost loop of every
  // experiment. The heap's top goes first unless it lies past now() while
  // the run list still holds this instant's deferred events.
  bool run_next_through(time_ps last) {
    for (;;) {
      entry e{};
      if (!heap_.empty() && (heap_.front().at <= now_ || !has_late())) {
        if (heap_.front().at > last) return false;
        e = heap_.front();
        pop_top();
      } else if (has_late() && now_ <= last) {
        e = entry{now_, event::kDeferred, late_[late_next_]};
        // Drained: rewind, keeping the capacity. The entry is already
        // out, so its event may defer more.
        if (++late_next_ == late_.size()) {
          late_.clear();
          late_next_ = 0;
        }
      } else {
        return false;
      }
      event& ev = *e.ev;
      if (!live(e)) {  // cancelled since it was filed (never deferred ones)
        --dead_;
        continue;
      }
      assert(e.at >= now_);
      now_ = e.at;
      ev.order_ = event::kIdle;
      ++processed_;
      ev.fire();
      return true;
    }
  }

  time_ps now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t dead_ = 0;  // stale entries still in heap_
  std::size_t peak_ = 0;  // most entries heap_ ever held
  std::vector<entry> heap_;  // binary min-heap by key()
  // Deferred events at now_, oldest first from late_next_.
  std::vector<event*> late_;
  std::size_t late_next_ = 0;
};

}  // namespace ups::sim
