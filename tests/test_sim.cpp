// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "deferred_calls.h"
#include "sim/simulator.h"

namespace ups::sim {
namespace {

using testing::deferred_calls;

// An owned event, as a port, a wire or a TCP flow embeds one: it logs when
// it runs and, given a log, appends its tag to it.
class probe final : public event {
 public:
  explicit probe(simulator& s, std::vector<int>* log = nullptr, int tag = 0)
      : s_(s), log_(log), tag_(tag) {}
  void fire() override {
    fired_at.push_back(s_.now());
    if (log_ != nullptr) log_->push_back(tag_);
  }
  std::vector<time_ps> fired_at;

 private:
  simulator& s_;
  std::vector<int>* log_;
  int tag_;
};

TEST(simulator, starts_at_zero) {
  simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(simulator, runs_events_in_time_order) {
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(30, [&] { order.push_back(3); });
  call.at(10, [&] { order.push_back(1); });
  call.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(simulator, same_time_events_run_in_scheduling_order) {
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    call.at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(simulator, schedule_in_is_relative) {
  simulator s;
  deferred_calls call(s);
  time_ps seen = -1;
  call.at(100, [&] {
    call.in(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(simulator, cancellation_skips_event) {
  simulator s;
  probe ev(s);
  s.schedule_at(10, ev);
  s.cancel(ev);
  s.run();
  EXPECT_TRUE(ev.fired_at.empty());
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(simulator, cancel_one_of_equal_time_events) {
  simulator s;
  std::vector<int> order;
  probe a(s, &order, 0);
  probe b(s, &order, 1);
  probe c(s, &order, 2);
  s.schedule_at(5, a);
  s.schedule_at(5, b);
  s.schedule_at(5, c);
  s.cancel(b);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(simulator, run_until_advances_clock_without_events) {
  simulator s;
  s.run_until(12345);
  EXPECT_EQ(s.now(), 12345);
}

TEST(simulator, run_until_executes_boundary_events) {
  simulator s;
  deferred_calls call(s);
  int count = 0;
  call.at(10, [&] { ++count; });
  call.at(20, [&] { ++count; });
  call.at(21, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(simulator, run_before_runs_earlier_events_and_leaves_its_instant) {
  // run_before(t) runs every event before t and the events they defer
  // (and file), then sets the clock to t. An event at t stays pending, so
  // what the caller does at t comes ahead of it: replay injects this way.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(10, [&] {
    order.push_back(1);
    call.late([&] {
      order.push_back(2);
      call.in(0, [&] { order.push_back(3); });  // same instant
    });
  });
  call.at(20, [&] { order.push_back(5); });
  s.run_before(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending(), 1u);
  // The caller acts at 20, deferring an event there too. Nothing before 20
  // is left, so run_before(20) again runs neither the event at 20 nor the
  // deferred one.
  order.push_back(4);
  call.late([&] { order.push_back(6); });
  s.run_before(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  // With nothing pending it only advances the clock, as run_until does.
  s.run_before(1000);
  EXPECT_EQ(s.now(), 1000);
}

TEST(simulator, run_before_into_the_past_throws) {
  simulator s;
  s.run_until(100);
  EXPECT_THROW(s.run_before(99), std::logic_error);
  EXPECT_EQ(s.now(), 100);
  s.run_before(100);  // the present is not the past
  EXPECT_EQ(s.now(), 100);
}

TEST(simulator, scheduling_into_past_throws) {
  simulator s;
  s.run_until(100);
  probe ev(s);
  EXPECT_THROW(s.schedule_at(50, ev), std::logic_error);
  EXPECT_FALSE(ev.pending());
}

TEST(simulator, events_can_schedule_more_events) {
  simulator s;
  deferred_calls call(s);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) call.in(1, recurse);
  };
  call.at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
  EXPECT_EQ(s.events_processed(), 100u);
}

TEST(simulator, late_events_run_after_all_same_time_normals) {
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(10, [&] {
    call.late([&] {
      EXPECT_EQ(s.now(), 10);
      order.push_back(99);
    });
    order.push_back(1);
  });
  call.at(10, [&] {
    order.push_back(2);
    // A normal event scheduled *during* processing of time 10 still runs
    // before the deferred one.
    call.in(0, [&] { order.push_back(3); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 99}));
}

TEST(simulator, late_events_precede_later_normals) {
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(10, [&] {
    call.late([&] {
      EXPECT_EQ(s.now(), 10);
      order.push_back(1);
    });
  });
  call.at(11, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(simulator, late_events_fifo_among_themselves) {
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(3, [&] {
    for (int i = 0; i < 5; ++i) {
      call.late([&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(s.pending(), 5u);
  });
  s.run();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.events_processed(), 6u);
}

TEST(simulator, normal_event_filed_by_late_callback_runs_before_next_late) {
  // The run list drains one event at a time and only while no heap event
  // is left at now(): a normal event a deferred event files for now() runs
  // before the next deferred event. run_until drains the run list of the
  // instant it stops at.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(5, [&] {
    call.late([&] {
      order.push_back(1);
      call.in(0, [&] { order.push_back(2); });
    });
    call.late([&] { order.push_back(3); });
  });
  call.at(6, [&] { order.push_back(4); });
  s.run_until(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.peak_entries(), 2u);  // deferred events take no heap entry
}

TEST(simulator, cancel_after_run_leaves_queue_empty) {
  // Regression: the pre-slab kernel recorded cancellations of already-run
  // events in a side set, permanently skewing empty()/pending() accounting
  // and growing memory unboundedly. An event that ran is no longer pending,
  // so cancelling it is a structural no-op.
  simulator s;
  deferred_calls call(s);
  probe ev(s);
  s.schedule_at(10, ev);
  s.run();
  EXPECT_TRUE(s.empty());
  s.cancel(ev);  // already ran
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  // Accounting must still be exact for subsequent events.
  bool ran = false;
  call.in(1, [&] { ran = true; });
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(s.empty());
}

TEST(simulator, double_cancel_is_noop) {
  simulator s;
  deferred_calls call(s);
  probe ev(s);
  s.schedule_at(5, ev);
  s.cancel(ev);
  s.cancel(ev);  // second cancel must not disturb anything
  call.at(6, [] {});
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(ev.fired_at.empty());
}

TEST(simulator, rearmed_timer_keeps_the_heap_small) {
  // A TCP retransmit clock's pattern: every 1 us the flow's timer is
  // cancelled and re-armed 10 ms ahead. Stale entries are compacted away
  // once they outnumber the live events, instead of holding ~10,000 heap
  // entries until their 10 ms are up.
  simulator s;
  deferred_calls call(s);
  probe timer(s);
  int ticks = 0;
  std::function<void()> tick = [&] {
    s.cancel(timer);
    s.schedule_in(10 * kMillisecond, timer);
    if (++ticks < 100'000) call.in(kMicrosecond, [&] { tick(); });
  };
  call.at(0, [&] { tick(); });
  s.run();
  EXPECT_EQ(ticks, 100'000);
  EXPECT_EQ(timer.fired_at,
            (std::vector<time_ps>{99'999 * kMicrosecond + 10 * kMillisecond}));
  EXPECT_LE(s.peak_entries(), 256u);
}

// An owned event that reports to its test when it runs, and remembers its
// index in the test's list of pending timers.
class timer final : public event {
 public:
  explicit timer(std::function<void(timer&)>& on_fire) : on_fire_(on_fire) {}
  void fire() override { on_fire_(*this); }
  std::size_t slot = 0;

 private:
  std::function<void(timer&)>& on_fire_;
};

TEST(simulator, stress_interleaved_schedule_cancel_run) {
  // Randomized churn across event reuse, mid-heap cancellation, and
  // cancels of idle events, validated against exact bookkeeping. A timer
  // that ran or was cancelled goes back on a LIFO idle list and is filed
  // again by a later schedule, often while a stale entry of its last
  // filing is still queued.
  simulator s;
  deferred_calls call(s);
  std::mt19937_64 rng(1234);
  std::deque<timer> timers;      // never moves its elements
  std::vector<timer*> pending;   // filed, not yet run or cancelled
  std::vector<timer*> idle;      // ran or cancelled
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t scheduled = 0;
  sim::time_ps last_time = 0;
  std::uint64_t deferred = 0;  // deferred events not yet run
  const auto unlist = [&](timer& t) {
    pending[t.slot] = pending.back();
    pending[t.slot]->slot = t.slot;
    pending.pop_back();
    idle.push_back(&t);
  };
  std::function<void(timer&)> on_fire = [&](timer& t) {
    EXPECT_GE(s.now(), last_time);
    last_time = s.now();
    ++fired;
    unlist(t);
  };

  for (int round = 0; round < 20'000; ++round) {
    const auto op = rng() % 10;
    if (op < 5) {  // schedule, or defer to the end of this instant
      if (rng() % 4 == 0) {
        const time_ps at = s.now();
        call.late([&, at] {
          EXPECT_EQ(s.now(), at);
          EXPECT_GE(s.now(), last_time);
          last_time = s.now();
          ++fired;
          --deferred;
        });
        ++deferred;
      } else {
        timer* t = nullptr;
        if (idle.empty()) {
          t = &timers.emplace_back(on_fire);
        } else {
          t = idle.back();
          idle.pop_back();
        }
        t->slot = pending.size();
        pending.push_back(t);
        s.schedule_in(static_cast<time_ps>(rng() % 100), *t);
      }
      ++scheduled;
    } else if (op < 7) {  // cancel a pending event, if any
      if (!pending.empty()) {
        timer& t = *pending[rng() % pending.size()];
        s.cancel(t);
        unlist(t);
        ++cancelled;
      }
    } else if (op < 8) {  // cancel an idle event: must be a no-op
      if (!idle.empty()) {
        const std::size_t before = s.pending();
        s.cancel(*idle[rng() % idle.size()]);
        EXPECT_EQ(s.pending(), before);
      }
    } else {  // run a few events
      for (int k = 0; k < 3; ++k) {
        if (!s.run_next()) break;
      }
    }
    ASSERT_EQ(s.pending(), pending.size() + deferred);
  }
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(fired + cancelled, scheduled);
  // Every timer is now idle; a cancel storm must leave the kernel intact.
  for (timer& t : timers) s.cancel(t);
  EXPECT_TRUE(s.empty());
  bool epilogue = false;
  call.in(1, [&] { epilogue = true; });
  s.run();
  EXPECT_TRUE(epilogue);
}

TEST(simulator, zero_delay_event_runs_after_pending_same_time) {
  // A completion scheduled "in 0" at time t runs after events already queued
  // for t, preserving causal ordering within a timestamp.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  call.at(10, [&] {
    order.push_back(1);
    call.in(0, [&] { order.push_back(3); });
  });
  call.at(10, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(simulator, reserved_event_dispatches_at_its_reservation) {
  // Reserved before a same-time event is scheduled and filed after it, the
  // reserved event still runs first: its key is the reservation's.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  probe reserved(s, &order, 1);
  const std::uint64_t seq = s.reserve_seq();
  call.at(10, [&] { order.push_back(2); });
  call.at(5, [&] { s.schedule_reserved(10, seq, reserved); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(simulator, schedule_reserved_into_the_past_throws) {
  simulator s;
  probe ev(s);
  const std::uint64_t seq = s.reserve_seq();
  s.run_until(100);
  EXPECT_THROW(s.schedule_reserved(50, seq, ev), std::logic_error);
  EXPECT_FALSE(ev.pending());
}

TEST(simulator, embedded_event_refiled_over_its_stale_entry_runs_once) {
  // Preemption's pattern: a port's completion is cancelled and filed again
  // at a new time while its stale entry is still in the heap.
  simulator s;
  probe ev(s);
  s.schedule_at(10, ev);
  EXPECT_TRUE(ev.pending());
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(ev);
  EXPECT_FALSE(ev.pending());
  EXPECT_TRUE(s.empty());
  s.cancel(ev);  // not pending: a no-op
  EXPECT_TRUE(s.empty());
  s.schedule_at(20, ev);  // the stale entry at 10 is still queued
  EXPECT_TRUE(ev.pending());
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(15);  // the stale entry surfaces and is dropped
  EXPECT_TRUE(ev.fired_at.empty());
  EXPECT_EQ(s.pending(), 1u);
  // Cancelled and refiled for the instant its live entry already names:
  // the two entries differ only by sequence number, and only the newer
  // one runs.
  s.cancel(ev);
  s.schedule_at(20, ev);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(ev.fired_at, (std::vector<time_ps>{20}));
  EXPECT_EQ(s.events_processed(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(ev.pending());
  // A stale entry counts toward the high-water mark until it is dropped.
  EXPECT_EQ(s.peak_entries(), 2u);
}

TEST(simulator, embedded_event_may_file_itself_from_fire) {
  // A wire's pattern: its landing files the landing of the next head.
  struct chain final : event {
    explicit chain(simulator& sim) : s(sim) {}
    void fire() override {
      if (++runs < 5) s.schedule_in(3, *this);
    }
    simulator& s;
    int runs = 0;
  };
  simulator s;
  chain ev(s);
  s.schedule_at(1, ev);
  s.run();
  EXPECT_EQ(ev.runs, 5);
  EXPECT_EQ(s.now(), 13);
  EXPECT_EQ(s.events_processed(), 5u);
  EXPECT_EQ(s.peak_entries(), 1u);
}

TEST(simulator, filed_reserved_and_deferred_events_run_in_sequence_order) {
  // At one instant every heap event runs in sequence-number order, reserved
  // filings (the patterns of a wire and of a source's start chain)
  // included, then the deferred ones.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  probe a(s, &order, 1);
  probe b(s, &order, 3);
  probe wire(s, &order, 4);
  probe chain(s, &order, 5);
  probe c(s, &order, 6);
  probe late(s, &order, 7);
  call.at(50, [&] {
    order.push_back(0);
    s.defer_late(late);
  });
  s.schedule_at(50, a);
  call.at(50, [&] { order.push_back(2); });
  s.schedule_at(50, b);
  const std::uint64_t wire_seq = s.reserve_seq();
  const std::uint64_t chain_seq = s.reserve_seq();
  s.schedule_at(50, c);
  call.at(10, [&] {
    s.schedule_reserved(50, chain_seq, chain);
    s.schedule_reserved(50, wire_seq, wire);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(s.empty());
}

TEST(simulator, compaction_drops_stale_embedded_entries_only) {
  // An embedded event cancelled and refiled on every step leaves one stale
  // entry each time. Compaction drops them, and keeps the event's current
  // filing and every other event.
  simulator s;
  deferred_calls call(s);
  std::vector<int> order;
  probe ev(s, &order, 1);
  call.at(5000, [&] { order.push_back(2); });
  for (time_ps t = 1000; t < 11'000; ++t) {
    s.cancel(ev);
    s.schedule_at(t, ev);
    ASSERT_EQ(s.pending(), 2u);
  }
  EXPECT_LT(s.peak_entries(), 200u);  // compacted long before 10,000
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(ev.fired_at, (std::vector<time_ps>{10'999}));
  EXPECT_TRUE(s.empty());
}

TEST(simulator, filing_a_pending_event_asserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "assertions are compiled out of this build";
#else
  simulator s;
  probe filed(s);
  s.schedule_at(5, filed);
  EXPECT_DEATH(s.schedule_at(7, filed), "pending");
  EXPECT_DEATH(s.schedule_reserved(9, s.reserve_seq(), filed), "pending");
  EXPECT_DEATH(s.defer_late(filed), "pending");
  probe deferred(s);
  s.defer_late(deferred);
  EXPECT_DEATH(s.schedule_at(7, deferred), "pending");
  EXPECT_DEATH(s.defer_late(deferred), "pending");
  EXPECT_DEATH(s.cancel(deferred), "kDeferred");  // not cancellable
  s.run();
  EXPECT_EQ(filed.fired_at, (std::vector<time_ps>{5}));
  EXPECT_EQ(deferred.fired_at, (std::vector<time_ps>{0}));
#endif
}

// A randomized event script: event `id` spawns children whose delays and
// kinds are a pure function of id, so two kernels that dispatch in the
// same order create the same events under the same ids. A late child is
// deferred to the end of its creator's instant. The plain run schedules
// every child at once. The reserving run takes a sequence number for some
// normal children at the moment the plain run schedules them, and files
// each later, as an owned event, from a chosen event (its filer) that
// dispatches no later than the child's predecessor in the plain order.
class event_script {
 public:
  static constexpr std::uint64_t kRoots = 64;
  static constexpr std::uint64_t kEvents = 20'000;

  // filer[c] = the event that files reserved child c; empty = plain run.
  explicit event_script(std::unordered_map<std::uint64_t, std::uint64_t> filer)
      : filer_(std::move(filer)) {}

  void run() {
    std::mt19937_64 rng(7);
    for (; created_ < kRoots; ++created_) {
      parent_.push_back(created_);  // a root is its own parent
      normal_.push_back(false);     // roots are never reserved
      const std::uint64_t c = created_;
      call_.at(static_cast<time_ps>(rng() % 1000), [this, c] { dispatch(c); });
    }
    s_.run();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& log() const { return log_; }
  [[nodiscard]] std::uint64_t parent(std::uint64_t id) const {
    return parent_[id];
  }
  [[nodiscard]] bool normal(std::uint64_t id) const {
    return normal_[id];
  }
  [[nodiscard]] std::uint64_t filed_same_instant() const {
    return filed_same_instant_;
  }

 private:
  struct deferred {
    std::uint64_t id;
    time_ps at;
    std::uint64_t seq;
  };
  // A reserved child, filed as a wire files its landing.
  struct reserved_child final : event {
    reserved_child(event_script& owner, std::uint64_t child)
        : script(owner), id(child) {}
    void fire() override { script.dispatch(id); }
    event_script& script;
    std::uint64_t id;
  };

  void dispatch(std::uint64_t id) {
    log_.push_back(id);
    std::mt19937_64 rng(id * 0x9e3779b97f4a7c15ull + 1);
    const std::uint64_t children = rng() % 4;
    for (std::uint64_t k = 0; k < children && created_ < kEvents; ++k) {
      time_ps dt = 0;  // same instant: joins the live run
      switch (rng() % 8) {
        case 0: case 1: break;
        case 2: case 3: case 4: dt = static_cast<time_ps>(rng() % 256); break;
        case 5: case 6: dt = static_cast<time_ps>(rng() % (1u << 20)); break;
        default:  // far future: up to ~9 simulated minutes ahead
          dt = static_cast<time_ps>(rng() % (1ull << 49));
      }
      const bool late = rng() % 4 == 0;
      const std::uint64_t c = created_++;
      parent_.push_back(id);
      normal_.push_back(!late);
      const time_ps at = s_.now() + dt;
      auto cb = [this, c] { dispatch(c); };
      if (const auto f = filer_.find(c); f != filer_.end()) {
        to_file_[f->second].push_back(deferred{c, at, s_.reserve_seq()});
      } else if (late) {
        call_.late(cb);
      } else {
        call_.at(at, cb);
      }
    }
    // File everything this event is the filer of (its own reserved
    // children included) after its own scheduling.
    if (const auto it = to_file_.find(id); it != to_file_.end()) {
      for (const deferred& d : it->second) {
        if (d.at == s_.now()) ++filed_same_instant_;
        s_.schedule_reserved(d.at, d.seq, reserved_.emplace_back(*this, d.id));
      }
      to_file_.erase(it);
    }
  }

  simulator s_;
  deferred_calls call_{s_};
  std::deque<reserved_child> reserved_;  // never moves its elements
  std::unordered_map<std::uint64_t, std::uint64_t> filer_;
  std::unordered_map<std::uint64_t, std::vector<deferred>> to_file_;
  std::vector<std::uint64_t> log_;
  std::vector<std::uint64_t> parent_;
  std::vector<bool> normal_;
  std::uint64_t created_ = 0;
  std::uint64_t filed_same_instant_ = 0;
};

TEST(simulator, reserved_sequence_numbers_keep_dispatch_order) {
  event_script plain({});
  plain.run();
  const auto& order = plain.log();
  ASSERT_EQ(order.size(), event_script::kEvents);
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

  // Reserve about half of the normal children. Each is filed by an
  // event drawn from those dispatched between its creator (inclusive) and
  // itself (exclusive), so filing always precedes its key.
  std::mt19937_64 rng(11);
  std::unordered_map<std::uint64_t, std::uint64_t> filer;
  std::uint64_t filed_by_other = 0;
  for (std::uint64_t c = event_script::kRoots; c < order.size(); ++c) {
    if (!plain.normal(c) || rng() % 2 == 0) continue;
    const std::size_t lo = pos[plain.parent(c)];
    const std::size_t hi = pos[c];  // exclusive
    const std::uint64_t f = order[lo + rng() % (hi - lo)];
    if (f != plain.parent(c)) ++filed_by_other;
    filer.emplace(c, f);
  }
  ASSERT_GT(filer.size(), event_script::kEvents / 5);
  ASSERT_GT(filed_by_other, filer.size() / 4);

  event_script reserving(std::move(filer));
  reserving.run();
  EXPECT_GT(reserving.filed_same_instant(), 0u);
  EXPECT_EQ(reserving.log(), order);
}

}  // namespace
}  // namespace ups::sim
