// Event-kernel verification against a model of its contract.
//
// The kernel's contract is a global (time, seq) priority queue of filed
// events plus deferred ones. Events are owned by the code that files them:
// they are cancelled through themselves and may be filed again at once,
// while the stale entry of their last filing is still queued; cancelling
// an idle one does nothing. A deferred event is filed at now(), cannot be
// cancelled, and runs after every filed event at that instant, FIFO among
// deferred ones: exactly where a key (now, late, seq) that sorts after
// every filed key (t, seq) at its instant would put it. The fuzz suite
// drives the kernel and a reference model of that contract (an ordered
// map, defined below) with one randomized script — schedules at
// power-of-two boundary deltas and far-future times, a share of them
// cancellable, same-instant ties, deferrals from the script and from
// firing events, cancel/reschedule churn with events filed again at once
// (heavy enough in one seed to compact the heap's stale entries several
// times mid-script), cancels of idle events, zero-delay chains, run_until
// and run_before peeks — asserting identical dispatch order and identical
// observable state after every operation. Deterministic regressions cover
// time order across power-of-two boundaries, far-future events that are
// overtaken by later schedules, and schedule_in saturation. (The file and
// test names date from the timing wheel the binary heap replaced; the time
// keys they stress are still useful.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "deferred_calls.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::sim {
namespace {

// now + dt, saturating at the end of time like simulator::schedule_in.
time_ps future_time(time_ps now, time_ps dt) {
  if (dt > 0 && now > std::numeric_limits<time_ps>::max() - dt) {
    return std::numeric_limits<time_ps>::max();
  }
  return now + dt;
}

// Reference model of the kernel contract: every pending event is one entry
// of a map keyed by (time, late, seq), so dispatch order is the map's order
// by definition. A filed event's key is (t, false, seq); a deferred event's
// is (now(), true, seq), after every filed event at its instant. An event
// remembers the key of its current filing, so cancelling it erases that
// entry and filing it again adds a new one; cancelling an idle event erases
// nothing.
class model_kernel {
 public:
  using key = std::tuple<time_ps, bool, std::uint64_t>;

  // What sim::event is to the kernel.
  class event {
   public:
    virtual void fire() = 0;

   protected:
    ~event() = default;

   private:
    friend class model_kernel;
    bool pending_ = false;
    key key_{};
  };

  [[nodiscard]] time_ps now() const { return now_; }
  void schedule_at(time_ps t, event& ev) { file(ev, t, false); }
  void defer_late(event& ev) { file(ev, now_, true); }
  void cancel(event& ev) {
    if (!ev.pending_) return;
    events_.erase(ev.key_);
    ev.pending_ = false;
  }

  bool run_next() {
    if (events_.empty()) return false;
    const auto first = events_.begin();
    now_ = std::get<0>(first->first);
    event& ev = *first->second;
    events_.erase(first);
    ev.pending_ = false;
    ++processed_;
    ev.fire();
    return true;
  }
  void run_until(time_ps t) {
    while (!events_.empty() && std::get<0>(events_.begin()->first) <= t) {
      run_next();
    }
    now_ = std::max(now_, t);
  }
  void run_before(time_ps t) {
    while (!events_.empty() && std::get<0>(events_.begin()->first) < t) {
      run_next();
    }
    now_ = t;
  }
  void run() {
    while (run_next()) {
    }
  }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  void file(event& ev, time_ps t, bool late) {
    ev.key_ = key{t, late, next_seq_++};
    events_.emplace(ev.key_, &ev);
    ev.pending_ = true;
  }

  time_ps now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::map<key, event*> events_;
};

// ---------------------------------------------------------------------------
// Randomized kernel-vs-model fuzz: one op script, two kernels, lockstep.

enum class op_kind {
  schedule,
  cancel_live,
  cancel_idle,
  run_next,
  run_until,
  run_before,
  run_instant,
};

struct op {
  op_kind kind = op_kind::run_next;
  bool deferred = false;     // defer at now() (no dt)
  bool cancellable = false;  // not deferred: a later op may cancel it
  time_ps dt = 0;            // schedule/run_until/run_before: delta from now
  time_ps child_dt = -1;     // >= 0: the fired event schedules a child
  bool child_deferred = false;
  bool child_cancellable = false;
  std::size_t pick = 0;      // cancel target selector
  time_ps refile_dt = -1;    // >= 0: a cancelled event is filed again at
                             // once, this far ahead
  int count = 1;             // run_next burst size
};

struct dispatch {
  std::uint64_t token;
  time_ps at;
  bool operator==(const dispatch&) const = default;
};

// Drives one kernel through a script. Event is the kernel's event base: the
// driver's probes derive from it, and serve as filed events, cancellable
// or not, and as deferred ones; only cancellable ones are ever cancelled.
// A probe that ran or was cancelled goes back to a LIFO idle list and is
// reused by the next filing, which may come from its own fire() (a wire's
// pattern) or find a stale entry of its still queued.
template <class Kernel, class Event>
class driver {
 public:
  std::vector<dispatch> log;

  void apply(const op& o) {
    switch (o.kind) {
      case op_kind::schedule:
        schedule(o.deferred, o.cancellable, future_time(k_.now(), o.dt),
                 o.child_dt, o.child_deferred, o.child_cancellable);
        break;
      case op_kind::cancel_live: {
        prune_fired();
        if (live_probes_.empty()) break;
        auto& victim = live_probes_[o.pick % live_probes_.size()];
        probe& p = *victim.second;
        victim = live_probes_.back();
        live_probes_.pop_back();
        k_.cancel(p);
        if (o.refile_dt >= 0) {
          // Preemption's pattern: filed again while the stale entry of its
          // last filing is still queued.
          file(p, false, true, future_time(k_.now(), o.refile_dt), -1, false,
               false);
        } else {
          idle_.push_back(&p);
        }
        break;
      }
      case op_kind::cancel_idle:
        // An idle event is not pending: cancelling it does nothing.
        if (!idle_.empty()) k_.cancel(*idle_[o.pick % idle_.size()]);
        break;
      case op_kind::run_next:
        for (int i = 0; i < o.count; ++i) {
          if (!k_.run_next()) break;
        }
        break;
      case op_kind::run_until:
        k_.run_until(future_time(k_.now(), o.dt));
        break;
      case op_kind::run_before:
        k_.run_before(future_time(k_.now(), o.dt));
        break;
      case op_kind::run_instant:
        run_one_instant();
        break;
    }
  }

  void drain() { k_.run(); }
  [[nodiscard]] time_ps now() const { return k_.now(); }
  [[nodiscard]] std::size_t pending() const { return k_.pending(); }
  [[nodiscard]] std::uint64_t processed() const {
    return k_.events_processed();
  }

 private:
  struct probe final : Event {
    // Arguments by value: the call may refile this very probe.
    void fire() override {
      d->fire(token, child_dt, child_deferred, child_cancellable, this);
    }
    driver* d = nullptr;
    std::uint64_t token = 0;
    time_ps child_dt = -1;
    bool child_deferred = false;
    bool child_cancellable = false;
  };

  // One instant's worth of dispatch, built from run_next alone so the
  // kernel and the model replay the same script: run events while the
  // clock does not advance past the first one.
  void run_one_instant() {
    if (!k_.run_next()) return;
    const time_ps t = k_.now();
    while (k_.pending() > 0) {
      const std::size_t before = log.size();
      // Peek by running: any event at a later instant still runs, which is
      // fine for equivalence — both kernels do the identical thing.
      if (!k_.run_next()) break;
      if (log.size() > before && log.back().at != t) break;
    }
  }

  void schedule(bool deferred, bool cancellable, time_ps at,
                time_ps child_dt, bool child_deferred,
                bool child_cancellable) {
    if (at < k_.now()) return;  // both drivers skip identically
    file(take_probe(), deferred, cancellable, at, child_dt, child_deferred,
         child_cancellable);
  }

  // Files an idle probe at `at`, listed for cancellation if `cancellable`,
  // or defers it (at now(), whatever `at` says; not cancellable).
  void file(probe& p, bool deferred, bool cancellable, time_ps at,
            time_ps child_dt, bool child_deferred, bool child_cancellable) {
    p.token = next_token_++;
    p.child_dt = child_dt;
    p.child_deferred = child_deferred;
    p.child_cancellable = child_cancellable;
    if (deferred) {
      k_.defer_late(p);
      return;
    }
    k_.schedule_at(at, p);
    if (cancellable) live_probes_.emplace_back(p.token, &p);
  }

  probe& take_probe() {
    if (idle_.empty()) {
      probe& p = probes_.emplace_back();
      p.d = this;
      return p;
    }
    probe& p = *idle_.back();
    idle_.pop_back();
    return p;
  }

  void fire(std::uint64_t token, time_ps child_dt, bool child_deferred,
            bool child_cancellable, probe* p) {
    log.push_back(dispatch{token, k_.now()});
    fired_.insert(token);
    idle_.push_back(p);
    if (child_dt >= 0) {
      schedule(child_deferred, child_cancellable,
               future_time(k_.now(), child_dt), -1, false, false);
    }
  }

  void prune_fired() {
    std::erase_if(live_probes_, [this](const auto& e) {
      return fired_.count(e.first) != 0;
    });
  }

  Kernel k_;
  std::uint64_t next_token_ = 0;
  std::deque<probe> probes_;  // a deque never moves its elements
  std::vector<std::pair<std::uint64_t, probe*>> live_probes_;
  std::vector<probe*> idle_;
  std::unordered_set<std::uint64_t> fired_;
};

// Deltas biased toward time-key stress points: same-instant ties, the
// power-of-two boundaries 2^8, 2^16 and 2^24 with off-by-one straddles of
// each, 2^48 and beyond (once the timing wheel's span and overflow heap),
// and saturation at the end of time.
time_ps pick_dt(std::mt19937_64& rng) {
  static constexpr time_ps table[] = {
      0,
      0,
      1,
      3,
      17,
      200,
      255,
      256,
      257,
      1000,
      65535,
      65536,
      65537,
      262144,
      (1ll << 24) - 1,
      1ll << 24,
      (1ll << 24) + 1,
      1ll << 30,
      (1ll << 48) - 2,
      1ll << 48,
      (1ll << 48) + 3,
      1ll << 52,
      std::numeric_limits<time_ps>::max(),
  };
  const auto r = rng() % 100;
  if (r < 70) {
    return table[rng() % (sizeof(table) / sizeof(table[0]))];
  }
  if (r < 90) return static_cast<time_ps>(rng() % 10'000);
  return static_cast<time_ps>(rng() % (1ull << 50));
}

// Relative weights of the op kinds in a script (the defaults sum to 100),
// and the percentage of undeferred schedules that later ops may cancel.
struct op_mix {
  std::uint64_t schedule = 45;
  std::uint64_t cancel_live = 12;
  std::uint64_t cancel_idle = 5;
  std::uint64_t run_next = 20;
  std::uint64_t run_until = 7;
  std::uint64_t run_before = 6;
  std::uint64_t run_instant = 5;
  std::uint64_t cancellable_percent = 50;
};

std::vector<op> make_script(std::uint64_t seed, std::size_t n,
                            const op_mix& mix = {}) {
  std::mt19937_64 rng(seed);
  std::vector<op> script;
  script.reserve(n);
  const std::uint64_t cancel_live = mix.schedule + mix.cancel_live;
  const std::uint64_t cancel_idle = cancel_live + mix.cancel_idle;
  const std::uint64_t run_next = cancel_idle + mix.run_next;
  const std::uint64_t run_until = run_next + mix.run_until;
  const std::uint64_t run_before = run_until + mix.run_before;
  const std::uint64_t total = run_before + mix.run_instant;
  for (std::size_t i = 0; i < n; ++i) {
    op o;
    const auto r = rng() % total;
    if (r < mix.schedule) {
      o.kind = op_kind::schedule;
      o.deferred = rng() % 10 < 2;
      o.cancellable = !o.deferred && rng() % 100 < mix.cancellable_percent;
      o.dt = pick_dt(rng);
      if (rng() % 4 == 0) {
        static constexpr time_ps child_dts[] = {0, 0, 1, 7, 64, 100};
        o.child_dt = child_dts[rng() % 6];
        o.child_deferred = rng() % 3 == 0;
        o.child_cancellable = !o.child_deferred && rng() % 2 == 0;
      }
    } else if (r < cancel_live) {
      o.kind = op_kind::cancel_live;
      o.pick = rng();
      if (rng() % 2 == 0) o.refile_dt = pick_dt(rng);
    } else if (r < cancel_idle) {
      o.kind = op_kind::cancel_idle;
      o.pick = rng();
    } else if (r < run_next) {
      o.kind = op_kind::run_next;
      o.count = static_cast<int>(1 + rng() % 4);
    } else if (r < run_before) {
      o.kind = r < run_until ? op_kind::run_until : op_kind::run_before;
      // Mostly short hops (peeks that land between events), sometimes far.
      o.dt = static_cast<time_ps>(rng() % (rng() % 2 ? 50 : 500'000));
    } else {
      o.kind = op_kind::run_instant;
    }
    script.push_back(o);
  }
  return script;
}

void run_equivalence(std::uint64_t seed, std::size_t ops,
                     const op_mix& mix = {}) {
  const auto script = make_script(seed, ops, mix);
  driver<simulator, event> kernel;
  driver<model_kernel, model_kernel::event> model;
  for (std::size_t i = 0; i < script.size(); ++i) {
    kernel.apply(script[i]);
    model.apply(script[i]);
    ASSERT_EQ(kernel.now(), model.now()) << "op " << i << " seed " << seed;
    ASSERT_EQ(kernel.pending(), model.pending()) << "op " << i;
    ASSERT_EQ(kernel.log.size(), model.log.size()) << "op " << i;
    if (!kernel.log.empty()) {
      ASSERT_EQ(kernel.log.back(), model.log.back()) << "op " << i;
    }
  }
  kernel.drain();
  model.drain();
  EXPECT_EQ(kernel.log, model.log) << "seed " << seed;
  EXPECT_EQ(kernel.now(), model.now());
  EXPECT_EQ(kernel.processed(), model.processed());
  EXPECT_EQ(kernel.pending(), 0u);
  EXPECT_EQ(model.pending(), 0u);
}

TEST(sim_wheel_equivalence, fuzz_seed_1) { run_equivalence(1, 4000); }
TEST(sim_wheel_equivalence, fuzz_seed_2) { run_equivalence(0xdecafbad, 4000); }
TEST(sim_wheel_equivalence, fuzz_seed_3) { run_equivalence(20260730, 4000); }
// Every undeferred schedule is cancellable, nearly every one is
// cancelled (half of them filed again at once) and little runs, so the
// pending set grows slowly while its dead entries outnumber it: the kernel
// compacts its heap more than a dozen times mid-script. (Peeks and instant
// runs would keep jumping the clock past the dead entries, so this mix
// leaves them out.)
TEST(sim_wheel_equivalence, fuzz_seed_4_cancel_heavy) {
  run_equivalence(4, 20'000,
                  op_mix{.schedule = 45,
                         .cancel_live = 50,
                         .cancel_idle = 2,
                         .run_next = 3,
                         .run_until = 0,
                         .run_before = 0,
                         .run_instant = 0,
                         .cancellable_percent = 100});
}

// ---------------------------------------------------------------------------
// Deterministic kernel regressions.

TEST(sim_wheel, cascade_dispatches_in_time_order_across_bucket_boundaries) {
  // Times straddling the power-of-two boundaries 2^8, 2^16, 2^24, ... ps,
  // scheduled shuffled, must dispatch in exact ascending order.
  simulator s;
  testing::deferred_calls call(s);
  const std::vector<time_ps> times = {
      255,         256,       257,        65535,    65536,
      65537,       (1ll << 24) - 1, 1ll << 24, (1ll << 24) + 1,
      (1ll << 32) - 1, 1ll << 32, (1ll << 40) + 5,
      (1ll << 48) - 1, 1ll << 48,
      (1ll << 48) + 1,
      1ll << 52,
  };
  std::vector<time_ps> shuffled = times;
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<time_ps> seen;
  for (const time_ps t : shuffled) {
    call.at(t, [&seen, &s] { seen.push_back(s.now()); });
  }
  s.run();
  std::vector<time_ps> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST(sim_wheel, same_instant_run_at_bucket_boundary_keeps_phase_order) {
  // A filed/deferred tie at t = 256 (the deferred events filed by the
  // first event there, ahead of the other), plus a same-instant child,
  // must dispatch filed events by seq, then deferred ones.
  simulator s;
  testing::deferred_calls call(s);
  std::vector<int> order;
  call.at(256, [&] {
    order.push_back(3);
    call.late([&] { order.push_back(5); });
    call.in(0, [&] { order.push_back(4); });  // same instant
    call.late([&] { order.push_back(6); });
  });
  call.at(256, [&] { order.push_back(3); });
  call.at(1, [&] { order.push_back(0); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 3, 4, 5, 6}));
}

TEST(sim_wheel, overflow_events_migrate_into_wheel_in_order) {
  // An event scheduled minutes ahead is overtaken by one scheduled later
  // for just before it; both must still run in global time order.
  simulator s;
  testing::deferred_calls call(s);
  std::vector<int> order;
  call.at(100, [&] {
    order.push_back(1);
    call.at((1ll << 50) - 1, [&] { order.push_back(2); });
  });
  call.at(1ll << 50, [&] { order.push_back(3); });
  call.at((1ll << 50) + 5, [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), (1ll << 50) + 5);
}

TEST(sim_wheel, run_until_peek_then_earlier_schedule_keeps_order) {
  // run_until stops between events; a later schedule landing between the
  // stop point and the already-known next event must not be lost or
  // reordered.
  simulator s;
  testing::deferred_calls call(s);
  std::vector<int> order;
  call.at(1000, [&] { order.push_back(2); });
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
  call.at(600, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 1000);
}

TEST(sim_wheel, run_until_boundary_peeks_across_levels) {
  // Events at the power-of-two boundaries 2^8, 2^16, 2^24 and 2^48;
  // horizons land just short of each.
  simulator s;
  testing::deferred_calls call(s);
  std::vector<time_ps> seen;
  for (const time_ps t : {255ll, 256ll, 65536ll, 1ll << 24, 1ll << 48}) {
    call.at(t, [&] { seen.push_back(s.now()); });
  }
  s.run_until(255);
  EXPECT_EQ(seen.size(), 1u);
  s.run_until(256);
  EXPECT_EQ(seen.size(), 2u);
  s.run_until(60000);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(s.now(), 60000);
  // Lands between the peek horizon and the already-pending event at 2^16.
  call.at(61000, [&] { seen.push_back(s.now()); });
  s.run_until(1ll << 24);
  EXPECT_EQ(seen,
            (std::vector<time_ps>{255, 256, 61000, 65536, 1ll << 24}));
  s.run();
  EXPECT_EQ(seen.back(), 1ll << 48);
}

TEST(sim_wheel, schedule_in_saturates_instead_of_overflowing) {
  // Regression: now + dt used to overflow (UB) for far-future relative
  // timers, e.g. an idle retransmit clock at WAN scale. The sum now
  // saturates to the end of time: schedulable, ordered after everything
  // finite, still cancellable.
  simulator s;
  testing::deferred_calls call(s);
  call.at(1000, [] {});
  s.run();
  ASSERT_EQ(s.now(), 1000);
  std::vector<int> order;
  call.in(std::numeric_limits<time_ps>::max(), [&] { order.push_back(2); });
  call.at(kTimeInfinity, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // saturated sorts last
  EXPECT_EQ(s.now(), std::numeric_limits<time_ps>::max());

  // And cancellation of a saturated timer (an owned event, as a TCP flow's
  // retransmit timer is) keeps accounting exact.
  struct timer final : event {
    void fire() override { ++runs; }
    int runs = 0;
  } far;
  s.schedule_in(std::numeric_limits<time_ps>::max() - 1, far);
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(far);
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(far.runs, 0);
}

TEST(sim_wheel, dense_timer_churn_stays_exact) {
  // Adversarial-jamming-style dense timers: thousands of events packed
  // into adjacent instants with heavy cancel/reschedule churn; the
  // kernel's accounting and ordering must stay exact. (Mirrors the
  // workload shape of Böhm et al.'s jamming sweeps.)
  struct timer final : event {
    explicit timer(std::function<void()>& fn) : on_fire(fn) {}
    void fire() override { on_fire(); }
    std::function<void()>& on_fire;
  };
  simulator s;
  std::mt19937_64 rng(99);
  std::uint64_t fired = 0;
  time_ps last = 0;
  std::function<void()> on_fire = [&] {
    EXPECT_GE(s.now(), last);
    last = s.now();
    ++fired;
  };
  std::deque<timer> timers;  // never moves its elements
  for (int round = 0; round < 2000; ++round) {
    for (int j = 0; j < 4; ++j) {
      s.schedule_in(static_cast<time_ps>(rng() % 16),
                    timers.emplace_back(on_fire));
    }
    if (rng() % 2 == 0) {
      s.cancel(timers[rng() % timers.size()]);  // may already have run
    }
    s.run_next();
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(fired, s.events_processed());
}

}  // namespace
}  // namespace ups::sim
