// Test helper: files lambdas at a time, or defers them, through the kernel.
//
// sim::simulator runs only events their owners embed and keep at one
// address until they have run. deferred_calls owns one such event per call,
// in a deque (which never moves its elements), so a test can file a lambda
// as freely as it files an event. It must outlive every run of the kernel
// its calls were filed with.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::testing {

class deferred_calls {
 public:
  explicit deferred_calls(sim::simulator& s) : s_(s) {}

  // Files fn at time t (simulator::schedule_at).
  void at(sim::time_ps t, std::function<void()> fn) {
    s_.schedule_at(t, add(std::move(fn)));
  }
  // Files fn dt after now() (simulator::schedule_in).
  void in(sim::time_ps dt, std::function<void()> fn) {
    s_.schedule_in(dt, add(std::move(fn)));
  }
  // Defers fn to the end of the current instant (simulator::defer_late).
  void late(std::function<void()> fn) { s_.defer_late(add(std::move(fn))); }

 private:
  struct call final : sim::event {
    void fire() override { fn(); }
    std::function<void()> fn;
  };

  call& add(std::function<void()> fn) {
    call& c = calls_.emplace_back();
    c.fn = std::move(fn);
    return c;
  }

  sim::simulator& s_;
  std::deque<call> calls_;
};

}  // namespace ups::testing
