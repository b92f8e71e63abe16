// Test helper: defers lambdas through the kernel's run list.
//
// sim::simulator::defer_late takes an event its owner embeds and keeps at
// one address until it runs. deferred_calls owns one such event per
// deferral, in a deque (which never moves its elements), so a test can
// defer a lambda as freely as it schedules one.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/simulator.h"

namespace ups::testing {

class deferred_calls {
 public:
  explicit deferred_calls(sim::simulator& s) : s_(s) {}

  // Defers fn to the end of the current instant (simulator::defer_late).
  void operator()(std::function<void()> fn) {
    call& c = calls_.emplace_back();
    c.fn = std::move(fn);
    s_.defer_late(c);
  }

 private:
  struct call final : sim::event {
    void fire() override { fn(); }
    std::function<void()> fn;
  };

  sim::simulator& s_;
  std::deque<call> calls_;
};

}  // namespace ups::testing
