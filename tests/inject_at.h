// Test helper: injects a packet the way the replay feeder does.
#pragma once

#include <utility>

#include "net/network.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::testing {

// Injects p at its ingress router at time t, from an early-phase event the
// way the replay feeder does.
inline void inject_at(net::network& net, net::packet_ptr p, sim::time_ps t) {
  net.sim().schedule_early(t, [&net, q = std::move(p)]() mutable {
    net.inject_at_ingress(std::move(q));
  });
}

}  // namespace ups::testing
