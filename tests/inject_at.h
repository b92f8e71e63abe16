// Test helper: injects a packet at its ingress router from a kernel event.
#pragma once

#include <utility>

#include "net/network.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::testing {

// Injects p at its ingress router at time t, from an event filed now.
// Precondition: p carries its path, as network::inject_at_ingress requires.
inline void inject_at(net::network& net, net::packet_ptr p, sim::time_ps t) {
  net.sim().schedule_at(t, [&net, q = std::move(p)]() mutable {
    net.inject_at_ingress(std::move(q));
  });
}

}  // namespace ups::testing
