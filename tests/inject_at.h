// Test helper: injects a packet at its ingress router from a kernel event.
#pragma once

#include <memory>
#include <utility>

#include "deferred_calls.h"
#include "net/network.h"
#include "sim/time.h"

namespace ups::testing {

// Injects p at its ingress router at time t, from a call filed now through
// `calls`, which holds p until then. Precondition: p carries its path, as
// network::inject_at_ingress requires.
inline void inject_at(deferred_calls& calls, net::network& net,
                      net::packet_ptr p, sim::time_ps t) {
  // std::function needs a copyable callable; the shared_ptr makes one.
  auto held = std::make_shared<net::packet_ptr>(std::move(p));
  calls.at(t, [&net, held] { net.inject_at_ingress(std::move(*held)); });
}

}  // namespace ups::testing
