#include "topo/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ups::topo {

sim::bits_per_sec topology::bottleneck_rate() const {
  sim::bits_per_sec lo = sim::kInfiniteRate;
  for (const auto& l : core_links) lo = std::min(lo, l.rate);
  for (const auto& h : hosts) lo = std::min(lo, h.rate);
  if (lo == sim::kInfiniteRate) {
    throw std::logic_error("topology: all links infinite");
  }
  return lo;
}

void topology::scale_delays(double factor) {
  for (auto& l : core_links) {
    l.delay = static_cast<sim::time_ps>(static_cast<double>(l.delay) * factor);
  }
  for (auto& h : hosts) {
    h.delay = static_cast<sim::time_ps>(static_cast<double>(h.delay) * factor);
  }
}

namespace {

// "<prefix><i>", built with += because GCC 12 emits a spurious -Wrestrict
// for `"r" + std::to_string(i)`.
std::string numbered(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

void populate(const topology& t, net::network& net) {
  for (std::int32_t i = 0; i < t.routers; ++i) {
    net.add_router(i < static_cast<std::int32_t>(t.router_names.size())
                       ? t.router_names[i]
                       : numbered("r", static_cast<std::size_t>(i)));
  }
  for (std::size_t i = 0; i < t.hosts.size(); ++i) {
    net.add_host(numbered("h", i));
  }
  for (const auto& l : t.core_links) {
    net.add_link(l.a, l.b, l.rate, l.delay);
  }
  for (std::size_t i = 0; i < t.hosts.size(); ++i) {
    net.add_link(t.hosts[i].router, t.host_id(i), t.hosts[i].rate,
                 t.hosts[i].delay);
  }
}

}  // namespace ups::topo
