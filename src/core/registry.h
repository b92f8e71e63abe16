// Central scheduler registry: names every algorithm in the paper and builds
// per-port scheduler factories for networks, including mixed assignments
// (e.g. half the routers FQ, half FIFO+, as in Table 1's last row).
#pragma once

#include <cstdint>
#include <string>

#include "net/network.h"

namespace ups::core {

enum class sched_kind : std::uint8_t {
  fifo,
  lifo,
  random,
  static_priority,   // rank = packet.priority
  sjf,               // rank = flow size
  sjf_pfabric,       // SJF with pFabric starvation prevention
  srpt_pfabric,      // SRPT with pFabric starvation prevention
  fq,                // virtual-finish-time fair queueing
  drr,               // deficit round robin
  virtual_clock,     // Zhang's Virtual Clock [32]
  fifo_plus,         // CSZ FIFO+
  fq_fifo_plus_mix,  // half the routers FQ, half FIFO+ (Table 1 row 5)
  lstf,              // non-preemptive LSTF
  lstf_preemptive,
  lstf_pheap,        // LSTF on the §5 pipelined heap (unbounded buffers)
  edf,
  omniscient,
};

[[nodiscard]] const char* to_string(sched_kind k);
[[nodiscard]] sched_kind sched_kind_from(const std::string& name);

// Builds a factory assigning `kind` to every port. `net` is only required
// for EDF (tmin lookups) and may be null otherwise; it must outlive the
// produced network. The seed feeds per-port random streams.
[[nodiscard]] net::scheduler_factory make_factory(sched_kind kind,
                                                  std::uint64_t seed,
                                                  const net::network* net =
                                                      nullptr);

}  // namespace ups::core
