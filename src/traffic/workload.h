// Poisson open-loop workload with utilization calibration.
//
// The paper runs "each end host generates UDP flows using a Poisson
// inter-arrival model ... at 70% utilization". We calibrate the per-host
// offered rate analytically so that the most loaded directed link in the
// network (access or core) carries exactly the target utilization under the
// uniform random traffic matrix, then pre-generate flow arrivals until a
// packet budget is met so experiment cost is topology-independent.
//
// The calibration core is shared by every traffic::source kind: the Poisson
// flow list feeds the open-loop, paced, and closed-loop sources, and
// generate_incast reuses the same per-host rate to produce synchronized
// N-to-1 fan-in bursts at the same offered network load, as a flow list the
// open-loop source runs.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "topo/topology.h"
#include "traffic/size_dist.h"

namespace ups::traffic {

// Sources cut every flow into packets of at most this many bytes, and a
// workload counts its packet budget in them.
inline constexpr std::uint32_t kMtuBytes = 1500;

struct flow_spec {
  std::uint64_t id = 0;
  net::node_id src = net::kInvalidNode;
  net::node_id dst = net::kInvalidNode;
  std::uint64_t size_bytes = 0;
  sim::time_ps start = 0;
};

struct workload_config {
  double utilization = 0.7;
  std::uint64_t seed = 1;
  // Stop generating once this many MTU-sized packets have been emitted.
  std::uint64_t packet_budget = 200'000;
  // Pair enumeration is exact up to this host count, sampled above it
  // (RocketFuel has 830 hosts; exact enumeration would be quadratic).
  std::size_t exact_pair_limit = 200;
  std::size_t sampled_pairs = 20'000;
};

struct workload {
  std::vector<flow_spec> flows;
  double per_host_rate_bps = 0.0;  // calibrated offered rate per host
  std::uint64_t total_packets = 0;
};

// Calibrates the per-host offered rate (bits/sec) so that the most loaded
// directed link carries cfg.utilization under the uniform random traffic
// matrix. `net` must be built (routing). Shared by generate() and
// generate_incast(); exposed so tests can verify the calibration directly.
[[nodiscard]] double calibrate_per_host_rate(net::network& net,
                                             const topo::topology& topo,
                                             const workload_config& cfg);

// Calibrates and generates the flow list. `net` must be built (routing);
// the topology supplies host ids and link rates.
[[nodiscard]] workload generate(net::network& net, const topo::topology& topo,
                                const flow_size_dist& dist,
                                const workload_config& cfg);

// Calibrated incast: synchronized N-to-1 fan-in epochs whose barriers
// arrive as a Poisson process at a rate that keeps the aggregate offered
// load equal to generate()'s (same calibration). Each epoch picks a uniform
// victim and `degree` distinct senders (at most host_count() - 1), each of
// which starts one flow toward the victim at the barrier plus a jitter
// uniform in [0, barrier_jitter]. Flows are listed epoch by epoch, senders
// in pick order, with ids 1, 2, ...: every consecutive group of
// min(degree, host_count() - 1) flows is one epoch.
[[nodiscard]] workload generate_incast(net::network& net,
                                       const topo::topology& topo,
                                       const flow_size_dist& dist,
                                       const workload_config& cfg,
                                       std::uint32_t degree,
                                       sim::time_ps barrier_jitter);

// Highest observed utilization across finite-rate ports: bytes actually
// transmitted over `span` divided by link capacity. The empirical check
// that the analytic calibration above lands where it claims.
[[nodiscard]] double measured_peak_utilization(const net::network& net,
                                               sim::time_ps span);

}  // namespace ups::traffic
