// Shared replay test helpers: full-field replay_result identity (everything
// except the informational residency high-water marks), the open-loop
// recording fixture several suites replay, and the FNV-1a digests the
// golden test (tests/test_golden_digests.cpp) pins.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/registry.h"
#include "core/replay.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::testing {

inline void expect_identical_results(const core::replay_result& a,
                                     const core::replay_result& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.overdue, b.overdue);
  EXPECT_EQ(a.overdue_beyond_T, b.overdue_beyond_T);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.threshold_T, b.threshold_T);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].original_out, b.outcomes[i].original_out);
    EXPECT_EQ(a.outcomes[i].replay_out, b.outcomes[i].replay_out);
    EXPECT_EQ(a.outcomes[i].original_queueing, b.outcomes[i].original_queueing);
    EXPECT_EQ(a.outcomes[i].replay_queueing, b.outcomes[i].replay_queueing);
  }
}

// A recorded original schedule and the topology it ran on.
struct recorded {
  topo::topology topology;
  net::trace trace;
};

// Runs open-loop 15 kB flows under `kind` on the given topology, unbounded
// buffers, and records the trace.
inline recorded record_run(topo::topology topo, core::sched_kind kind,
                           std::uint64_t packets, double util = 0.6,
                           bool hop_times = false, std::uint64_t seed = 3) {
  recorded out;
  out.topology = std::move(topo);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(kind, seed, &net));
  net.build();
  net::trace_recorder rec(net, hop_times);
  traffic::fixed_size dist(15'000);
  traffic::workload_config wcfg;
  wcfg.utilization = util;
  wcfg.seed = seed;
  wcfg.packet_budget = packets;
  auto wl = traffic::generate(net, out.topology, dist, wcfg);
  traffic::open_loop_source src(net, std::move(wl.flows), {});
  sim.run();
  out.trace = rec.take();
  return out;
}

// FNV-1a, 64 bit.
inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Digest of an original schedule, over its v1 text: every recorded field,
// hop times, drops and stalls included.
inline std::uint64_t trace_digest(const net::trace& tr) {
  std::ostringstream os;
  net::write_trace(os, tr);
  return fnv1a64(os.str());
}

// Digest of a replay run with keep_outcomes, over decimal text: the
// counters, then every outcome in id order. Text keeps the digest
// independent of struct padding and byte order.
inline std::uint64_t replay_digest(const core::replay_result& r) {
  std::string s;
  const auto put = [&s](auto v) {
    s += std::to_string(v);
    s += ' ';
  };
  put(r.total);
  put(r.overdue);
  put(r.overdue_beyond_T);
  put(r.dropped);
  put(r.threshold_T);
  s += '\n';
  for (const core::replay_outcome& o : r.outcomes) {
    put(o.id);
    put(o.original_out);
    put(o.replay_out);
    put(o.original_queueing);
    put(o.replay_queueing);
    s += '\n';
  }
  return fnv1a64(s);
}

}  // namespace ups::testing
