// Failure-injection tests: the library must fail loudly and precisely on
// misuse rather than silently producing wrong schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/gadgets.h"
#include "topo/topology.h"
#include "traffic/size_dist.h"
#include "traffic/workload.h"

namespace ups {
namespace {

TEST(errors, network_requires_factory_before_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  EXPECT_THROW(n.build(), std::logic_error);
}

TEST(errors, network_rejects_double_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(n.build(), std::logic_error);
}

TEST(errors, network_rejects_topology_changes_after_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(static_cast<void>(n.add_router("late")), std::logic_error);
  EXPECT_THROW(static_cast<void>(n.add_host("late")), std::logic_error);
  EXPECT_THROW(n.add_link(0, 0, sim::kGbps, 0), std::logic_error);
}

TEST(errors, missing_port_lookup_throws) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(static_cast<void>(n.port_between(0, 1)), std::out_of_range);
}

TEST(errors, unreachable_route_throws) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");  // disconnected from r0
  const auto h0 = n.add_host("h0");
  const auto h1 = n.add_host("h1");
  n.add_link(0, h0, sim::kGbps, 0);
  n.add_link(1, h1, sim::kGbps, 0);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  std::vector<net::node_id> path;
  EXPECT_THROW(n.route(h0, h1, path), std::runtime_error);
}

TEST(errors, host_with_two_uplinks_rejected_in_routing) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");
  const auto h = n.add_host("h");
  const auto h2 = n.add_host("h2");
  n.add_link(0, 1, sim::kGbps, 0);
  n.add_link(0, h, sim::kGbps, 0);
  n.add_link(1, h, sim::kGbps, 0);  // second uplink: ambiguous attachment
  n.add_link(1, h2, sim::kGbps, 0);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  std::vector<net::node_id> path;
  EXPECT_THROW(n.route(h, h2, path), std::logic_error);
}

TEST(errors, replay_of_empty_trace_is_empty_result) {
  net::trace empty;
  core::replay_options opt;
  const auto topo = topo::line(2);
  const auto res = core::replay_trace(
      empty, [&topo](net::network& n) { topo::populate(topo, n); }, opt);
  EXPECT_EQ(res.total, 0u);
  EXPECT_DOUBLE_EQ(res.frac_overdue(), 0.0);
  EXPECT_DOUBLE_EQ(res.frac_overdue_beyond_T(), 0.0);
}

TEST(errors, replay_rejects_record_path_naming_no_router) {
  // Every replay mode trusts a record's path for tmin, port lookups and
  // forwarding, so a path that is empty or names anything but a router of
  // the topology must fail as a typed error before any of them runs. An
  // out-of-range ingress used to crash replay; an empty path used to be
  // silently re-routed.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.packet_budget = 200;
  sc.record_hops = true;  // omniscient mode needs per-hop times
  const exp::original_run clean = exp::run_original(sc);
  ASSERT_FALSE(clean.trace.packets.empty());
  const auto& first = clean.trace.packets.front();
  ASSERT_GE(first.path.size(), 2u);
  struct corruption {
    const char* name;
    std::vector<net::node_id> path;
  };
  std::vector<net::node_id> bad_ingress = first.path;
  bad_ingress[0] = 99'999;
  std::vector<net::node_id> host_inside = first.path;
  host_inside[1] = first.dst_host;
  const corruption cases[] = {
      {"out-of-range ingress", bad_ingress},
      {"host inside the path", host_inside},
      {"empty path", {}},
  };
  for (const auto& c : cases) {
    exp::original_run bad = clean;
    bad.trace.packets.front().path = c.path;
    for (const auto mode :
         {core::replay_mode::lstf, core::replay_mode::edf,
          core::replay_mode::priority_output_time,
          core::replay_mode::omniscient}) {
      EXPECT_THROW(static_cast<void>(exp::run_replay(bad, mode)),
                   std::invalid_argument)
          << c.name << " / " << core::to_string(mode);
    }
  }
}

TEST(errors, replay_rejects_record_path_that_is_not_a_route) {
  // A path of routers is a route only when each router links to the next
  // and the last one to the destination host. Replay walks each record's
  // path once, before the packet exists, so every mode fails such a record
  // with the same typed error naming it (LSTF and EDF used to throw
  // logic_error("network: broken path"), Priority and Omniscient
  // out_of_range("network: no such port"), naming no record).
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.packet_budget = 200;
  sc.record_hops = true;  // omniscient mode needs per-hop times
  const exp::original_run clean = exp::run_original(sc);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(clean.topology, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  // A record whose first and third routers share no link: dropping the
  // second router leaves two unlinked routers next to each other.
  const auto it = std::find_if(
      clean.trace.packets.begin(), clean.trace.packets.end(),
      [&net](const net::packet_record& r) {
        return r.path.size() >= 3 &&
               net.find_port(r.path[0], r.path[2]) == nullptr;
      });
  ASSERT_NE(it, clean.trace.packets.end());
  const std::size_t at =
      static_cast<std::size_t>(it - clean.trace.packets.begin());
  const net::packet_record& first = *it;
  const std::string record = "replay: record " + std::to_string(first.id);
  struct corruption {
    const char* name;
    std::vector<net::node_id> path;
    net::node_id dst_host;
    std::string message;
  };
  std::vector<net::node_id> skipped = first.path;
  skipped.erase(skipped.begin() + 1);
  const net::node_id last = first.path.back();
  const corruption cases[] = {
      {"unlinked routers", skipped, first.dst_host,
       record + " path has no link from node " +
           std::to_string(first.path[0]) + " to node " +
           std::to_string(first.path[2])},
      {"dst_host on another router", first.path, first.src_host,
       record + " dst_host " + std::to_string(first.src_host) +
           " is not a host linked to its last router " +
           std::to_string(last)},
      {"dst_host a router", first.path, first.path[first.path.size() - 2],
       record + " dst_host " +
           std::to_string(first.path[first.path.size() - 2]) +
           " is not a host linked to its last router " +
           std::to_string(last)},
      {"dst_host out of range", first.path, 99'999,
       record + " dst_host 99999 is not a host linked to its last router " +
           std::to_string(last)},
  };
  for (const auto& c : cases) {
    exp::original_run bad = clean;
    bad.trace.packets[at].path = c.path;
    bad.trace.packets[at].hop_departs.resize(c.path.size());
    bad.trace.packets[at].dst_host = c.dst_host;
    for (const auto mode :
         {core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
          core::replay_mode::lstf_pheap, core::replay_mode::edf,
          core::replay_mode::priority_output_time,
          core::replay_mode::omniscient}) {
      try {
        (void)exp::run_replay(bad, mode);
        ADD_FAILURE() << c.name << " / " << core::to_string(mode)
                      << " replayed";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), c.message)
            << c.name << " / " << core::to_string(mode);
      }
    }
  }
}

TEST(errors, replay_rejects_record_entering_before_the_clock) {
  // Replay runs the kernel up to each record's ingress instant before it
  // injects the record, so a record that enters before the replay clock —
  // a negative first ingress, or one behind its predecessor's — must fail
  // as a typed error naming the record and both times, not as the
  // kernel's logic_error for scheduling into the past.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.packet_budget = 200;
  const exp::original_run clean = exp::run_original(sc);
  net::trace sorted = clean.trace;
  net::sort_by_ingress(sorted);
  ASSERT_GE(sorted.packets.size(), 2u);
  const auto& topology = clean.topology;
  const auto builder = [&topology](net::network& n) {
    topo::populate(topology, n);
  };
  const auto expect_rejected = [&builder](const net::trace& t,
                                          std::size_t late,
                                          sim::time_ps clock) {
    // A v1 stream serves the records in stored order, sorted or not.
    std::stringstream ss;
    net::write_trace(ss, t);
    net::trace_stream_reader cur(ss);
    const net::packet_record& r = t.packets[late];
    try {
      (void)core::replay_trace(cur, builder, core::replay_options{});
      ADD_FAILURE() << "record " << r.id << " at " << r.ingress_time
                    << " ps replayed";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      for (const std::string& part :
           {"record " + std::to_string(r.id) + " ",
            std::to_string(r.ingress_time) + " ps",
            "(" + std::to_string(clock) + " ps)"}) {
        EXPECT_NE(msg.find(part), std::string::npos) << part << " in " << msg;
      }
    }
  };

  net::trace negative = sorted;
  negative.packets.front().ingress_time = -5;
  expect_rejected(negative, 0, 0);

  // Swap the first adjacent pair with distinct ingress times.
  net::trace unsorted = sorted;
  std::size_t i = 0;
  while (i + 1 < unsorted.packets.size() &&
         unsorted.packets[i].ingress_time ==
             unsorted.packets[i + 1].ingress_time) {
    ++i;
  }
  ASSERT_LT(i + 1, unsorted.packets.size());
  std::swap(unsorted.packets[i], unsorted.packets[i + 1]);
  expect_rejected(unsorted, i + 1, unsorted.packets[i].ingress_time);
}

TEST(errors, gadget_case_index_validated) {
  EXPECT_THROW(static_cast<void>(topo::fig5_case(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(topo::fig5_case(3)), std::invalid_argument);
}

TEST(errors, workload_requires_two_hosts) {
  sim::simulator sim;
  net::network n(sim);
  topo::topology t;
  t.routers = 1;
  t.hosts.push_back(topo::host_spec{0, sim::kGbps, 0});
  topo::populate(t, n);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  traffic::fixed_size dist(1500);
  EXPECT_THROW(static_cast<void>(traffic::generate(n, t, dist, {})),
               std::invalid_argument);
}

TEST(errors, bounded_pareto_validates_parameters) {
  EXPECT_THROW(traffic::bounded_pareto(1.0, 10, 100), std::invalid_argument);
  EXPECT_THROW(traffic::bounded_pareto(1.2, 0, 100), std::invalid_argument);
  EXPECT_THROW(traffic::bounded_pareto(1.2, 100, 100), std::invalid_argument);
}

TEST(errors, empirical_dist_validates_cdf) {
  EXPECT_THROW(traffic::empirical({{100.0, 0.5}}, "bad"),
               std::invalid_argument);
  EXPECT_THROW(traffic::empirical({{100.0, 0.2}, {200.0, 0.9}}, "bad"),
               std::invalid_argument);
}

TEST(errors, fattree_requires_even_k) {
  topo::fattree_config cfg;
  cfg.k = 3;
  EXPECT_THROW(static_cast<void>(topo::fattree(cfg)), std::invalid_argument);
}

TEST(errors, all_infinite_topology_has_no_bottleneck) {
  topo::topology t;
  t.routers = 1;
  t.hosts.push_back(topo::host_spec{0, sim::kInfiniteRate, 0});
  EXPECT_THROW(static_cast<void>(t.bottleneck_rate()), std::logic_error);
}

}  // namespace
}  // namespace ups
