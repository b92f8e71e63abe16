// Flow-control subsystem: spec parsing, the per-link credit/pause ledger,
// head-of-line blocking at governed ports, lossless conservation across
// every scheduler family and dispatch backend, the stall watchdog's typed
// deadlock/persistent-stall errors, buffer admission edge cases, stall
// records surviving every trace format round-trip, and
// replay-under-backpressure semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/flow_control.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/topology.h"

namespace ups::net {
namespace {

using ups::testing::expect_identical_results;

// --- spec parsing ----------------------------------------------------------

TEST(flow_spec, parse_and_label_round_trip) {
  const flow_spec off = flow_spec::parse("");
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.label(), "");
  EXPECT_FALSE(flow_spec::parse("none").enabled());

  const flow_spec c = flow_spec::parse("credit:30000");
  EXPECT_EQ(c.kind, flow_kind::credit);
  EXPECT_EQ(c.credit_bytes, 30000);
  EXPECT_LT(c.return_delay, 0);  // defaulted to the link's own delay
  EXPECT_EQ(c.label(), "credit:30000");
  EXPECT_EQ(flow_spec::parse(c.label()).credit_bytes, c.credit_bytes);

  const flow_spec cr = flow_spec::parse("credit:30000,5");
  EXPECT_EQ(cr.return_delay, 5 * sim::kMicrosecond);
  EXPECT_EQ(cr.label(), "credit:30000,5");

  const flow_spec p = flow_spec::parse("pause:30000,15000");
  EXPECT_EQ(p.kind, flow_kind::pause);
  EXPECT_EQ(p.pause_high, 30000);
  EXPECT_EQ(p.pause_low, 15000);
  EXPECT_EQ(p.label(), "pause:30000,15000");
}

TEST(flow_spec, rejects_malformed_input) {
  // Budgets below one MTU could never admit a full-size packet; a pause
  // high <= low can never resume. Both die at parse, not as a mysterious
  // wedge mid-run.
  EXPECT_THROW((void)flow_spec::parse("credit:"), std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("credit:100"), std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("credit:-3000"), std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("credit:30000,-1"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("credit:30000,1,2"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("pause:30000"), std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("pause:1000,500"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("pause:30000,30000"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("pause:30000,0"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("pause:15000,30000"),
               std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("xon:1"), std::invalid_argument);
  EXPECT_THROW((void)flow_spec::parse("credit:zap"), std::invalid_argument);
}

// --- per-link ledger -------------------------------------------------------

TEST(link_flow, credit_mode_gates_on_occupancy) {
  link_flow lf(flow_spec::parse("credit:3000"), sim::kMicrosecond);
  EXPECT_TRUE(lf.governed());
  EXPECT_EQ(lf.return_delay(), sim::kMicrosecond);  // defaulted to link delay
  EXPECT_TRUE(lf.can_send(1500));
  lf.consume(1500);
  EXPECT_TRUE(lf.can_send(1500));
  lf.consume(1500);
  EXPECT_FALSE(lf.can_send(1500)) << "budget exhausted";
  EXPECT_TRUE(lf.release(1500));  // credit mode always re-kicks
  EXPECT_TRUE(lf.can_send(1500));
  EXPECT_EQ(lf.occupancy(), 1500);
}

TEST(link_flow, explicit_rtt_overrides_link_delay) {
  link_flow lf(flow_spec::parse("credit:3000,5"), sim::kMicrosecond);
  EXPECT_EQ(lf.return_delay(), 5 * sim::kMicrosecond);
}

TEST(link_flow, pause_mode_hysteresis) {
  link_flow lf(flow_spec::parse("pause:4500,1500"), sim::kMicrosecond);
  EXPECT_TRUE(lf.can_send(1500));
  lf.consume(1500);
  lf.consume(1500);
  EXPECT_TRUE(lf.can_send(1500)) << "below high: still sending";
  lf.consume(1500);  // occupancy hits high -> XOFF
  EXPECT_TRUE(lf.paused());
  EXPECT_FALSE(lf.can_send(1500));
  EXPECT_FALSE(lf.release(1500)) << "3000 > low: still paused";
  EXPECT_FALSE(lf.can_send(1500));
  EXPECT_TRUE(lf.release(1500)) << "1500 <= low: XON crossing reported";
  EXPECT_FALSE(lf.paused());
  EXPECT_TRUE(lf.can_send(1500));
}

// --- network integration ---------------------------------------------------

packet_ptr make_packet(std::uint64_t id, node_id src, node_id dst) {
  packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = 1500;
  p->src_host = src;
  p->dst_host = dst;
  return p;
}

TEST(flow_network, set_flow_after_build_throws) {
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  EXPECT_THROW(net.set_flow(flow_spec::parse("credit:3000")),
               std::logic_error);
}

TEST(flow_network, every_scheduler_family_conserves_packets_losslessly) {
  // A tight credit budget (one packet in flight per governed link, return
  // latency > packet time) forces stalls on a plain line — and because
  // backpressure parks packets instead of dropping them, every scheduler
  // family must deliver every injected packet: injected == delivered,
  // dropped == 0, with the stall ledger balanced (every block resumed).
  for (int k = 0; k <= static_cast<int>(core::sched_kind::omniscient); ++k) {
    const auto kind = static_cast<core::sched_kind>(k);
    sim::simulator sim;
    network net(sim);
    auto topo = topo::line(3, sim::kGbps, sim::kMicrosecond);
    topo::populate(topo, net);
    net.set_buffer_bytes(0);
    net.set_scheduler_factory(core::make_factory(kind, 1, &net));
    net.set_flow(flow_spec::parse("credit:1500"));
    net.build();
    const auto h0 = topo.host_id(0);
    const auto h1 = topo.host_id(1);
    for (int i = 0; i < 30; ++i) {
      net.send_from_host(make_packet(i + 1, h0, h1));
    }
    sim.run();
    const auto& st = net.stats();
    const char* name = core::to_string(kind);
    EXPECT_EQ(st.injected, 30u) << name;
    EXPECT_EQ(st.delivered, 30u) << name;
    EXPECT_EQ(st.dropped, 0u) << name;
    EXPECT_GT(st.flow_blocks, 0u) << name << ": the budget never bit";
    EXPECT_EQ(st.flow_blocks, st.flow_resumes) << name;
    EXPECT_GT(st.flow_stall_time, 0) << name;
    std::uint64_t pauses = 0;
    std::uint64_t resumes = 0;
    sim::time_ps stalled = 0;
    for (const auto& pt : net.ports()) {
      pauses += pt->stats().pauses;
      resumes += pt->stats().resumes;
      stalled += pt->stats().stalled_time;
    }
    EXPECT_EQ(pauses, st.flow_blocks) << name;
    EXPECT_EQ(resumes, st.flow_resumes) << name;
    EXPECT_EQ(stalled, st.flow_stall_time) << name;
  }
}

TEST(flow_network, blocked_head_is_not_overtaken_by_better_rank) {
  // Head-of-line gadget: p2 parks on the credit-starved core link; p3
  // arrives behind it with a far better (smaller) LSTF slack. A scheduler
  // consulted at resume time would send p3 first — but the blocked head
  // holds its position, so egress order stays 1, 2, 3.
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::lstf, 1));
  net.set_flow(flow_spec::parse("credit:1500"));
  net.build();
  std::vector<std::uint64_t> egress_order;
  net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    egress_order.push_back(p.id);
  };
  const auto h0 = topo.host_id(0);
  const auto h1 = topo.host_id(1);
  // Staggered so the host NIC forwards them in id order (p1 is already
  // transmitting when p2/p3 arrive); p2 then parks on the core link and p3
  // queues behind it before p1's credit returns.
  const sim::time_ps send_at[] = {0, 13 * sim::kMicrosecond,
                                  14 * sim::kMicrosecond};
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(send_at[i], [&, i] {
      packet_ptr p = make_packet(i + 1, h0, h1);
      p->slack = i == 2 ? 0 : 1'000'000'000;  // p3 is the most urgent
      net.send_from_host(std::move(p));
    });
  }
  sim.run();
  ASSERT_EQ(egress_order.size(), 3u);
  EXPECT_EQ(egress_order[0], 1u);
  EXPECT_EQ(egress_order[1], 2u) << "urgent p3 overtook the blocked head";
  EXPECT_EQ(egress_order[2], 3u);
  // The stall landed on the governed core port and was charged to p2/p3.
  const auto& core_port = net.port_between(topo.router_id(0),
                                           topo.router_id(1));
  EXPECT_GT(core_port.stats().pauses, 0u);
  EXPECT_GT(core_port.stats().stalled_time, 0);
}

TEST(flow_network, credit_cycle_deadlock_is_detected_not_hung) {
  // Two routers, one packet looping A->B->A, one B->A->B, one credit each
  // way: A's packet parks at B waiting for the B->A credit the other
  // packet holds, and vice versa. No credit return is in flight, so no
  // future event can resolve it — the watchdog must throw the typed
  // deadlock error (naming the wait-for cycle) instead of hanging or
  // silently draining the event queue.
  sim::simulator sim;
  network net(sim);
  const node_id ra = net.add_router("A");
  const node_id rb = net.add_router("B");
  const node_id ha = net.add_host("hA");
  const node_id hb = net.add_host("hB");
  net.add_link(ha, ra, sim::kGbps, sim::kMicrosecond);
  net.add_link(hb, rb, sim::kGbps, sim::kMicrosecond);
  net.add_link(ra, rb, sim::kGbps, sim::kMicrosecond);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.set_flow(flow_spec::parse("credit:1500"));
  net.build();

  packet_ptr p1 = make_packet(1, ha, ha);
  p1->path = {ra, rb, ra};
  packet_ptr p2 = make_packet(2, hb, hb);
  p2->path = {rb, ra, rb};
  net.send_from_host(std::move(p1));
  net.send_from_host(std::move(p2));
  try {
    sim.run();
    FAIL() << "deadlocked run completed";
  } catch (const flow_deadlock_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("wait-for cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("A"), std::string::npos) << msg;
    EXPECT_NE(msg.find("B"), std::string::npos) << msg;
  }
}

TEST(flow_network, oversize_packet_vs_budget_is_a_persistent_stall) {
  // A 3000-byte packet against a 1500-byte credit budget can never send:
  // one blocked port, no cycle, no returns in flight. The watchdog's hard
  // cap must surface the wedge as the typed persistent-stall error.
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.set_flow(flow_spec::parse("credit:1500"));
  net.build();
  packet_ptr p = make_packet(1, topo.host_id(0), topo.host_id(1));
  p->size_bytes = 3000;
  net.send_from_host(std::move(p));
  EXPECT_THROW(sim.run(), flow_stall_error);
}

// --- buffer admission edge cases -------------------------------------------

TEST(flow_admission, nonpositive_buffer_means_unlimited) {
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  const auto h0 = topo.host_id(0);
  const auto h1 = topo.host_id(1);
  for (int i = 0; i < 64; ++i) net.send_from_host(make_packet(i + 1, h0, h1));
  sim.run();
  EXPECT_EQ(net.stats().delivered, 64u);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(flow_admission, packet_larger_than_finite_buffer_drops_at_idle_port) {
  // The buffer is idle (zero queued bytes) yet the packet still cannot be
  // admitted: 1500 > 1000 means no eviction could ever make room, so the
  // arriving packet itself tail-drops.
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_buffer_bytes(1000);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  std::uint64_t drops = 0;
  net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                            drop_kind kind) {
    EXPECT_EQ(kind, drop_kind::buffer);
    ++drops;
  };
  net.send_from_host(make_packet(1, topo.host_id(0), topo.host_id(1)));
  sim.run();
  EXPECT_EQ(drops, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(flow_admission, set_buffer_bytes_after_build_throws) {
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  EXPECT_THROW(net.set_buffer_bytes(3000), std::logic_error);
}

// --- stall records across trace formats ------------------------------------

exp::original_run flowed_original(const char* flow, std::uint64_t budget) {
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = budget;
  sc.flow = flow_spec::parse(flow);
  return exp::run_original(sc);
}

void expect_same_stall_records(const trace& a, const trace& b) {
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const auto& x = a.packets[i];
    const auto& y = b.packets[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.stall_hop, y.stall_hop) << "packet " << x.id;
    EXPECT_EQ(x.stall_count, y.stall_count) << "packet " << x.id;
    EXPECT_EQ(x.stall_time, y.stall_time) << "packet " << x.id;
    EXPECT_EQ(x.egress_time, y.egress_time) << "packet " << x.id;
  }
}

trace load_via_cursor(const std::string& path) {
  trace t;
  const auto cur = open_trace_cursor(path);
  while (const packet_record* r = cur->next()) t.packets.push_back(*r);
  return t;
}

TEST(flow_trace, stall_records_survive_every_format_round_trip) {
  auto orig = flowed_original("credit:30000", 3000);
  sort_by_ingress(orig.trace);
  std::uint64_t recorded_stalls = 0;
  for (const auto& r : orig.trace.packets) {
    recorded_stalls += r.stalled() ? 1 : 0;
  }
  ASSERT_GT(recorded_stalls, 0u)
      << "a twenty-packet credit budget at 70% load must stall someone";

  const std::string base = ::testing::TempDir() + "/ups_flow_rt";
  const std::string v1 = base + ".v1.trace";
  const std::string v3 = base + ".v3.trace";
  save_trace(v1, orig.trace);
  save_trace_v3(v3, orig.trace);
  EXPECT_TRUE(trace_file_has_stall_records(v1));
  EXPECT_TRUE(trace_file_has_stall_records(v3));

  expect_same_stall_records(orig.trace, load_via_cursor(v1));
  expect_same_stall_records(orig.trace, load_via_cursor(v3));
  std::remove(v1.c_str());
  std::remove(v3.c_str());
}

TEST(flow_trace, stall_free_traces_keep_the_narrow_layout) {
  // An ungoverned original must keep writing exactly the pre-backpressure
  // layout: no v1 suffix, 14 v3 columns — the sniffers see
  // nothing. (CI additionally gates byte-identity against a fixture.)
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = 1200;
  auto orig = exp::run_original(sc);
  sort_by_ingress(orig.trace);
  const std::string base = ::testing::TempDir() + "/ups_flow_clean";
  const std::string v1 = base + ".v1.trace";
  const std::string v3 = base + ".v3.trace";
  save_trace(v1, orig.trace);
  save_trace_v3(v3, orig.trace);
  EXPECT_FALSE(trace_file_has_stall_records(v1));
  EXPECT_FALSE(trace_file_has_stall_records(v3));
  {
    trace_v3_cursor cur(v3);
    EXPECT_EQ(cur.column_count(), kTraceV3ColumnCount);
  }
  std::remove(v1.c_str());
  std::remove(v3.c_str());
}

// --- replay-under-backpressure ---------------------------------------------

TEST(flow_replay, recorded_stalls_are_reenacted_and_conserved) {
  auto orig = flowed_original("credit:30000", 3000);
  std::uint64_t recorded_stalls = 0;
  for (const auto& r : orig.trace.packets) {
    recorded_stalls += r.stalled() ? 1 : 0;
  }
  ASSERT_GT(recorded_stalls, 0u);

  const auto rep =
      exp::run_replay(orig, core::replay_mode::lstf, /*keep_outcomes=*/true);
  // Lossless conservation through replay: every recorded packet egresses.
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_EQ(rep.total, orig.trace.packets.size());
  // The recorded hold is re-enacted: a stalled packet cannot egress before
  // its ingress plus its recorded stalled time.
  std::size_t checked = 0;
  for (const auto& r : orig.trace.packets) {
    if (!r.stalled()) continue;
    for (const auto& o : rep.outcomes) {
      if (o.id != r.id) continue;
      EXPECT_GE(o.replay_out, r.ingress_time + r.stall_time)
          << "packet " << r.id;
      ++checked;
      break;
    }
  }
  EXPECT_EQ(checked, recorded_stalls);
}

TEST(flow_replay, malformed_stall_hop_is_rejected) {
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = 600;
  auto orig = exp::run_original(sc);
  ASSERT_FALSE(orig.trace.packets.empty());
  auto& victim = orig.trace.packets.front();
  victim.stall_hop = static_cast<std::int32_t>(victim.path.size());
  victim.stall_count = 1;
  victim.stall_time = 1000;
  EXPECT_THROW((void)exp::run_replay(orig, core::replay_mode::lstf, false),
               std::invalid_argument);
}

// --- cross-backend determinism of the backpressured pipeline ---------------

TEST(flow_dispatch, governed_lanes_identical_across_serial_thread_process) {
  std::vector<exp::shard_task> tasks;
  // Budgets loose enough that the cyclic I2 topology backpressures without
  // wedging a whole credit cycle (a genuinely deadlocking budget is its own
  // test above, on a gadget built for it).
  for (const char* f : {"credit:30000", "credit:15000", "pause:30000,15000"}) {
    exp::shard_task t;
    t.sc.topo = exp::topo_kind::i2_default;
    t.sc.utilization = 0.7;
    t.sc.sched = core::sched_kind::random;
    t.sc.seed = 7;
    t.sc.packet_budget = 1200;
    t.sc.flow = flow_spec::parse(f);
    t.modes = {core::replay_mode::lstf, core::replay_mode::edf};
    tasks.push_back(std::move(t));
  }
  exp::shard_options opt;
  opt.keep_outcomes = true;
  const auto plan = exp::dispatch::job_plan::from_tasks(tasks, opt);
  const auto run_on = [&](exp::dispatch::backend_kind kind,
                          std::size_t workers) {
    exp::dispatch::backend_spec spec;
    spec.kind = kind;
    spec.workers = workers;
    auto rep = exp::dispatch::run(plan, spec);
    rep.throw_if_failed();
    return std::move(rep.results);
  };
  const auto serial = run_on(exp::dispatch::backend_kind::serial, 0);
  ASSERT_EQ(serial.size(), tasks.size());
  for (const auto& r : serial) {
    // Lossless lanes: every recorded packet replays to egress.
    for (const auto& rep : r.replays) {
      EXPECT_EQ(rep.result.dropped, 0u);
      EXPECT_EQ(rep.result.total, r.trace_packets);
    }
  }
  std::vector<std::vector<exp::shard_result>> others;
  others.push_back(run_on(exp::dispatch::backend_kind::thread, 4));
#if defined(__unix__) || defined(__APPLE__)
  others.push_back(run_on(exp::dispatch::backend_kind::process, 4));
#endif
  for (const auto& got : others) {
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].trace_packets, got[i].trace_packets);
      ASSERT_EQ(serial[i].replays.size(), got[i].replays.size());
      for (std::size_t m = 0; m < serial[i].replays.size(); ++m) {
        expect_identical_results(serial[i].replays[m].result,
                                 got[i].replays[m].result);
      }
    }
  }
}

}  // namespace
}  // namespace ups::net
