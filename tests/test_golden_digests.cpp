// Golden digests: replay outputs pinned as committed data.
//
// The paper scores a candidate scheduler by replaying a recorded schedule
// and comparing each packet's replayed exit time with its original one
// (§2), so the repo's core contract is that originals and replay outcomes
// stay byte-identical across refactors. This test pins FNV-1a digests
// (replay_test_util.h) of original traces, over their v1 text, and of
// replay results with every per-packet outcome, for two sets of inputs:
//
//   1. the benchmark cells: every sweep-short cell, closed-loop-tcp and
//      dc-credit's credit-governed fat-tree incast, each recorded at seed 1
//      with hop times and at most 2,000 packets, then replayed in all six
//      modes (dc-credit also under live credits);
//   2. the inputs the retired reference implementations were compared on:
//      an I2 open-loop trace (the legacy UDP generator), two dumbbell
//      traces (up-front injection) and the two Figure-5 gadgets.
//
// A mismatch names the scenario, the mode, both digests and the table line
// that would accept the new output. An intended behaviour change edits
// exactly those lines, and its change description says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "gadget_runner.h"
#include "net/fault.h"
#include "net/flow_control.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/gadgets.h"
#include "topo/internet2.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::testing {
namespace {

struct golden {
  const char* scenario;
  const char* mode;  // "original" for the recorded trace itself
  std::uint64_t digest;
};

constexpr golden kGolden[] = {
    {"i2 50%", "original", 0x03f59502c0930bbfull},
    {"i2 50%", "LSTF", 0x863fd935be167aa9ull},
    {"i2 50%", "LSTF(preempt)", 0x7835937bedc983f1ull},
    {"i2 50%", "LSTF(p-heap)", 0x863fd935be167aa9ull},
    {"i2 50%", "EDF", 0x863fd935be167aa9ull},
    {"i2 50%", "Priority(o(p))", 0xd82ad96898f1d42bull},
    {"i2 50%", "Omniscient", 0x2fb6a1ae368dbb1cull},
    {"i2 70%", "original", 0x376bace08bf6101bull},
    {"i2 70%", "LSTF", 0xacc89ff1811f3ac6ull},
    {"i2 70%", "LSTF(preempt)", 0x888ab5c8397fee89ull},
    {"i2 70%", "LSTF(p-heap)", 0xacc89ff1811f3ac6ull},
    {"i2 70%", "EDF", 0xacc89ff1811f3ac6ull},
    {"i2 70%", "Priority(o(p))", 0x3e864c2c8fd15be4ull},
    {"i2 70%", "Omniscient", 0x6b4cb307900c9678ull},
    {"i2 90%", "original", 0x37c63d6e993af45bull},
    {"i2 90%", "LSTF", 0xde2d70e856961920ull},
    {"i2 90%", "LSTF(preempt)", 0xaa79a8d8221489b1ull},
    {"i2 90%", "LSTF(p-heap)", 0xde2d70e856961920ull},
    {"i2 90%", "EDF", 0xde2d70e856961920ull},
    {"i2 90%", "Priority(o(p))", 0xe4e275b69694a5a0ull},
    {"i2 90%", "Omniscient", 0x47924511f6e9b594ull},
    {"i2-1g 70%", "original", 0xbb43b37d19e5409aull},
    {"i2-1g 70%", "LSTF", 0x77a81caa5a98c8feull},
    {"i2-1g 70%", "LSTF(preempt)", 0xe7ee78aaa11304eeull},
    {"i2-1g 70%", "LSTF(p-heap)", 0x77a81caa5a98c8feull},
    {"i2-1g 70%", "EDF", 0x77a81caa5a98c8feull},
    {"i2-1g 70%", "Priority(o(p))", 0x9ffe2b0ae0d13e44ull},
    {"i2-1g 70%", "Omniscient", 0x3b8f4cf255a13bebull},
    {"fattree 70%", "original", 0x63d1cecbcfe801d6ull},
    {"fattree 70%", "LSTF", 0x818dac07443ad831ull},
    {"fattree 70%", "LSTF(preempt)", 0xd7ba94a5d91dfa56ull},
    {"fattree 70%", "LSTF(p-heap)", 0x818dac07443ad831ull},
    {"fattree 70%", "EDF", 0x818dac07443ad831ull},
    {"fattree 70%", "Priority(o(p))", 0x6134c32a243bcac0ull},
    {"fattree 70%", "Omniscient", 0x3a03081cef64ca73ull},
    {"fattree incast", "original", 0x5e1fefddf0a28921ull},
    {"fattree incast", "LSTF", 0x3a59507501d56709ull},
    {"fattree incast", "LSTF(preempt)", 0x5d928d254911090dull},
    {"fattree incast", "LSTF(p-heap)", 0x3a59507501d56709ull},
    {"fattree incast", "EDF", 0x3a59507501d56709ull},
    {"fattree incast", "Priority(o(p))", 0x8febf113c883959full},
    {"fattree incast", "Omniscient", 0xe1ccedca11b5a914ull},
    {"rocketfuel mixed:8", "original", 0xd9f588c49d4c040dull},
    {"rocketfuel mixed:8", "LSTF", 0x304f1f04919442c8ull},
    {"rocketfuel mixed:8", "LSTF(preempt)", 0x21746a6b7070253bull},
    {"rocketfuel mixed:8", "LSTF(p-heap)", 0x304f1f04919442c8ull},
    {"rocketfuel mixed:8", "EDF", 0x304f1f04919442c8ull},
    {"rocketfuel mixed:8", "Priority(o(p))", 0xc163ef9e7be90a9eull},
    {"rocketfuel mixed:8", "Omniscient", 0xe99e81be45f2f288ull},
    {"rocketfuel mixed:16", "original", 0x4f868f975ee1655dull},
    {"rocketfuel mixed:16", "LSTF", 0xae8d8bd82850b904ull},
    {"rocketfuel mixed:16", "LSTF(preempt)", 0x5ecc6747d9605036ull},
    {"rocketfuel mixed:16", "LSTF(p-heap)", 0xae8d8bd82850b904ull},
    {"rocketfuel mixed:16", "EDF", 0xae8d8bd82850b904ull},
    {"rocketfuel mixed:16", "Priority(o(p))", 0x4ec77396b8507751ull},
    {"rocketfuel mixed:16", "Omniscient", 0x53b4037de9a59966ull},
    {"rocketfuel mixed:32", "original", 0xf46494b3afa2ac56ull},
    {"rocketfuel mixed:32", "LSTF", 0xea19224f3c3bd6f6ull},
    {"rocketfuel mixed:32", "LSTF(preempt)", 0xeccdc07e5f882311ull},
    {"rocketfuel mixed:32", "LSTF(p-heap)", 0xea19224f3c3bd6f6ull},
    {"rocketfuel mixed:32", "EDF", 0xea19224f3c3bd6f6ull},
    {"rocketfuel mixed:32", "Priority(o(p))", 0xe30a2d1fcdbb0173ull},
    {"rocketfuel mixed:32", "Omniscient", 0xe92a1a5588383bbfull},
    {"i2 closed-loop", "original", 0xdd202dd47aa0d463ull},
    {"i2 closed-loop", "LSTF", 0x672f9521b816db58ull},
    {"i2 closed-loop", "LSTF(preempt)", 0x71211586e7eba485ull},
    {"i2 closed-loop", "LSTF(p-heap)", 0x672f9521b816db58ull},
    {"i2 closed-loop", "EDF", 0x672f9521b816db58ull},
    {"i2 closed-loop", "Priority(o(p))", 0xb65386aa9039fd00ull},
    {"i2 closed-loop", "Omniscient", 0xb65386aa9039fd00ull},
    {"i2 paced", "original", 0x466f2e540c47402cull},
    {"i2 paced", "LSTF", 0x1f0b4a47dcc5fdbeull},
    {"i2 paced", "LSTF(preempt)", 0x6261da2bd0bba956ull},
    {"i2 paced", "LSTF(p-heap)", 0x1f0b4a47dcc5fdbeull},
    {"i2 paced", "EDF", 0x1f0b4a47dcc5fdbeull},
    {"i2 paced", "Priority(o(p))", 0xd63539a0d2736262ull},
    {"i2 paced", "Omniscient", 0x398f34a52bc08000ull},
    {"i2 bernoulli", "original", 0xbfaccc0027ca374cull},
    {"i2 bernoulli", "LSTF", 0x2d1f632623e322deull},
    {"i2 bernoulli", "LSTF(preempt)", 0x5cc1ecf3aeae8449ull},
    {"i2 bernoulli", "LSTF(p-heap)", 0x2d1f632623e322deull},
    {"i2 bernoulli", "EDF", 0x2d1f632623e322deull},
    {"i2 bernoulli", "Priority(o(p))", 0x89efb4d7e53f8712ull},
    {"i2 bernoulli", "Omniscient", 0x4ef85c3f6932d262ull},
    {"i2 closed-loop-tcp", "original", 0xc27e74c92c2a9eefull},
    {"i2 closed-loop-tcp", "LSTF", 0x0d9ea26988a3a931ull},
    {"i2 closed-loop-tcp", "LSTF(preempt)", 0xf0bb1015a6f7f64dull},
    {"i2 closed-loop-tcp", "LSTF(p-heap)", 0x0d9ea26988a3a931ull},
    {"i2 closed-loop-tcp", "EDF", 0x0d9ea26988a3a931ull},
    {"i2 closed-loop-tcp", "Priority(o(p))", 0xf0bb1015a6f7f64dull},
    {"i2 closed-loop-tcp", "Omniscient", 0xf0bb1015a6f7f64dull},
    {"fattree incast:16 credit", "original", 0x0bb4a331c9343345ull},
    {"fattree incast:16 credit", "LSTF", 0x5ee6038c430cebedull},
    {"fattree incast:16 credit", "LSTF(preempt)", 0x6bd5e5cbe745f958ull},
    {"fattree incast:16 credit", "LSTF(p-heap)", 0x5ee6038c430cebedull},
    {"fattree incast:16 credit", "EDF", 0x038c44049e599960ull},
    {"fattree incast:16 credit", "Priority(o(p))", 0x193c4962e826b4a4ull},
    {"fattree incast:16 credit", "Omniscient", 0xdfed57fcf9e9f6bfull},
    {"fattree incast:16 credit", "LSTF live", 0xe9b043005b6c621aull},
    {"fattree incast:16 credit", "EDF live", 0x3639761b5a24a8bfull},
    {"i2 open-loop", "original", 0x2ecdd9d38a151b54ull},
    {"i2 open-loop", "LSTF", 0x855d2e89e3e464eeull},
    {"dumbbell random", "original", 0x4684572fab672fdeull},
    {"dumbbell random", "LSTF", 0x844644fc83d7597full},
    {"dumbbell random", "LSTF(preempt)", 0x844644fc83d7597full},
    {"dumbbell random", "EDF", 0x844644fc83d7597full},
    {"dumbbell random", "Priority(o(p))", 0x844644fc83d7597full},
    {"dumbbell fifo", "original", 0xc8d348d8f0d3aa95ull},
    {"dumbbell fifo", "LSTF", 0x3aaf9a115c07addbull},
    {"fig5 case 1", "original", 0x6f4e0af30afe89fcull},
    {"fig5 case 1", "LSTF", 0xd57dc1a977870238ull},
    {"fig5 case 1", "EDF", 0xd57dc1a977870238ull},
    {"fig5 case 1", "Omniscient", 0xf2d214c4f0054e24ull},
    {"fig5 case 2", "original", 0x7216bb6b33633862ull},
    {"fig5 case 2", "LSTF", 0xf2eda78bc868f42aull},
    {"fig5 case 2", "EDF", 0xf2eda78bc868f42aull},
    {"fig5 case 2", "Omniscient", 0x1e41030f1dd8f524ull},
};

void expect_golden(const std::string& scenario, const std::string& mode,
                   std::uint64_t actual) {
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016llxull},",
                scenario.c_str(), mode.c_str(),
                static_cast<unsigned long long>(actual));
  for (const golden& g : kGolden) {
    if (scenario != g.scenario || mode != g.mode) continue;
    EXPECT_EQ(actual, g.digest)
        << "golden digest mismatch: scenario '" << scenario << "', mode '"
        << mode << "': expected 0x" << std::hex << g.digest << ", actual 0x"
        << actual << "\n  table line for the new output: " << line;
    return;
  }
  ADD_FAILURE() << "no golden digest for scenario '" << scenario
                << "', mode '" << mode << "'\n  table line: " << line;
}

core::replay_result replay(const topo::topology& topology,
                           const net::trace& trace, core::replay_mode mode,
                           sim::time_ps threshold_T,
                           const net::flow_spec& flow = {}) {
  core::replay_options opt;
  opt.mode = mode;
  opt.threshold_T = threshold_T;
  opt.keep_outcomes = true;
  opt.flow = flow;
  return core::replay_trace(
      trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

constexpr core::replay_mode kAllModes[] = {
    core::replay_mode::lstf,
    core::replay_mode::lstf_preemptive,
    core::replay_mode::lstf_pheap,
    core::replay_mode::edf,
    core::replay_mode::priority_output_time,
    core::replay_mode::omniscient,
};

// --- set 1: the benchmark cells -----------------------------------------------

struct cell {
  const char* name;
  exp::topo_kind topo;
  double util;
  const char* workload;  // null: open-loop
  const char* fault;     // null: lossless links
  const char* flow;      // null: ungoverned; else also the live replay flow
};

// sweep-short's cells, then closed-loop-tcp and dc-credit.
constexpr cell kCells[] = {
    {"i2 50%", exp::topo_kind::i2_default, 0.5, nullptr, nullptr, nullptr},
    {"i2 70%", exp::topo_kind::i2_default, 0.7, nullptr, nullptr, nullptr},
    {"i2 90%", exp::topo_kind::i2_default, 0.9, nullptr, nullptr, nullptr},
    {"i2-1g 70%", exp::topo_kind::i2_1g_1g, 0.7, nullptr, nullptr, nullptr},
    {"fattree 70%", exp::topo_kind::fattree, 0.7, nullptr, nullptr, nullptr},
    {"fattree incast", exp::topo_kind::fattree, 0.7, "incast", nullptr,
     nullptr},
    {"rocketfuel mixed:8", exp::topo_kind::rocketfuel, 0.7,
     "mixed:8:16:0.25", nullptr, nullptr},
    {"rocketfuel mixed:16", exp::topo_kind::rocketfuel, 0.7,
     "mixed:16:16:0.25", nullptr, nullptr},
    {"rocketfuel mixed:32", exp::topo_kind::rocketfuel, 0.7,
     "mixed:32:16:0.25", nullptr, nullptr},
    {"i2 closed-loop", exp::topo_kind::i2_default, 0.7, "closed-loop",
     nullptr, nullptr},
    {"i2 paced", exp::topo_kind::i2_default, 0.7, "paced", nullptr, nullptr},
    {"i2 bernoulli", exp::topo_kind::i2_default, 0.7, nullptr,
     "bernoulli:0.01", nullptr},
    {"i2 closed-loop-tcp", exp::topo_kind::i2_default, 0.7,
     "closed-loop-tcp", nullptr, nullptr},
    {"fattree incast:16 credit", exp::topo_kind::fattree, 0.7, "incast:16",
     nullptr, "credit:15000"},
};

TEST(golden_digests, benchmark_cells) {
  for (const cell& c : kCells) {
    SCOPED_TRACE(c.name);
    exp::scenario sc;
    sc.topo = c.topo;
    sc.utilization = c.util;
    sc.sched = core::sched_kind::random;
    sc.seed = 1;
    sc.packet_budget = 2'000;
    sc.record_hops = true;
    if (c.workload != nullptr) {
      sc.workload_kind = traffic::parse_workload(c.workload, sc.workload_spec);
    }
    if (c.fault != nullptr) sc.fault = net::fault_spec::parse(c.fault);
    if (c.flow != nullptr) sc.flow = net::flow_spec::parse(c.flow);
    const exp::original_run orig = exp::run_original(sc);
    expect_golden(c.name, "original", trace_digest(orig.trace));
    for (const core::replay_mode mode : kAllModes) {
      expect_golden(c.name, core::to_string(mode),
                    replay_digest(replay(orig.topology, orig.trace, mode,
                                         orig.threshold_T)));
    }
    if (!sc.flow.enabled()) continue;
    for (const core::replay_mode mode :
         {core::replay_mode::lstf, core::replay_mode::edf}) {
      expect_golden(c.name, std::string(core::to_string(mode)) + " live",
                    replay_digest(replay(orig.topology, orig.trace, mode,
                                         orig.threshold_T, sc.flow)));
    }
  }
}

// --- set 2: inputs of the retired reference comparisons -----------------------

TEST(golden_digests, i2_open_loop_trace) {
  // Heavy-tailed open-loop flows at 70%, replayed with LSTF.
  const topo::topology topology = topo::internet2();
  sim::simulator sim;
  net::network net(sim);
  topo::populate(topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::random, 1, &net));
  net.build();
  net::trace_recorder rec(net);
  const auto dist = traffic::default_heavy_tailed();
  traffic::workload_config wcfg;
  wcfg.utilization = 0.7;
  wcfg.packet_budget = 5'000;
  auto made = traffic::make_source(net, topology, *dist, wcfg,
                                   traffic::source_kind::open_loop);
  sim.run();
  const net::trace tr = rec.take();
  expect_golden("i2 open-loop", "original", trace_digest(tr));
  expect_golden("i2 open-loop", "LSTF",
                replay_digest(replay(topology, tr, core::replay_mode::lstf,
                                     sim::transmission_time(1500,
                                                            sim::kGbps))));
}

TEST(golden_digests, dumbbell_traces) {
  const auto random = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                                 core::sched_kind::random, 4'000, 0.8);
  expect_golden("dumbbell random", "original", trace_digest(random.trace));
  for (const core::replay_mode mode :
       {core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
        core::replay_mode::edf, core::replay_mode::priority_output_time}) {
    expect_golden("dumbbell random", core::to_string(mode),
                  replay_digest(
                      replay(random.topology, random.trace, mode, 0)));
  }
  const auto fifo = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                               core::sched_kind::fifo, 6'000, 0.5);
  expect_golden("dumbbell fifo", "original", trace_digest(fifo.trace));
  expect_golden("dumbbell fifo", "LSTF",
                replay_digest(replay(fifo.topology, fifo.trace,
                                     core::replay_mode::lstf, 0)));
}

TEST(golden_digests, fig5_gadgets) {
  // The gadgets prescribe exact per-hop schedules, so any change in how
  // same-instant arrivals are ordered shows up as an outcome diff.
  for (const int c : {1, 2}) {
    const std::string name = "fig5 case " + std::to_string(c);
    const gadget_run run = run_gadget_original(topo::fig5_case(c));
    expect_golden(name, "original", trace_digest(run.trace));
    for (const core::replay_mode mode :
         {core::replay_mode::lstf, core::replay_mode::edf,
          core::replay_mode::omniscient}) {
      expect_golden(name, core::to_string(mode),
                    replay_digest(replay_gadget(run, mode)));
    }
  }
}

}  // namespace
}  // namespace ups::testing
