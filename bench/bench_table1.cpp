// Table 1: LSTF replayability across scenarios.
//
// Reproduces every row of the paper's Table 1: the fraction of packets
// overdue in an LSTF replay, and the fraction overdue by more than T (one
// transmission time on the bottleneck link).
//
// Usage: bench_table1 [--packets=N] [--seed=N] [--scale=F] [--quick]
//                     [--utilization=F] [--workload=W] [--fault=F] [--flow=C]
//
// --workload reruns the whole table under a different traffic source
// (paced, closed-loop[:n], closed-loop-tcp[:n], incast[:degree]);
// --utilization forces every row to one utilization; --fault and --flow
// record every original under a fault process or flow control.
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::flags& f) {
  using namespace ups;
  const std::uint64_t budget = f.budget(120'000);

  struct row_spec {
    exp::topo_kind topo;
    double util;
    core::sched_kind sched;
  };
  const row_spec rows[] = {
      // Block 1: the default scenario.
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::random},
      // Block 2: utilization sweep.
      {exp::topo_kind::i2_default, 0.1, core::sched_kind::random},
      {exp::topo_kind::i2_default, 0.3, core::sched_kind::random},
      {exp::topo_kind::i2_default, 0.5, core::sched_kind::random},
      {exp::topo_kind::i2_default, 0.9, core::sched_kind::random},
      // Block 3: link-bandwidth variants.
      {exp::topo_kind::i2_1g_1g, 0.7, core::sched_kind::random},
      {exp::topo_kind::i2_10g_10g, 0.7, core::sched_kind::random},
      // Block 4: other topologies.
      {exp::topo_kind::rocketfuel, 0.7, core::sched_kind::random},
      {exp::topo_kind::fattree, 0.7, core::sched_kind::random},
      // Block 5: original scheduling algorithms.
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::fifo},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::fq},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::sjf},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::lifo},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::fq_fifo_plus_mix},
  };

  exp::scenario probe;
  exp::apply_overrides(f, probe);
  std::printf("Table 1: LSTF replayability (%llu packets per scenario, "
              "%s workload)\n\n",
              static_cast<unsigned long long>(budget),
              traffic::to_string(probe.workload_kind));
  stats::table t({"Topology", "Util", "Scheduling", "Frac overdue",
                  "Frac overdue > T", "packets"});
  for (const auto& r : rows) {
    exp::scenario sc;
    sc.topo = r.topo;
    sc.utilization = r.util;
    sc.sched = r.sched;
    sc.packet_budget = budget;
    exp::apply_overrides(f, sc);
    const auto res = exp::table1_row(sc);
    t.add_row({exp::to_string(r.topo),
               stats::table::fmt_pct(r.util, 0),
               core::to_string(r.sched),
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T()),
               std::to_string(res.total)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf(
      "\nPaper's Table 1 (for shape comparison): default Random row was\n"
      "0.0021 / 0.0002; SJF and LIFO fare worst in total overdue but small\n"
      "beyond-T; utilization shows a 'low point' then improves.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_table1", argc, argv, ups::exp::table1_flags,
                             run_with);
}
