// Replay inspector: record one Internet2 schedule and replay it under every
// candidate UPS (LSTF, preemptive LSTF, EDF, simple priorities, omniscient),
// printing the overdue fractions and queueing-delay ratios side by side.
//
// Usage: replay_inspector [--packets=N] [--seed=N] [--quick]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::args& a) {
  using namespace ups;

  exp::scenario sc;
  sc.seed = a.seed;
  sc.packet_budget = a.budget(40'000);
  sc.record_hops = true;  // omniscient replay needs per-hop times

  std::printf("recording original schedule: %s (%llu packets)...\n",
              sc.label().c_str(),
              static_cast<unsigned long long>(sc.packet_budget));
  const auto orig = exp::run_original(sc);
  std::printf("recorded %zu packets; T = %.1f us\n\n",
              orig.trace.packets.size(), sim::to_micros(orig.threshold_T));

  stats::table t({"replay mode", "frac overdue", "frac overdue > T",
                  "median qdelay ratio"});
  for (const auto mode :
       {core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
        core::replay_mode::edf, core::replay_mode::priority_output_time,
        core::replay_mode::omniscient}) {
    const auto res = exp::run_replay(orig, mode, /*keep_outcomes=*/true);
    stats::sample_set ratios;
    for (const auto& o : res.outcomes) {
      if (o.original_queueing > 0) {
        ratios.add(static_cast<double>(o.replay_queueing) /
                   static_cast<double>(o.original_queueing));
      }
    }
    t.add_row({core::to_string(mode), stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T()),
               ratios.empty() ? "-" : stats::table::fmt(ratios.quantile(0.5), 3)});
  }
  t.print(std::cout);
  std::printf(
      "\nNotes: LSTF == EDF by Appendix E; the omniscient row is the\n"
      "Appendix B existence proof (perfect replay); the priority row is\n"
      "§2.3(7)'s 'most intuitive' static assignment priority(p) = o(p).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("example_replay_inspector", argc, argv, run_with);
}
