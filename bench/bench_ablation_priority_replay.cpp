// Ablation (§2.3(7)): how close is each candidate UPS to universal?
//
// Replays the same default-scenario schedule with every candidate: LSTF,
// preemptive LSTF, EDF (must equal LSTF), simple priorities with
// priority = o(p), and the omniscient initialization (must be perfect).
// Next to the overdue fractions it prints each mode's median queueing-delay
// ratio (replay : original) over the packets that queued in the original.
//
// Usage: bench_ablation_priority_replay [--packets=N] [--seed=N] [--scale=F]
//                                       [--quick]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::flags& f) {
  using namespace ups;

  exp::scenario sc;
  sc.seed = f.number("seed", sc.seed);
  sc.packet_budget = f.budget(100'000);
  sc.record_hops = true;  // omniscient replay needs per-hop times

  std::printf("Candidate-UPS comparison on %s (%llu packets)\n\n",
              sc.label().c_str(),
              static_cast<unsigned long long>(sc.packet_budget));
  const auto orig = exp::run_original(sc);

  stats::table t({"Replay mode", "Frac overdue", "Frac overdue > T",
                  "Median qdelay ratio"});
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
    t.add_row({core::to_string(mode),
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T()),
               ratios.empty() ? "-"
                              : stats::table::fmt(ratios.quantile(0.5), 3)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf("\nPaper §2.3(7): simple priorities 21%% overdue / 20.69%% >T"
              " vs LSTF 0.21%% / 0.02%%.\nEDF must match LSTF exactly"
              " (Appendix E); omniscient must be 0 (Appendix B).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_ablation_priority_replay", argc, argv,
                             ups::exp::bench_flags, run_with);
}
