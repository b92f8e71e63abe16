// Ablation (§2.3(2)): replayability vs network utilization.
//
// A finer-grained sweep than Table 1's 10/30/50/70/90%: shows the
// non-monotone "low point" the paper describes — replayability worsens,
// then improves as higher utilization creates more slack to re-adjust.
//
// Usage: bench_ablation_utilization [--packets=N] [--seed=N] [--scale=F]
//                                   [--workload=W]
//
// --workload sweeps utilization under a different traffic source (paced,
// closed-loop[:n], closed-loop-tcp[:n], incast[:degree]) — the sweep the
// open-loop burst model could not make meaningful on WAN topologies.
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::args& a) {
  using namespace ups;
  const std::uint64_t budget = a.budget(80'000);

  exp::scenario probe;
  exp::apply_overrides(a, probe);
  std::printf("Utilization sweep: LSTF replay of Random on I2 "
              "(%llu packets per point, %s workload)\n\n",
              static_cast<unsigned long long>(budget),
              traffic::to_string(probe.workload_kind));
  stats::table t({"Utilization", "Frac overdue", "Frac overdue > T",
                  "mean lateness of overdue (us)"});
  for (const double u : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    exp::scenario sc;
    sc.packet_budget = budget;
    exp::apply_overrides(a, sc);
    sc.utilization = u;  // the sweep variable wins over --utilization
    const auto orig = exp::run_original(sc);
    const auto res =
        exp::run_replay(orig, core::replay_mode::lstf, /*keep_outcomes=*/true);
    double late_sum = 0;
    std::uint64_t late_n = 0;
    for (const auto& o : res.outcomes) {
      if (o.lateness() > 0) {
        late_sum += sim::to_micros(o.lateness());
        ++late_n;
      }
    }
    t.add_row({stats::table::fmt_pct(u, 0),
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T()),
               late_n == 0 ? "-" : stats::table::fmt(late_sum / late_n, 1)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf("\nPaper: 10%% -> 0.0007, 30%% -> 0.0281, 50%% -> 0.0221,"
              " 70%% -> 0.0021, 90%% -> 0.0008\n(expect degradation then"
              " improvement; the exact low point varies per setting).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_ablation_utilization", argc, argv, run_with);
}
