// Ablation (§2.3(5)): preemption rescues the hard-to-replay schedules.
//
// The paper: with preemption, SJF's overdue fraction drops from 18.33% to
// 0.24% and LIFO's from 14.77% to 0.25%. This bench replays SJF, LIFO and
// Random originals with non-preemptive and preemptive LSTF side by side.
//
// Usage: bench_ablation_preemption [--packets=N] [--seed=N] [--scale=F]
//                                  [--quick]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::flags& f) {
  using namespace ups;
  const std::uint64_t budget = f.budget(100'000);

  std::printf("Ablation: non-preemptive vs preemptive LSTF replay "
              "(I2 @70%%, %llu packets)\n\n",
              static_cast<unsigned long long>(budget));

  stats::table t({"Original", "overdue (non-preempt)", "overdue (preempt)",
                  ">T (non-preempt)", ">T (preempt)"});
  for (const auto kind : {core::sched_kind::sjf, core::sched_kind::lifo,
                          core::sched_kind::random}) {
    exp::scenario sc;
    sc.sched = kind;
    sc.seed = f.number("seed", sc.seed);
    sc.packet_budget = budget;
    const auto orig = exp::run_original(sc);
    const auto np = exp::run_replay(orig, core::replay_mode::lstf);
    const auto pe = exp::run_replay(orig, core::replay_mode::lstf_preemptive);
    t.add_row({core::to_string(kind), stats::table::fmt_frac(np.frac_overdue()),
               stats::table::fmt_frac(pe.frac_overdue()),
               stats::table::fmt_frac(np.frac_overdue_beyond_T()),
               stats::table::fmt_frac(pe.frac_overdue_beyond_T())});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf("\nPaper: SJF 18.33%% -> 0.24%%, LIFO 14.77%% -> 0.25%% with"
              " preemption\n(expect a large drop for the skewed-slack"
              " schedules, small change for Random).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_ablation_preemption", argc, argv,
                             ups::exp::bench_flags, run_with);
}
