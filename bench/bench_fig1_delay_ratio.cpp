// Figure 1: CDF of the ratio of queueing delay (LSTF replay : original
// schedule) on the default Internet2 topology at 70% utilization, for six
// original scheduling algorithms.
//
// Usage: bench_fig1_delay_ratio [--packets=N] [--seed=N] [--scale=F]
#include <cstdio>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/summary.h"

namespace {

int run_with(const ups::exp::args& a) {
  using namespace ups;
  const std::uint64_t budget = a.budget(100'000);

  const core::sched_kind kinds[] = {
      core::sched_kind::random, core::sched_kind::fifo, core::sched_kind::fq,
      core::sched_kind::sjf,    core::sched_kind::lifo,
      core::sched_kind::fq_fifo_plus_mix,
  };

  std::vector<stats::sample_set> ratios(std::size(kinds));
  std::vector<double> excluded(std::size(kinds));
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    exp::scenario sc;
    sc.sched = kinds[i];
    sc.seed = a.seed;
    sc.packet_budget = budget;
    const auto orig = exp::run_original(sc);
    const auto res =
        exp::run_replay(orig, core::replay_mode::lstf, /*keep_outcomes=*/true);
    std::uint64_t zero_orig = 0;
    for (const auto& o : res.outcomes) {
      if (o.original_queueing > 0) {
        ratios[i].add(static_cast<double>(o.replay_queueing) /
                      static_cast<double>(o.original_queueing));
      } else {
        ++zero_orig;
      }
    }
    excluded[i] = static_cast<double>(zero_orig) /
                  static_cast<double>(res.outcomes.size());
    std::printf(".");
    std::fflush(stdout);
  }

  std::printf("\n\nFigure 1: CDF of queueing-delay ratio "
              "(LSTF replay : original), I2 @70%%\n\n");
  std::printf("%8s", "CDF");
  for (const auto k : kinds) std::printf("  %10s", core::to_string(k));
  std::printf("\n");
  for (const double q :
       {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    std::printf("%8.2f", q);
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      std::printf("  %10.3f", ratios[i].quantile(q));
    }
    std::printf("\n");
  }
  std::printf("\n%8s", "mean");
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    std::printf("  %10.3f", ratios[i].mean());
  }
  std::printf("\n%8s", "frac<1");
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    std::printf("  %10.3f", ratios[i].cdf_at(1.0));
  }
  std::printf("\n\n(packets with zero original queueing are excluded: ");
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    std::printf("%.1f%% ", excluded[i] * 100);
  }
  std::printf(")\n");
  std::printf("\nPaper's Figure 1: most packets see a SMALLER queueing delay"
              " in the LSTF replay\nthan in the original schedule — LSTF"
              " eliminates 'wasted waiting'.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_fig1_delay_ratio", argc, argv, run_with);
}
