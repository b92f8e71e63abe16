// Fairness convergence (§3.3 / Figure 4): long-lived TCP flows on the
// Internet2 fairness topology; Jain index over time for FIFO, FQ and LSTF
// with virtual-clock slack at several r_est values.
//
// Usage: fairness_convergence [--seed=N] [--quick]
#include <cstdio>

#include "exp/args.h"
#include "exp/fairness_experiment.h"

namespace {

int run_with(const ups::exp::args& a) {
  using namespace ups;

  exp::fairness_config cfg;
  cfg.seed = a.seed;
  if (a.quick) {
    cfg.flows = 30;
    cfg.horizon = 10 * sim::kMillisecond;
  }

  std::vector<exp::fairness_result> results;
  results.push_back(exp::run_fairness(exp::fairness_variant::fifo, 0, cfg));
  results.push_back(exp::run_fairness(exp::fairness_variant::fq, 0, cfg));
  for (const auto rest :
       {sim::kGbps, sim::kGbps / 2, sim::kGbps / 10, sim::kGbps / 20,
        sim::kGbps / 100}) {
    results.push_back(
        exp::run_fairness(exp::fairness_variant::lstf, rest, cfg));
  }

  std::printf("Jain fairness index over time (%d long-lived TCP flows):\n\n",
              cfg.flows);
  std::printf("%8s", "t(ms)");
  for (const auto& r : results) {
    if (r.r_est > 0) {
      std::printf("  LSTF@%4.2fG", static_cast<double>(r.r_est) / 1e9);
    } else {
      std::printf("  %10s", r.label.c_str());
    }
  }
  std::printf("\n");
  for (std::size_t i = 0; i < results.front().time_ms.size(); ++i) {
    std::printf("%8.1f", results.front().time_ms[i]);
    for (const auto& r : results) std::printf("  %10.3f", r.jain[i]);
    std::printf("\n");
  }
  std::printf("\nFigure 4's shape: FQ converges to 1 once all flows start;"
              " LSTF converges for every r_est <= r*, slightly sooner for"
              " r_est closer to r*.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("example_fairness_convergence", argc, argv,
                             run_with);
}
