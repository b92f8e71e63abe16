// Figure 4: Jain fairness index over time for long-lived TCP flows on the
// Internet2 fairness topology: FIFO, FQ, and LSTF with virtual-clock slack
// at r_est in {1, 0.5, 0.1, 0.05, 0.01} Gbps.
//
// Usage: bench_fig4_fairness [--seed=N] [--quick]
#include <cstdio>
#include <vector>

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

  std::printf("Figure 4: fairness for %d long-lived TCP flows "
              "(jittered starts over %.0f ms)\n\n",
              cfg.flows, sim::to_millis(cfg.start_jitter));

  std::vector<exp::fairness_result> results;
  results.push_back(exp::run_fairness(exp::fairness_variant::fifo, 0, cfg));
  std::printf(".");
  std::fflush(stdout);
  results.push_back(exp::run_fairness(exp::fairness_variant::fq, 0, cfg));
  std::printf(".");
  std::fflush(stdout);
  for (const auto rest :
       {sim::kGbps, sim::kGbps / 2, sim::kGbps / 10, sim::kGbps / 20,
        sim::kGbps / 100}) {
    results.push_back(
        exp::run_fairness(exp::fairness_variant::lstf, rest, cfg));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%8s", "t(ms)");
  for (const auto& r : results) {
    if (r.r_est > 0) {
      std::printf(" LSTF@%5.2fG", static_cast<double>(r.r_est) / 1e9);
    } else {
      std::printf(" %10s", r.label.c_str());
    }
  }
  std::printf("\n");
  for (std::size_t i = 0; i < results.front().time_ms.size(); ++i) {
    std::printf("%8.1f", results.front().time_ms[i]);
    for (const auto& r : results) std::printf(" %10.3f", r.jain[i]);
    std::printf("\n");
  }
  std::printf("\nPaper's Figure 4: LSTF converges to fairness ~1 for every"
              " r_est <= r* (1 Gbps here),\nconverging slightly sooner when"
              " r_est is closer to r*; FQ reaches 1 at ~5 ms.\n");

  // §3.3's weighted extension: per-flow r_est proportional to weights.
  std::printf("\nWeighted fairness (class 1 weight = 2x):\n");
  for (const double w : {1.0, 2.0, 4.0}) {
    const auto res = exp::run_weighted_fairness(w, sim::kGbps / 2, cfg);
    std::printf("  weight %.1f -> measured throughput ratio %.2f "
                "(class0 %.0f Mbps, class1 %.0f Mbps)\n",
                w, res.measured_ratio, res.class0_mbps, res.class1_mbps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_fig4_fairness", argc, argv, run_with);
}
