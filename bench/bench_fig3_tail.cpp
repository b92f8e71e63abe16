// Figure 3: complementary CDF of packet delays — LSTF with uniform initial
// slack (== FIFO+) against FIFO, UDP flows on Internet2 at 70%.
//
// Usage: bench_fig3_tail [--packets=N] [--seed=N] [--scale=F]
#include <cstdio>

#include "exp/args.h"
#include "exp/tail_experiment.h"

namespace {

int run_with(const ups::exp::args& a) {
  using namespace ups;

  exp::tail_config cfg;
  cfg.seed = a.seed;
  cfg.packet_budget = a.budget(150'000);

  std::printf("Figure 3: tail packet delays (UDP, %s @%d%%)\n\n",
              exp::to_string(cfg.topo),
              static_cast<int>(cfg.utilization * 100));

  const auto fifo = exp::run_tail(exp::tail_variant::fifo, cfg);
  std::printf(".");
  std::fflush(stdout);
  const auto lstf = exp::run_tail(exp::tail_variant::lstf_uniform_slack, cfg);
  std::printf(".\n\n");

  std::printf("%-10s %12s %12s\n", "", "FIFO", "LSTF(=FIFO+)");
  std::printf("%-10s %12.4f %12.4f\n", "mean (s)", fifo.mean_s, lstf.mean_s);
  std::printf("%-10s %12.4f %12.4f\n", "99%ile (s)", fifo.p99_s, lstf.p99_s);
  std::printf("%-10s %12.4f %12.4f\n", "99.9%ile", fifo.p999_s, lstf.p999_s);
  std::printf("%-10s %12.4f %12.4f\n", "max (s)", fifo.delay_s.max(),
              lstf.delay_s.max());

  std::printf("\nCCDF (fraction of packets with delay > x):\n");
  std::printf("%12s %12s %12s\n", "delay (s)", "FIFO", "LSTF");
  const double xmax = std::max(fifo.delay_s.max(), lstf.delay_s.max());
  for (int i = 1; i <= 12; ++i) {
    const double x = xmax * i / 12.0;
    std::printf("%12.4f %12.2e %12.2e\n", x, fifo.delay_s.ccdf_at(x),
                lstf.delay_s.ccdf_at(x));
  }
  std::printf("\nPaper's Figure 3: FIFO mean 0.0780 s / 99%%ile 0.2142 s vs"
              " LSTF mean 0.0786 s / 99%%ile 0.1958 s\n(expect: nearly equal"
              " means, LSTF trims the tail).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_fig3_tail", argc, argv, run_with);
}
