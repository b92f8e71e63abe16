// Ablation (§5 open question): how much header information does
// universality need?
//
// Appendix B's omniscient initialization carries exact per-hop schedule
// times. This bench quantizes those times to coarser grains (fewer header
// bits of timing precision) and measures how replay quality degrades,
// against the LSTF black-box baseline that needs only o(p).
//
// Usage: bench_ablation_header_bits [--packets=N] [--seed=N] [--scale=F]
//                                   [--quick]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::flags& f) {
  using namespace ups;

  exp::scenario sc;
  sc.seed = f.number("seed", sc.seed);
  sc.packet_budget = f.budget(60'000);
  sc.record_hops = true;

  std::printf("Header-precision ablation on %s (%llu packets)\n\n",
              sc.label().c_str(),
              static_cast<unsigned long long>(sc.packet_budget));
  const auto orig = exp::run_original(sc);
  const double horizon_s =
      sim::to_seconds(orig.trace.packets.back().egress_time);

  stats::table t({"per-hop header precision", "~bits/hop", "Frac overdue",
                  "Frac overdue > T"});
  auto add_row = [&](const char* label, sim::time_ps quantum) {
    core::replay_options opt;
    opt.mode = core::replay_mode::omniscient;
    opt.threshold_T = orig.threshold_T;
    opt.keep_outcomes = false;
    opt.omniscient_quantum = quantum;
    const auto& topology = orig.topology;
    const auto res = core::replay_trace(
        orig.trace,
        [&topology](net::network& n) { topo::populate(topology, n); }, opt);
    const double levels =
        quantum == 0 ? 64.0
                     : std::log2(horizon_s * 1e12 /
                                 static_cast<double>(quantum));
    t.add_row({label, stats::table::fmt(levels, 1),
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T())});
    std::printf(".");
    std::fflush(stdout);
  };

  add_row("exact (Appendix B)", 0);
  add_row("1 ns", sim::kNanosecond);
  add_row("1 us", sim::kMicrosecond);
  add_row("12 us (= T)", 12 * sim::kMicrosecond);
  add_row("100 us", 100 * sim::kMicrosecond);
  add_row("1 ms", sim::kMillisecond);
  add_row("10 ms", 10 * sim::kMillisecond);

  // Black-box baseline for comparison: one value (o(p)) per packet total.
  {
    const auto res = exp::run_replay(orig, core::replay_mode::lstf);
    t.add_row({"LSTF black-box (o(p) only)", "-",
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T())});
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf(
      "\nExact per-hop times replay perfectly (Appendix B); the open\n"
      "question of §5 is how little precision suffices. Quantization up to\n"
      "the T-scale should stay near-perfect (slack absorbs sub-T skew),\n"
      "degrading once the grain exceeds typical queueing delays.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_ablation_header_bits", argc, argv,
                             ups::exp::bench_flags, run_with);
}
