// Figure 2: mean FCT bucketed by flow size on Internet2 at 90% utilization,
// TCP flows with 5 MB router buffers: FIFO vs SRPT vs SJF vs LSTF with
// slack = flow_size x D.
//
// Usage: bench_fig2_fct [--packets=N] [--seed=N] [--scale=F] [--quick]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/fct_experiment.h"
#include "stats/table.h"

namespace {

int run_with(const ups::exp::flags& f) {
  using namespace ups;

  exp::fct_config cfg;
  cfg.seed = f.number("seed", cfg.seed);
  cfg.packet_budget = f.budget(60'000);

  std::printf("Figure 2: mean FCT by flow size (TCP, %s @%d%%, 5 MB "
              "buffers)\n\n",
              exp::to_string(cfg.topo),
              static_cast<int>(cfg.utilization * 100));

  std::vector<exp::fct_result> results;
  for (const auto v : {exp::fct_variant::fifo, exp::fct_variant::srpt,
                       exp::fct_variant::sjf, exp::fct_variant::lstf}) {
    results.push_back(exp::run_fct(v, cfg));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");

  stats::table t({"flow size <= (B)", "flows", "FIFO", "SRPT", "SJF",
                  "LSTF"});
  const auto& edges = results.front().bucket_edges;
  for (std::size_t b = 0; b < edges.size(); ++b) {
    if (results.front().bucket_counts[b] == 0) continue;
    std::vector<std::string> row{std::to_string(edges[b]),
                                 std::to_string(results.front()
                                                    .bucket_counts[b])};
    for (const auto& r : results) {
      row.push_back(stats::table::fmt(r.bucket_mean_fct_s[b], 4));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  std::printf("\nOverall mean FCT:\n");
  for (const auto& r : results) {
    std::printf("  %-5s: %.3f s  (%llu flows, %llu drops)\n",
                r.label.c_str(), r.overall_mean_fct_s,
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.drops));
  }
  std::printf("\nPaper's Figure 2 legend: FIFO 0.288 s, SRPT 0.208 s, "
              "SJF 0.194 s, LSTF 0.195 s\n(expect the same ordering: "
              "SJF ~ LSTF <= SRPT << FIFO).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_fig2_fct", argc, argv, ups::exp::bench_flags,
                             run_with);
}
