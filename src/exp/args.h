// Minimal CLI flag parsing shared by bench and example binaries.
//
//   --packets=N       override the per-scenario packet budget
//   --seed=N          RNG seed
//   --scale=F         multiply default packet budgets by F
//   --quick           shrink budgets ~10x for smoke runs
//   --utilization=F   override the scenario's target utilization (0 < F < 1)
//   --workload=NAME   traffic source kind: open-loop, paced[:frac],
//                     closed-loop[:outstanding], closed-loop-tcp[:outstanding],
//                     incast[:degree] (see traffic::parse_workload)
//   --fault=SPEC      per-link fault process for the original run:
//                     bernoulli:p | ge:p_g,p_b,r | jam:period_us,duty[,speedup]
//                     (see net::fault_spec::parse); empty means lossless
//   --flow=SPEC       per-link flow control for the original run:
//                     credit:bytes[,rtt_us] | pause:high,low | none
//                     (see net::flow_spec::parse); empty means ungoverned
//
// Any other argument is an error: a typo such as --pakcets=1000 must not
// run the default budget. The dispatch backend and its worker fault knobs
// are flags of `tracec replay` alone (tools/tracec.cpp).
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ups::exp {

struct args {
  std::uint64_t packets = 0;  // 0: use the experiment default
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool quick = false;
  double utilization = 0.0;  // <= 0: use the experiment default
  std::string workload;      // empty: use the experiment default
  std::string fault;         // empty: lossless links
  std::string flow;          // empty: ungoverned links

  // Throws std::invalid_argument naming the argument when it is not one of
  // the flags above, or when a numeric value is empty, malformed, out of
  // range or has trailing characters, so --packets=12k is an error rather
  // than a 12-packet run.
  [[nodiscard]] static args parse(int argc, char** argv) {
    args a;
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      if (s.rfind("--packets=", 0) == 0) {
        a.packets = number<std::uint64_t>(s, 10);
      } else if (s.rfind("--seed=", 0) == 0) {
        a.seed = number<std::uint64_t>(s, 7);
      } else if (s.rfind("--scale=", 0) == 0) {
        a.scale = number<double>(s, 8);
      } else if (s.rfind("--utilization=", 0) == 0) {
        a.utilization = number<double>(s, 14);
      } else if (s.rfind("--workload=", 0) == 0) {
        a.workload = s.substr(11);
      } else if (s.rfind("--fault=", 0) == 0) {
        a.fault = s.substr(8);
      } else if (s.rfind("--flow=", 0) == 0) {
        a.flow = s.substr(7);
      } else if (s == "--quick") {
        a.quick = true;
      } else {
        throw std::invalid_argument("unknown argument " + s);
      }
    }
    return a;
  }

  // The value of `--flag=value`, where `prefix` is the length of `--flag=`;
  // the whole value must parse.
  template <typename T>
  [[nodiscard]] static T number(const std::string& s, std::size_t prefix) {
    T v{};
    const char* first = s.c_str() + prefix;
    const char* last = s.c_str() + s.size();
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || end != last) {
      throw std::invalid_argument("malformed number in " + s);
    }
    return v;
  }

  // Applies overrides to an experiment's default budget.
  [[nodiscard]] std::uint64_t budget(std::uint64_t def) const {
    if (packets != 0) return packets;
    double b = static_cast<double>(def) * scale;
    if (quick) b /= 10.0;
    return static_cast<std::uint64_t>(b < 1000 ? 1000 : b);
  }
};

}  // namespace ups::exp
