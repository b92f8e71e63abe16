// Minimal CLI flag parsing shared by bench and example binaries.
//
//   --packets=N       override the per-scenario packet budget
//   --seed=N          RNG seed
//   --scale=F         multiply default packet budgets by F
//   --quick           shrink budgets ~10x for smoke runs
//   --utilization=F   override the scenario's target utilization (0 < F <= 1)
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
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ups::exp {

struct args {
  std::uint64_t packets = 0;  // 0: use the experiment default
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool quick = false;
  double utilization = 0.0;  // 0: use the experiment default
  std::string workload;      // empty: use the experiment default
  std::string fault;         // empty: lossless links
  std::string flow;          // empty: ungoverned links

  // Throws std::invalid_argument naming the argument when it is not one of
  // the flags above, or when a numeric value is empty, malformed, out of
  // range or has trailing characters, so --packets=12k is an error rather
  // than a 12-packet run, and --utilization=-0.5 an error rather than a run
  // at the default.
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
        a.utilization = utilization_value(s, 14);
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
  // the whole value must parse, and a floating-point one must be finite
  // (from_chars accepts "nan" and "inf").
  template <typename T>
  [[nodiscard]] static T number(const std::string& s, std::size_t prefix) {
    T v{};
    const char* first = s.c_str() + prefix;
    const char* last = s.c_str() + s.size();
    const auto [end, ec] = std::from_chars(first, last, v);
    bool finite = true;
    if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(v);
    if (ec != std::errc{} || end != last || !finite) {
      throw std::invalid_argument("malformed number in " + s);
    }
    return v;
  }

  // The value of a utilization flag `--flag=value`: a number in (0, 1].
  [[nodiscard]] static double utilization_value(const std::string& s,
                                                std::size_t prefix) {
    const double u = number<double>(s, prefix);
    if (!(u > 0.0 && u <= 1.0)) {
      throw std::invalid_argument("utilization outside (0, 1] in " + s);
    }
    return u;
  }

  // Applies overrides to an experiment's default budget.
  [[nodiscard]] std::uint64_t budget(std::uint64_t def) const {
    if (packets != 0) return packets;
    double b = static_cast<double>(def) * scale;
    if (quick) b /= 10.0;
    return static_cast<std::uint64_t>(b < 1000 ? 1000 : b);
  }
};

// The main of a bench or example binary: runs body(args::parse(argc,
// argv)) and returns its status. A bad flag, or any other std::exception
// the run throws (an unknown --workload name, a bad knob), prints
// "<name>: <message>" to stderr and exits 1, as tracec does, instead of
// ending in std::terminate.
template <typename Body>
int run_main(const char* name, int argc, char** argv, Body body) {
  try {
    return body(args::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 1;
  }
}

}  // namespace ups::exp
