// The one command-line flag parser. Every bench, example and tracec
// subcommand hands it the list of flags it reads, and any other argument is
// an error: a typo such as --pakcets=1000, or a flag only another binary
// reads, must not run the default setting. A flag means the same wherever
// it is read:
//
//   --packets=N       override the per-scenario packet budget
//   --seed=N          RNG seed
//   --scale=F         multiply default packet budgets by F
//   --quick           shrink budgets ~10x for smoke runs
//   --utilization=F   override the scenario's target utilization (0 < F <= 1)
//   --workload=NAME   traffic source kind (see traffic::parse_workload)
//   --fault=SPEC      per-link fault process for the original run (see
//                     net::fault_spec::parse); empty means lossless
//   --flow=SPEC       per-link flow control for the original run (see
//                     net::flow_spec::parse); empty means ungoverned
//
// and tracec's own (tools/tracec.cpp): --topo, --sched, --format, --hops,
// --records, --mode, --dispatch and --worker-timeout-ms. Values are checked
// when argv is read, before anything runs: a number must parse whole
// (--packets=12k is an error, not a 12-packet run) and a floating-point one
// must be finite.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ups::exp {

// The flags one binary reads: "name" admits --name=VALUE, or the bare
// --name for the switches quick and hops.
using flag_list = std::span<const std::string_view>;

// The seven benches that read only a budget and a seed.
inline constexpr std::string_view bench_flags[] = {"packets", "scale",
                                                   "quick", "seed"};
inline constexpr std::string_view fairness_flags[] = {"seed", "quick"};
// bench_ablation_utilization: table1_flags less the utilization it sweeps.
inline constexpr std::string_view sweep_flags[] = {
    "packets", "scale", "quick", "seed", "workload", "fault", "flow"};
inline constexpr std::string_view table1_flags[] = {
    "packets",     "scale",    "quick", "seed",
    "utilization", "workload", "fault", "flow"};
inline constexpr std::string_view tracec_gen_flags[] = {
    "topo",   "utilization", "sched",    "seed",  "packets",
    "format", "hops",        "workload", "fault", "flow"};
inline constexpr std::string_view tracec_convert_flags[] = {"format"};
inline constexpr std::string_view tracec_inspect_flags[] = {"records"};
inline constexpr std::string_view tracec_replay_flags[] = {
    "topo", "mode", "fault", "flow", "dispatch", "worker-timeout-ms"};

// An argument that is not one of the binary's flags. tracec exits 2 on it
// and 1 on every other error; a bench or example exits 1 on both.
struct unknown_flag : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class flags {
 public:
  // Reads argv[first], ..., argv[argc - 1] against `known`. Throws
  // unknown_flag naming the first argument that is not one of them, and
  // otherwise std::invalid_argument naming a numeric value that is empty,
  // malformed, out of range or has trailing characters, or a utilization
  // outside (0, 1].
  flags(int argc, char* const* argv, int first, flag_list known) {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::size_t eq = arg.find('=');
      const bool valued = eq != std::string_view::npos;
      const std::string_view name =
          arg.starts_with("--") ? arg.substr(2, valued ? eq - 2 : eq) : "";
      const bool is_switch = name == "quick" || name == "hops";
      if (std::find(known.begin(), known.end(), name) == known.end() ||
          valued == is_switch) {
        throw unknown_flag("unknown flag '" + std::string(arg) + "'");
      }
      given_.emplace_back(name, valued ? arg.substr(eq + 1) : "");
    }
    for (const auto& [name, value] : given_) {
      if (name == "packets" || name == "seed" || name == "records" ||
          name == "worker-timeout-ms") {
        (void)parse<std::uint64_t>(name, value);
      } else if (name == "scale") {
        (void)parse<double>(name, value);
      } else if (name == "utilization") {
        if (const double u = parse<double>(name, value); !(u > 0 && u <= 1)) {
          throw std::invalid_argument(
              "utilization outside (0, 1] in --utilization=" + value);
        }
      }
    }
  }

  // Whether --name or --name=... was given.
  [[nodiscard]] bool has(std::string_view name) const {
    return find(name) != nullptr;
  }

  // The value of --name=..., or `def`.
  [[nodiscard]] std::string text(std::string_view name,
                                 std::string_view def) const {
    const std::string* v = find(name);
    return v != nullptr ? *v : std::string(def);
  }

  // The value of --name=... as a T, or `def`; see parse.
  template <typename T>
  [[nodiscard]] T number(std::string_view name, T def) const {
    const std::string* v = find(name);
    return v != nullptr ? parse<T>(name, *v) : def;
  }

  // An experiment's default budget `def` under --packets, --scale and
  // --quick: --packets wins unless 0, --quick divides by 10, and no budget
  // is below 1,000 packets. Throws std::invalid_argument naming --scale
  // when the scaled budget is 2^64 or more, which no uint64 holds.
  [[nodiscard]] std::uint64_t budget(std::uint64_t def) const {
    const auto packets = number<std::uint64_t>("packets", 0);
    if (packets != 0) return packets;
    double b = static_cast<double>(def) * number("scale", 1.0);
    if (has("quick")) b /= 10.0;
    if (!(b < 18446744073709551616.0)) {
      throw std::invalid_argument("packet budget out of range in --scale=" +
                                  text("scale", ""));
    }
    return static_cast<std::uint64_t>(b < 1000 ? 1000 : b);
  }

 private:
  // The value of --name as a T. Throws std::invalid_argument naming the
  // flag unless the whole value parses (and, for a floating-point T, is
  // finite: from_chars accepts "nan" and "inf").
  template <typename T>
  [[nodiscard]] static T parse(std::string_view name, const std::string& v) {
    T n{};
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, n);
    bool finite = true;
    if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(n);
    if (ec != std::errc{} || end != last || !finite) {
      throw std::invalid_argument("malformed number in --" +
                                  std::string(name) + "=" + v);
    }
    return n;
  }

  // The value of the last --name=... (or "" for --name), or null.
  [[nodiscard]] const std::string* find(std::string_view name) const {
    for (auto it = given_.rbegin(); it != given_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> given_;  // (name, value)
};

// The main of a bench or example: runs body(flags(argc, argv, 1, known)) and
// returns its status. A bad flag, or any other std::exception the run
// throws (an unknown --workload name, a bad knob), prints "<name>:
// <message>" to stderr and exits 1, as tracec does, instead of ending in
// std::terminate.
template <typename Body>
int run_main(const char* name, int argc, char** argv, flag_list known,
             Body body) {
  try {
    return body(flags(argc, argv, 1, known));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 1;
  }
}

}  // namespace ups::exp
