// The numeric parameters of a "<model>:<p1>,<p2>,..." spec, shared by
// net::fault_spec::parse and net::flow_spec::parse, and their conversion to
// integers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace ups::net {

// Parses `body` as between `min_n` and `max_n` comma-separated finite
// numbers. An empty, malformed or non-finite token, or a wrong count, throws
// std::invalid_argument whose message starts "<domain>: ". strtod accepts
// "nan" and "inf", which no range check rejects and no conversion to an
// integer survives, so they are bad parameters here.
[[nodiscard]] inline std::vector<double> parse_spec_params(
    const std::string& body, std::size_t min_n, std::size_t max_n,
    const char* domain, const char* what) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t comma = body.find(',', pos);
    const std::string tok =
        body.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
      throw std::invalid_argument(std::string(domain) + ": bad " + what +
                                  " parameter '" + tok + "'");
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.size() < min_n || out.size() > max_n) {
    throw std::invalid_argument(std::string(domain) + ": " + what +
                                " expects between " + std::to_string(min_n) +
                                " and " + std::to_string(max_n) +
                                " parameters");
  }
  return out;
}

// `v` truncated to an integer, as a cast truncates it. Every integer
// parameter converts here: a value outside int64's range, whose cast would
// be undefined, throws std::invalid_argument "<domain>: <what> out of
// range".
[[nodiscard]] inline std::int64_t spec_int64(double v, const char* domain,
                                             const char* what) {
  constexpr double kTwo63 = 9223372036854775808.0;  // exact in a double
  if (!(v >= -kTwo63 && v < kTwo63)) {
    throw std::invalid_argument(std::string(domain) + ": " + what +
                                " out of range");
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace ups::net
