// Per-link credit-based flow control: the lossless half of the fault axis.
//
// Where the fault subsystem (net/fault.h) models links that *drop*, this
// models links that never drop but *stall*: every governed router->router
// link tracks how many bytes of the downstream router's buffer its packets
// occupy, and the upstream port may start a transmission only while that
// occupancy leaves room (Graphite's wormhole/credit scheme). Congestion
// then propagates as backpressure — a blocked head packet stalls the whole
// scheduler queue behind it (head-of-line blocking) — instead of as loss,
// which is exactly the regime where LSTF's waiting-only slack accounting
// (§2.1) meets delay imposed by a *downstream* queue.
//
// Two modes behind one occupancy counter:
//   credit:bytes[,rtt_us]  a transmission may start only while
//                          occupancy + size <= bytes; credit-return
//                          messages arrive rtt_us after the packet's last
//                          bit leaves the downstream router (default: the
//                          link's own propagation delay; at most one
//                          simulated second)
//   pause:high,low         PFC-style PAUSE/resume hysteresis: crossing
//                          `high` bytes of occupancy pauses the upstream
//                          transmitter; it resumes once the delayed credit
//                          returns bring occupancy back to `low` or less
//
// Flow control is fully deterministic — no RNG anywhere — so a given
// (scenario, topology, workload) stalls identically no matter which
// dispatch backend runs it, and lossless conservation
// (injected == delivered, dropped == 0) is gated byte-identically across
// the serial and process fabrics.
//
// Robustness is first-class: network arms a stall watchdog whenever a port
// blocks, classifies no-progress intervals (transient backpressure vs
// persistent stall vs routing-cycle deadlock), and surfaces a true credit
// deadlock as the typed flow_deadlock_error below instead of silently
// draining the event queue with packets still parked in blocked heads.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/time.h"

namespace ups::net {

enum class flow_kind : std::uint8_t {
  none = 0,
  credit,
  pause,
};

// Two blocked ports waiting on each other's router to drain, with no
// credit-return message left in flight: no future event can make progress,
// so the watchdog reports the wait-for cycle instead of hanging.
struct flow_deadlock_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Blocked ports made no progress for the watchdog's hard cap of intervals
// without forming a detectable cycle (leaked credits, a starved return
// path): still a wedged run, still a typed error.
struct flow_stall_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct flow_spec {
  flow_kind kind = flow_kind::none;
  std::int64_t credit_bytes = 0;   // credit: downstream occupancy budget
  sim::time_ps return_delay = -1;  // credit-return latency; <0: use the
                                   // link's own propagation delay
  std::int64_t pause_high = 0;     // pause: XOFF threshold (bytes)
  std::int64_t pause_low = 0;      // pause: XON threshold (bytes)

  [[nodiscard]] bool enabled() const noexcept {
    return kind != flow_kind::none;
  }

  // Compact tag for scenario labels, e.g. "credit:30000",
  // "credit:30000,5us", "pause:30000,15000". Empty for `none` so
  // flow-free labels stay byte-identical to pre-flow-control builds.
  [[nodiscard]] std::string label() const;

  // Parses "credit:bytes[,rtt_us]" | "pause:high,low" | "none" | "".
  // Budgets below one 1500-byte MTU could never admit a full-size packet
  // and a pause high <= low can never resume, so both are rejected here
  // with std::invalid_argument — nonsense fails at parse, not as a
  // mysterious deadlock mid-run. So is an rtt_us above one simulated
  // second, whose credit returns and watchdog checks would run toward the
  // end of simulated time.
  static flow_spec parse(const std::string& s);
};

// Occupancy ledger for one governed directed link, owned by the network and
// consulted by the upstream port: consume() when a transmission starts
// (the packet is committed to the downstream buffer), release() when the
// delayed credit-return lands after its last bit leaves the downstream
// router. Pure integer state — deterministic by construction.
class link_flow {
 public:
  link_flow() = default;
  link_flow(const flow_spec& spec, sim::time_ps link_prop_delay)
      : spec_(spec),
        return_delay_(spec.return_delay >= 0 ? spec.return_delay
                                             : link_prop_delay) {}

  [[nodiscard]] bool governed() const noexcept { return spec_.enabled(); }

  // Whether a fresh transmission of `bytes` may start now.
  [[nodiscard]] bool can_send(std::int64_t bytes) const noexcept {
    switch (spec_.kind) {
      case flow_kind::none:
        return true;
      case flow_kind::credit:
        return occupancy_ + bytes <= spec_.credit_bytes;
      case flow_kind::pause:
        return !paused_;
    }
    return true;
  }

  void consume(std::int64_t bytes) noexcept {
    occupancy_ += bytes;
    if (spec_.kind == flow_kind::pause && occupancy_ >= spec_.pause_high) {
      paused_ = true;
    }
  }

  // Credit return: returns true when this release un-paused the link
  // (pause hysteresis crossing low) — credit mode always reports true so
  // the caller re-kicks its blocked upstream port either way.
  bool release(std::int64_t bytes) noexcept {
    occupancy_ -= bytes;
    if (spec_.kind == flow_kind::pause) {
      if (paused_ && occupancy_ <= spec_.pause_low) {
        paused_ = false;
        return true;
      }
      return false;
    }
    return true;
  }

  [[nodiscard]] std::int64_t occupancy() const noexcept { return occupancy_; }
  [[nodiscard]] bool paused() const noexcept { return paused_; }
  [[nodiscard]] sim::time_ps return_delay() const noexcept {
    return return_delay_;
  }

 private:
  flow_spec spec_;
  sim::time_ps return_delay_ = 0;
  std::int64_t occupancy_ = 0;  // bytes committed to the downstream buffer
  bool paused_ = false;         // pause mode: XOFF asserted
};

}  // namespace ups::net
