// Omniscient-initialization scheduler (Appendix B).
//
// The header carries an n-dimensional vector of per-hop target departure
// times o(p, α_i) from the original schedule; each router uses the entry for
// its own hop as the packet's priority. The paper proves this replays any
// viable schedule perfectly — the property tests exercise exactly that.
// It doubles as a "prescribed schedule executor" for the hand-built theory
// gadgets of Appendices C, F and G.
#pragma once

#include "sched/rank_scheduler.h"

namespace ups::core {

class omniscient final : public sched::rank_scheduler_base<omniscient> {
 public:
  [[nodiscard]] std::int64_t rank_of(const net::packet& p,
                                     sim::time_ps /*now*/) const noexcept {
    // On arrival at the port of router path[k], p.hop == k + 1.
    const std::size_t here = p.hop - 1;
    return here < p.hop_deadlines.size() ? p.hop_deadlines[here] : 0;
  }
};

}  // namespace ups::core
