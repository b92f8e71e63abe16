#include "core/registry.h"

#include <stdexcept>

#include "core/edf.h"
#include "core/lstf.h"
#include "core/lstf_pheap.h"
#include "core/omniscient.h"
#include "sched/drr.h"
#include "sched/fifo.h"
#include "sched/fifo_plus.h"
#include "sched/fq.h"
#include "sched/lifo.h"
#include "sched/pfabric.h"
#include "sched/random_order.h"
#include "sched/sjf.h"
#include "sched/static_priority.h"
#include "sched/virtual_clock.h"

namespace ups::core {

const char* to_string(sched_kind k) {
  switch (k) {
    case sched_kind::fifo: return "FIFO";
    case sched_kind::lifo: return "LIFO";
    case sched_kind::random: return "Random";
    case sched_kind::static_priority: return "Priority";
    case sched_kind::sjf: return "SJF";
    case sched_kind::sjf_pfabric: return "SJF(pFabric)";
    case sched_kind::srpt_pfabric: return "SRPT";
    case sched_kind::fq: return "FQ";
    case sched_kind::drr: return "DRR";
    case sched_kind::virtual_clock: return "VirtualClock";
    case sched_kind::fifo_plus: return "FIFO+";
    case sched_kind::fq_fifo_plus_mix: return "FQ/FIFO+";
    case sched_kind::lstf: return "LSTF";
    case sched_kind::lstf_preemptive: return "LSTF(preempt)";
    case sched_kind::lstf_pheap: return "LSTF(p-heap)";
    case sched_kind::edf: return "EDF";
    case sched_kind::omniscient: return "Omniscient";
  }
  return "?";
}

sched_kind sched_kind_from(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(sched_kind::omniscient); ++i) {
    const auto k = static_cast<sched_kind>(i);
    if (name == to_string(k)) return k;
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

namespace {

std::unique_ptr<net::scheduler> instantiate(sched_kind kind,
                                            const net::port_info& info,
                                            std::uint64_t seed,
                                            const net::network* net) {
  switch (kind) {
    case sched_kind::fifo:
      return std::make_unique<sched::fifo>();
    case sched_kind::lifo:
      return std::make_unique<sched::lifo>();
    case sched_kind::random:
      return std::make_unique<sched::random_order>(seed,
                                                   0x9000 + info.port_id);
    case sched_kind::static_priority:
      return std::make_unique<sched::static_priority>(true);
    case sched_kind::sjf:
      return std::make_unique<sched::sjf>(true);
    case sched_kind::sjf_pfabric:
      return std::make_unique<sched::pfabric>(sched::pfabric_mode::sjf);
    case sched_kind::srpt_pfabric:
      return std::make_unique<sched::pfabric>(sched::pfabric_mode::srpt);
    case sched_kind::fq:
      return std::make_unique<sched::fq>(info.rate);
    case sched_kind::drr:
      return std::make_unique<sched::drr>();
    case sched_kind::virtual_clock:
      // Default allocation: an equal share sized for ~10 active flows.
      return std::make_unique<sched::virtual_clock>(
          info.rate == sim::kInfiniteRate ? sim::kGbps : info.rate / 10);
    case sched_kind::fifo_plus:
      return std::make_unique<sched::fifo_plus>();
    case sched_kind::fq_fifo_plus_mix:
      // Half the routers run FQ, half FIFO+ (split by node id parity);
      // host NICs pace with FIFO so the mix applies to routers only.
      if (info.from_kind == net::node_kind::host) {
        return std::make_unique<sched::fifo>();
      }
      if (info.from % 2 == 0) {
        return std::make_unique<sched::fq>(info.rate);
      }
      return std::make_unique<sched::fifo_plus>();
    case sched_kind::lstf:
      return std::make_unique<lstf>(info.rate, false, true);
    case sched_kind::lstf_preemptive:
      return std::make_unique<lstf>(info.rate, true, true);
    case sched_kind::lstf_pheap:
      return std::make_unique<lstf_pheap>(info.rate);
    case sched_kind::edf:
      if (net == nullptr) {
        throw std::invalid_argument("EDF factory requires a network");
      }
      return std::make_unique<edf>(*net, info.rate);
    case sched_kind::omniscient:
      return std::make_unique<omniscient>();
  }
  throw std::logic_error("unhandled scheduler kind");
}

}  // namespace

net::scheduler_factory make_factory(sched_kind kind, std::uint64_t seed,
                                    const net::network* net) {
  return [kind, seed, net](const net::port_info& info) {
    return instantiate(kind, info, seed, net);
  };
}

}  // namespace ups::core
