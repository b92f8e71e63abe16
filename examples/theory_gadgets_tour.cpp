// Guided tour of the paper's appendix counterexamples: runs each gadget's
// prescribed schedule, replays it with the candidate UPSes, and narrates
// the outcome packet by packet.
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/args.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/gadgets.h"

namespace {

using namespace ups;

struct gadget_run {
  topo::topology topology;
  net::trace trace;
  std::map<std::uint64_t, std::string> name_of;
};

// A packet's injection at its source host: a kernel event that holds the
// packet until it runs. The kernel runs only events their owners embed.
struct injection final : sim::event {
  injection(net::network& n, net::packet_ptr pkt)
      : net(n), p(std::move(pkt)) {}
  void fire() override { net.send_from_host(std::move(p)); }
  net::network& net;
  net::packet_ptr p;
};

gadget_run run_original(const topo::gadget& g) {
  gadget_run out;
  out.topology = g.topo;
  sim::simulator sim;
  net::network net(sim);
  topo::populate(g.topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::omniscient, 1));
  net.build();
  net::trace_recorder recorder(net, true);
  std::deque<injection> injections;  // a deque never moves its elements
  std::uint64_t next_id = 1;
  for (const auto& gp : g.packets) {
    net::packet_ptr p = net::make_packet();
    p->id = next_id++;
    p->flow_id = p->id;
    p->size_bytes = gp.size_bytes;
    p->src_host = g.topo.host_id(gp.src_host);
    p->dst_host = g.topo.host_id(gp.dst_host);
    for (const auto r : gp.path) p->path.push_back(r);
    p->hop_deadlines = gp.hop_starts;
    out.name_of[p->id] = gp.name;
    sim.schedule_at(gp.inject_at, injections.emplace_back(net, std::move(p)));
  }
  sim.run();
  out.trace = recorder.take();
  return out;
}

void narrate(const char* title, const topo::gadget& g,
             core::replay_mode mode) {
  const auto run = run_original(g);
  core::replay_options opt;
  opt.mode = mode;
  opt.keep_outcomes = true;
  const auto& topology = run.topology;
  const auto res = core::replay_trace(
      run.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
  std::printf("%s — replayed with %s:\n", title, core::to_string(mode));
  for (const auto& o : res.outcomes) {
    std::printf("  %-3s o(p) = %4.1f  o'(p) = %4.1f  %s\n",
                run.name_of.at(o.id).c_str(),
                sim::to_micros(o.original_out),
                sim::to_micros(o.replay_out),
                o.lateness() > 0 ? "OVERDUE" : "on time");
  }
  std::printf("  => %llu of %llu packets overdue\n\n",
              static_cast<unsigned long long>(res.overdue),
              static_cast<unsigned long long>(res.total));
}

int run(const ups::exp::flags&) {
  std::printf("=== Appendix F (Figure 6): the priority cycle ===\n");
  std::printf("Simple priorities need priority(a)<(b)<(c)<(a): impossible.\n\n");
  narrate("Fig 6", topo::fig6_priority_cycle(),
          core::replay_mode::priority_output_time);
  narrate("Fig 6", topo::fig6_priority_cycle(), core::replay_mode::lstf);

  std::printf("=== Appendix G.3 (Figure 7): LSTF at 3 congestion points ===\n");
  std::printf("With three congestion points LSTF cannot know how to spend\n"
              "slack early; exactly one of {a, c2} must go overdue.\n\n");
  narrate("Fig 7", topo::fig7_lstf_failure(), core::replay_mode::lstf);
  narrate("Fig 7", topo::fig7_lstf_failure(), core::replay_mode::omniscient);

  std::printf("=== Appendix C (Figure 5): no UPS exists ===\n");
  std::printf("Packets a and x have identical (i, o, path) in both cases,\n"
              "but case 1 needs a first and case 2 needs x first: any\n"
              "deterministic black-box initialization fails one of them.\n\n");
  narrate("Fig 5 case 1", topo::fig5_case(1), core::replay_mode::lstf);
  narrate("Fig 5 case 2", topo::fig5_case(2), core::replay_mode::lstf);
  narrate("Fig 5 case 1 (omniscient is not black-box)", topo::fig5_case(1),
          core::replay_mode::omniscient);
  return 0;
}

}  // namespace

// Reads no flags: any argument exits 1 naming it, as a bench does.
int main(int argc, char** argv) {
  return ups::exp::run_main("example_theory_gadgets_tour", argc, argv, {},
                            run);
}
