// Micro-benchmarks (§5 "Real Implementation"): the paper argues LSTF
// execution at a router is no more complex than fine-grained priorities.
// This bench measures the simulator's per-packet-hop hot path — packet
// create/stamp + enqueue + dequeue + destroy for every queue discipline,
// and schedule+run for the event kernel — under a global allocation
// counting hook, and emits machine-readable BENCH_micro_queues.json so
// future PRs have a perf trajectory to compare against.
//
// Before-vs-after knobs, measured side by side in the same binary:
//   packet_hop/<sched>/pooled : packet_pool recycling (the hot path); at
//                               depth 0 every packet finds an idle port,
//                               which rank schedulers serve from
//                               keyed_queue's one-packet slot
//   packet_hop/<sched>/heap   : fresh new/delete per packet (pre-pool)
//   event_kernel/heap         : the production kernel: a binary min-heap
//                               of entries pointing at embedded events, the
//                               same-instant run list, and the callback
//                               slab
//
// The event-kernel lane sweeps pending-set depths 1e2..1e6 of port-shaped
// embedded events. Each op runs one port's completion, which defers the
// port's service decision, and then that decision, which files the port's
// next completion; every 4th op also preempts a port (cancels its
// completion and files it again), re-arms an owned timer and runs a
// fire-and-forget callback. Its events sit only `depth` ps ahead of the
// clock, so it measures a best case, not what a replay pays. Kernel speed
// itself is owned end to end by the benchmark's rf-disk workload
// (replay_pps, and replay.ns_per_hop and replay.peak_event_slots in traced
// runs); here the kernel lane only carries its zero-allocation gate, which
// pins the run list's and the slab's storage too.
//
// The process exits non-zero if any pooled rank-scheduler hop (depth 0
// included) or the heap kernel performs a steady-state heap allocation, or
// if the pooled LSTF hot path fails the >=2x packets/sec acceptance bar
// over the heap-packet baseline at depth 16 — so CI catches hot-path
// regressions, not just correctness.
//
// Usage: bench_micro_queues [--ops=N] [--depth=N] [--out=FILE]
//                           [--min-speedup=X]
// --min-speedup lowers the speedup gate (default 2.0): CI on shared
// runners passes a noise margin so unrelated PRs don't flake, while the
// local default enforces the full acceptance bar.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/lstf.h"
#include "core/lstf_pheap.h"
#include "exp/args.h"
#include "net/packet_pool.h"
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
#include "sim/rng.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Global allocation counting hook: every operator new in this binary bumps
// the counter, so a steady-state measurement window can assert "zero heap
// allocations per op" rather than guess from throughput numbers. Every
// delete form frees through the one noinline operator delete: inlined into
// callers, GCC pairs the visible std::free with the library's operator new
// declaration and emits a spurious -Wmismatched-new-delete.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) & ~(align - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace ups;

struct result_row {
  std::string name;
  std::size_t depth = 0;
  std::uint64_t ops = 0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
};

// Header fields every discipline keys on, pre-generated outside the timed
// loop so the measurement is the packet lifecycle and queue work, not the
// random number generator.
struct stamp_vals {
  std::uint64_t flow_id;
  sim::time_ps slack;
  std::int64_t priority;
  std::uint64_t flow_size;
  sim::time_ps fifo_plus_wait;
};

std::vector<stamp_vals> make_stamp_ring(std::size_t n) {
  sim::rng rng(7);
  std::vector<stamp_vals> ring(n);
  for (auto& s : ring) {
    s.flow_id = rng.next_below(64);
    s.slack = static_cast<sim::time_ps>(rng.next_below(1'000'000'000));
    s.priority = static_cast<std::int64_t>(rng.next_below(1'000'000));
    s.flow_size = 1'460 * (1 + rng.next_below(1'000));
    s.fifo_plus_wait = static_cast<sim::time_ps>(rng.next_below(1'000'000));
  }
  return ring;
}

// One packet-hop: create + stamp (header fields and the routed path, as the
// traffic sources do) + enqueue + dequeue + destroy, against a queue
// pre-filled to `depth`.
result_row bench_packet_hop(const std::string& name, net::scheduler& q,
                            std::size_t depth, std::uint64_t ops,
                            bool pooled) {
  net::packet_pool pool;
  static const std::vector<stamp_vals> ring = make_stamp_ring(1024);
  static const std::vector<net::node_id> route = {4, 9, 17, 3, 12};
  std::uint64_t id = 1;
  auto make = [&]() {
    net::packet_ptr p = pooled ? pool.make() : net::make_packet();
    const stamp_vals& s = ring[id & 1023];
    p->id = id++;
    p->flow_id = s.flow_id;
    p->size_bytes = 1500;
    p->slack = s.slack;
    p->priority = s.priority;
    p->flow_size_bytes = s.flow_size;
    p->remaining_flow_bytes = s.flow_size;
    p->fifo_plus_wait = s.fifo_plus_wait;
    // Route stamping: a pooled packet's path vector kept its capacity, a
    // fresh heap packet pays the vector's first allocation (the
    // pre-refactor per-packet cost).
    p->path = route;
    return p;
  };
  for (std::size_t i = 0; i < depth; ++i) q.enqueue(make(), 0);

  sim::time_ps now = 0;
  // Warmup: let the pool, the queue's backing storage, and every per-flow
  // table reach their steady-state footprint (scales with depth so deep
  // backlogs fully populate their freelists before measurement).
  for (std::uint64_t i = 0; i < ops / 10 + 4 * depth + 1024; ++i) {
    q.enqueue(make(), now);
    net::packet_ptr p = q.dequeue(now);
    now += 1000;
  }

  const std::uint64_t allocs_before = g_allocs.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    q.enqueue(make(), now);
    net::packet_ptr p = q.dequeue(now);
    now += 1000;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = g_allocs.load();

  while (auto p = q.dequeue(now)) {  // drain so the pool outlives its packets
  }

  result_row r;
  r.name = "packet_hop/" + name + (pooled ? "/pooled" : "/heap");
  r.depth = depth;
  r.ops = ops;
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.ns_per_op = ns / static_cast<double>(ops);
  r.ops_per_sec = 1e9 / r.ns_per_op;
  r.allocs_per_op = static_cast<double>(allocs_after - allocs_before) /
                    static_cast<double>(ops);
  return r;
}

// Reimplementation of the pre-refactor LSTF scheduler — virtual rank
// dispatch over a node-based std::map keyed queue — kept as the fixed
// "before" baseline the >=2x packets/sec acceptance bar measures against.
// Paired with the /heap packet knob it reproduces the seed's full
// per-packet-hop cost: one packet allocation plus one map node per enqueue
// plus a virtual call per rank computation.
class legacy_map_lstf : public net::scheduler {
 public:
  explicit legacy_map_lstf(sim::bits_per_sec rate) : rate_(rate) {}

  void enqueue(net::packet_ptr p, sim::time_ps now) override {
    const std::int64_t key = rank_of(*p, now);
    p->sched_key = key;
    bytes_ += p->size_bytes;
    items_.emplace(std::make_pair(key, next_uid_++), std::move(p));
  }
  net::packet_ptr dequeue(sim::time_ps /*now*/) override {
    if (items_.empty()) return nullptr;
    auto it = items_.begin();
    net::packet_ptr p = std::move(it->second);
    bytes_ -= p->size_bytes;
    items_.erase(it);
    return p;
  }
  [[nodiscard]] bool empty() const noexcept override {
    return items_.empty();
  }
  [[nodiscard]] std::size_t packets() const noexcept override {
    return items_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept override { return bytes_; }

 protected:
  [[nodiscard]] virtual std::int64_t rank_of(const net::packet& p,
                                             sim::time_ps now) const {
    return now + p.slack + sim::transmission_time(p.size_bytes, rate_);
  }

 private:
  sim::bits_per_sec rate_;
  std::map<std::pair<std::int64_t, std::uint64_t>, net::packet_ptr> items_;
  std::uint64_t next_uid_ = 0;
  std::size_t bytes_ = 0;
};

// One port's kernel events, embedded as net::port embeds them: the
// completion of a transmission, which defers the port's service decision,
// and that decision, which files the port's next completion `gap` ps ahead.
struct bench_port {
  bench_port(sim::simulator& kernel, sim::time_ps gap) : k(kernel), gap(gap) {}

  void complete() {
    if (!decision.pending()) k.defer_late(decision);
  }
  void decide() {
    if (!completion.pending()) k.schedule_in(gap, completion);
  }

  sim::simulator& k;
  sim::time_ps gap;
  sim::member_event<bench_port, &bench_port::complete> completion{*this};
  sim::member_event<bench_port, &bench_port::decide> decision{*this};
};

// A retransmit timer, embedded as a TCP flow embeds one. It never fires
// here: it is re-armed before it is due.
struct bench_timer final : sim::event {
  void fire() override {}
};

// Event-kernel throughput at a standing population of `depth` pending
// completions, one per port. Each op runs the earliest completion, which
// defers its port's decision, and then that decision, which files the
// port's next completion `depth` ps ahead. Every 4th op also preempts a
// port (cancels its completion and files it again while the stale entry is
// still queued), re-arms an owned timer far ahead the way TCP's
// retransmit clock does, and files a fire-and-forget callback at the
// current instant, which one more run_next runs; so compaction and the
// callback slab stay under the gate too.
result_row bench_events(std::size_t depth, std::uint64_t ops) {
  sim::simulator k;
  const auto gap = static_cast<sim::time_ps>(depth);
  std::deque<bench_port> ports;  // a deque never moves its elements
  for (std::size_t i = 0; i < depth; ++i) {
    k.schedule_at(1 + static_cast<sim::time_ps>(i),
                  ports.emplace_back(k, gap).completion);
  }
  bench_timer timer;

  auto step = [&](std::uint64_t i) {
    if (i % 4 == 0) {
      bench_port& victim = ports[(i + depth / 2) % depth];
      if (victim.completion.pending()) {
        k.cancel(victim.completion);
        k.schedule_in(gap + 1, victim.completion);
      }
      k.cancel(timer);
      k.schedule_in(4 * gap, timer);
      k.schedule_in(0, [] {});
      k.run_next();  // one more event this step: the callback's
    }
    k.run_next();  // the earliest completion, which defers its decision
    k.run_next();  // that decision, before any later completion
  };
  // Warmup scaled with depth: the heap's and the run list's arrays and the
  // slab must reach their high-water mark before the counted window opens
  // (stale entries linger until they surface or are compacted, so the
  // heap's high-water needs several passes).
  for (std::uint64_t i = 0; i < ops / 10 + 4 * depth + 1024; ++i) step(i);

  const std::uint64_t allocs_before = g_allocs.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) step(i);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = g_allocs.load();

  result_row r;
  r.name = "event_kernel/heap";
  r.depth = depth;
  r.ops = ops;
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.ns_per_op = ns / static_cast<double>(ops);
  r.ops_per_sec = 1e9 / r.ns_per_op;
  r.allocs_per_op = static_cast<double>(allocs_after - allocs_before) /
                    static_cast<double>(ops);
  return r;
}

void write_json(const std::vector<result_row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_queues\",\n  \"unit\": \"ns/op\",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"depth\": " << r.depth
        << ", \"ops\": " << r.ops << ", \"ns_per_op\": " << r.ns_per_op
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"allocs_per_op\": " << r.allocs_per_op << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 200'000;
  // Shallowest first. Depth 0 is an idle port: every packet finds the
  // queue empty and leaves it so, the shape of 63% of rf-disk's hops, which
  // keyed_queue serves from its one-packet slot. ~16 packets is the
  // realistic steady backlog at the paper's 70% utilization; 256/4096
  // model congestion and incast. Only pooled lanes run at depth 0.
  std::vector<std::size_t> depths = {0, 16, 256, 4096};
  // Event-kernel lane sweeps deeper: the heap kernel must stay
  // allocation-free at every pending-set depth.
  std::vector<std::size_t> kernel_depths = {100, 1'000, 10'000, 100'000,
                                            1'000'000};
  std::string out_path = "BENCH_micro_queues.json";
  double min_speedup = 2.0;
  // Numbers must parse in full: --ops=12k is an error, not a 12-op run.
  using ups::exp::args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--ops=", 0) == 0) {
        ops = args::number<std::uint64_t>(a, 6);
      } else if (a.rfind("--depth=", 0) == 0) {
        depths = {args::number<std::size_t>(a, 8)};
        kernel_depths = depths;
      } else if (a.rfind("--out=", 0) == 0) {
        out_path = a.substr(6);
      } else if (a.rfind("--min-speedup=", 0) == 0) {
        min_speedup = args::number<double>(a, 14);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        std::fprintf(stderr,
                     "usage: bench_micro_queues [--ops=N] [--depth=N] "
                     "[--out=FILE] [--min-speedup=X]\n");
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_micro_queues: %s\n", e.what());
    return 2;
  }
  if (ops == 0 || kernel_depths.front() == 0) {
    std::fprintf(stderr, "bench_micro_queues: --ops and --depth must be >0\n");
    return 2;
  }

  std::vector<result_row> rows;
  // The disciplines engineered for the zero-allocation guarantee: pooled
  // packets over freelist-recycled queue storage. pfabric joined the gate
  // when its per-flow starvation index was flattened onto slab + freelist
  // storage; drr followed with the same pattern (qnode slab + intrusive
  // active-flow ring, flow entries persisting across quiet periods).
  const char* zero_alloc_names[] = {
      "fifo", "lifo",    "priority", "sjf",           "fifo_plus",
      "lstf", "fq",      "random",   "virtual_clock", "pfabric",
      "drr",
  };

  for (const std::size_t depth : depths) {
    auto run_sched = [&](const std::string& name, auto make_queue) {
      for (const bool pooled : {true, false}) {
        if (!pooled && depth == 0) continue;
        auto q = make_queue();
        rows.push_back(bench_packet_hop(name, *q, depth, ops, pooled));
      }
    };

    run_sched("fifo", [] { return std::make_unique<sched::fifo>(); });
    run_sched("lifo", [] { return std::make_unique<sched::lifo>(); });
    run_sched("priority",
              [] { return std::make_unique<sched::static_priority>(); });
    run_sched("sjf", [] { return std::make_unique<sched::sjf>(); });
    run_sched("fifo_plus",
              [] { return std::make_unique<sched::fifo_plus>(); });
    run_sched("random", [] {
      return std::make_unique<sched::random_order>(sim::rng(3));
    });
    run_sched("fq", [] { return std::make_unique<sched::fq>(sim::kGbps); });
    run_sched("drr", [] { return std::make_unique<sched::drr>(); });
    run_sched("virtual_clock", [] {
      return std::make_unique<sched::virtual_clock>(sim::kGbps);
    });
    run_sched("pfabric", [] {
      return std::make_unique<sched::pfabric>(sched::pfabric_mode::srpt);
    });
    run_sched("lstf",
              [] { return std::make_unique<core::lstf>(0, sim::kGbps); });
    run_sched("lstf_pheap", [] {
      return std::make_unique<core::lstf_pheap>(0, sim::kGbps);
    });
    if (depth != 0) {
      // Pre-refactor LSTF baseline: heap packets, per-node-allocating map
      // queue, virtual rank dispatch.
      legacy_map_lstf q(sim::kGbps);
      rows.push_back(
          bench_packet_hop("lstf_legacy", q, depth, ops, /*pooled=*/false));
    }

  }

  // --- event-kernel lane: depths 1e2..1e6 ---------------------------------
  // Every event is scheduled `depth` ps ahead (bench_events), so the lane is
  // the kernel's best case; end-to-end kernel cost is rf-disk's replay_pps.
  for (const std::size_t depth : kernel_depths) {
    rows.push_back(bench_events(depth, ops));
  }

  write_json(rows, out_path);

  std::printf("%-38s %8s %10s %14s %12s\n", "name", "depth", "ns/op",
              "ops/sec", "allocs/op");
  for (const auto& r : rows) {
    std::printf("%-38s %8zu %10.1f %14.0f %12.4f\n", r.name.c_str(), r.depth,
                r.ns_per_op, r.ops_per_sec, r.allocs_per_op);
  }

  // --- acceptance gates ----------------------------------------------------
  auto find = [&](const std::string& name,
                  std::size_t depth) -> const result_row* {
    for (const auto& r : rows) {
      if (r.name == name && r.depth == depth) return &r;
    }
    return nullptr;
  };

  int failures = 0;
  for (const std::size_t depth : depths) {
    for (const char* n : zero_alloc_names) {
      const auto* r = find(std::string("packet_hop/") + n + "/pooled", depth);
      if (r == nullptr || r->allocs_per_op != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s at depth %zu performs %.4f steady-state "
                     "allocations per packet-hop (expected 0)\n",
                     n, depth, r ? r->allocs_per_op : -1.0);
        ++failures;
      }
    }
  }
  // Heap-kernel zero-alloc gate at every kernel depth: slab slots, the
  // heap array and the run list must all be at steady-state capacity once
  // warmed.
  for (const std::size_t depth : kernel_depths) {
    if (const auto* r = find("event_kernel/heap", depth);
        r == nullptr || r->allocs_per_op != 0.0) {
      std::fprintf(stderr,
                   "FAIL: heap event kernel at depth %zu allocates in "
                   "steady state (%.4f allocs/op)\n",
                   depth, r ? r->allocs_per_op : -1.0);
      ++failures;
    }
  }
  // Speedup bar at the realistic operating depth: the shallowest backlog.
  const std::size_t gate_depth =
      *std::find_if(depths.begin(), depths.end(),
                    [](std::size_t d) { return d != 0; });
  const auto* pooled_lstf = find("packet_hop/lstf/pooled", gate_depth);
  const auto* legacy_lstf = find("packet_hop/lstf_legacy/heap", gate_depth);
  if (pooled_lstf != nullptr && legacy_lstf != nullptr) {
    const double speedup = pooled_lstf->ops_per_sec / legacy_lstf->ops_per_sec;
    std::printf(
        "\nLSTF pooled vs pre-refactor baseline (depth %zu): %.2fx "
        "packets/sec\n",
        gate_depth, speedup);
    if (speedup < min_speedup) {
      std::fprintf(stderr, "FAIL: pooled LSTF speedup %.2fx < %.2fx bar\n",
                   speedup, min_speedup);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("all zero-allocation and speedup gates passed\n");
  }
  return failures == 0 ? 0 : 1;
}
