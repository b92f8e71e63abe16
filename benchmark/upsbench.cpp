// upsbench — one run of the repository's benchmark of record.
//
//   upsbench --workload=W [--seed=S] [--seconds=T] [--traced] [--smoke]
//            [--work-dir=DIR]
//
// A run first builds every network the workload will use, without traffic,
// a few times over (the set-up passes behind setup_s). It then repeats the
// whole workload — originals, trace writes, replays — until --seconds have
// passed and prints one JSON line: medians over the repetitions, the jobs
// attempted and failed, and FNV-1a digests of the recorded originals and
// of the replay outcomes. run.py checks the digests and turns the line into
// the benchmark's result format.
//
// Everything is timed from outside the library's public calls. With
// --traced, every other repetition runs with spans around those calls (a
// cursor wrapper and per-call clocks) and the run reports a per-layer
// breakdown plus the spans' own overhead against the plain repetitions.
// --smoke shrinks every workload to a correctness check of a few seconds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "topo/topology.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace {

using namespace ups;
using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- workloads ---------------------------------------------------------------

// How a workload's jobs run: a serial in-memory loop, a record -> v3 file ->
// replay-from-disk pipeline, or the multi-process dispatch fabric.
enum class path_kind : std::uint8_t { serial, disk, dispatch };

struct replay_spec {
  core::replay_mode mode = core::replay_mode::lstf;
  bool live = false;  // replay under live flow control (workload::live_flow)
};

struct workload {
  path_kind path = path_kind::serial;
  std::vector<exp::scenario> originals;
  std::vector<replay_spec> replays;  // every original replays each of these
  net::flow_spec live_flow;
};

exp::scenario make_scenario(exp::topo_kind topo, double util,
                            std::uint64_t seed, std::uint64_t budget,
                            const char* source = nullptr) {
  exp::scenario sc;
  sc.topo = topo;
  sc.utilization = util;
  sc.sched = core::sched_kind::random;
  sc.seed = seed;
  sc.packet_budget = budget;
  if (source != nullptr) {
    sc.workload_kind = traffic::parse_workload(source, sc.workload_spec);
  }
  return sc;
}

// Each workload stresses a different layer; README.md gives the reasons.
// Smoke divides every packet budget by 50 and gives sweep-short one seed per
// cell instead of two.
workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  using core::replay_mode;
  using exp::topo_kind;
  const std::uint64_t scale = smoke ? 50 : 1;
  workload w;
  if (name == "sweep-short") {
    // Table 1 in miniature: many short runs, so fixed set-up and the
    // dispatch fabric dominate.
    struct cell {
      topo_kind topo;
      double util;
      const char* source;
      const char* fault;
    };
    const cell cells[] = {
        {topo_kind::i2_default, 0.5, nullptr, nullptr},
        {topo_kind::i2_default, 0.7, nullptr, nullptr},
        {topo_kind::i2_default, 0.9, nullptr, nullptr},
        {topo_kind::i2_1g_1g, 0.7, nullptr, nullptr},
        {topo_kind::fattree, 0.7, nullptr, nullptr},
        {topo_kind::fattree, 0.7, "incast", nullptr},
        {topo_kind::rocketfuel, 0.7, "mixed:8:16:0.25", nullptr},
        {topo_kind::rocketfuel, 0.7, "mixed:16:16:0.25", nullptr},
        {topo_kind::rocketfuel, 0.7, "mixed:32:16:0.25", nullptr},
        {topo_kind::i2_default, 0.7, "closed-loop", nullptr},
        {topo_kind::i2_default, 0.7, "paced", nullptr},
        {topo_kind::i2_default, 0.7, nullptr, "bernoulli:0.01"},
    };
    w.path = path_kind::dispatch;
    for (const cell& c : cells) {
      const std::uint64_t reps = smoke ? 1 : 2;
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        auto sc = make_scenario(c.topo, c.util, reps * (seed - 1) + rep + 1,
                                6'000 / scale, c.source);
        if (c.fault != nullptr) sc.fault = net::fault_spec::parse(c.fault);
        w.originals.push_back(sc);
      }
    }
    w.replays = {{replay_mode::lstf},
                 {replay_mode::lstf_preemptive},
                 {replay_mode::edf},
                 {replay_mode::priority_output_time}};
  } else if (name == "i2-deep") {
    // Deep queues, no decode: the event kernel, schedulers and forwarding
    // do the work, on a working set larger than the CPU caches.
    auto sc = make_scenario(topo_kind::i2_default, 0.7, seed, 100'000 / scale);
    sc.record_hops = true;  // omniscient replay needs per-hop times
    w.originals.push_back(sc);
    w.replays = {{replay_mode::lstf},
                 {replay_mode::lstf_preemptive},
                 {replay_mode::edf},
                 {replay_mode::priority_output_time},
                 {replay_mode::omniscient}};
  } else if (name == "rf-disk") {
    // The only workload that encodes and decodes trace files.
    w.path = path_kind::disk;
    w.originals.push_back(make_scenario(topo_kind::rocketfuel, 0.7, seed,
                                        200'000 / scale, "mixed:16:16:0.25"));
    w.replays = {{replay_mode::lstf}, {replay_mode::edf}};
  } else if (name == "dc-credit") {
    // The only workload where the flow-control hooks run: recorded stalls
    // re-enacted, then the same replays under live credit governance.
    auto sc = make_scenario(topo_kind::fattree, 0.7, seed, 100'000 / scale,
                            "incast:16");
    sc.flow = net::flow_spec::parse("credit:15000");
    w.live_flow = sc.flow;
    w.originals.push_back(sc);
    w.replays = {{replay_mode::lstf},
                 {replay_mode::edf},
                 {replay_mode::lstf, true},
                 {replay_mode::edf, true}};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (sweep-short|i2-deep|rf-disk|dc-credit)");
  }
  return w;
}

// The scheduler core::replay_trace installs for each mode.
core::sched_kind replay_scheduler(core::replay_mode m) {
  switch (m) {
    case core::replay_mode::lstf: return core::sched_kind::lstf;
    case core::replay_mode::lstf_preemptive:
      return core::sched_kind::lstf_preemptive;
    case core::replay_mode::lstf_pheap: return core::sched_kind::lstf_pheap;
    case core::replay_mode::edf: return core::sched_kind::edf;
    case core::replay_mode::priority_output_time:
      return core::sched_kind::static_priority;
    case core::replay_mode::omniscient: return core::sched_kind::omniscient;
  }
  throw std::logic_error("unhandled replay mode");
}

// Layer-metric key of a replay: replay.ns_per_pkt.<key>.
std::string mode_key(const replay_spec& rs) {
  std::string k;
  switch (rs.mode) {
    case core::replay_mode::lstf: k = "lstf"; break;
    case core::replay_mode::lstf_preemptive: k = "lstf_preempt"; break;
    case core::replay_mode::lstf_pheap: k = "lstf_pheap"; break;
    case core::replay_mode::edf: k = "edf"; break;
    case core::replay_mode::priority_output_time: k = "prio_o"; break;
    case core::replay_mode::omniscient: k = "omniscient"; break;
  }
  return rs.live ? k + "_live" : k;
}

const char* const kModeKeys[] = {"lstf",       "lstf_preempt", "edf",
                                  "prio_o",     "omniscient",   "lstf_live",
                                  "edf_live"};

net::flow_spec replay_flow(const workload& w, const replay_spec& rs) {
  return rs.live ? w.live_flow : net::flow_spec{};
}

// --- set-up pass ---------------------------------------------------------------

struct setup_times {
  double topo_s = 0, build_s = 0, calibrate_s = 0;
  [[nodiscard]] double total() const { return topo_s + build_s + calibrate_s; }
};

// Builds every network the workload builds — one per original (plus its
// workload calibration) and one per replay — with no traffic.
setup_times setup_pass(const workload& w) {
  setup_times st;
  for (const auto& sc : w.originals) {
    auto t0 = clock_type::now();
    const topo::topology topology = exp::make_topology(sc.topo);
    auto t1 = clock_type::now();
    st.topo_s += seconds_between(t0, t1);
    {
      sim::simulator sim;
      net::network net(sim);
      topo::populate(topology, net);
      net.set_buffer_bytes(0);
      net.set_scheduler_factory(core::make_factory(sc.sched, sc.seed, &net));
      net.set_fault(sc.fault, sc.seed);
      net.set_flow(sc.flow);
      net.build();
      const auto t2 = clock_type::now();
      st.build_s += seconds_between(t1, t2);
      traffic::workload_config cfg;
      cfg.utilization = sc.utilization;
      cfg.seed = sc.seed;
      cfg.packet_budget = sc.packet_budget;
      if (!(traffic::calibrate_per_host_rate(net, topology, cfg) > 0)) {
        throw std::runtime_error("calibration produced no offered rate");
      }
      t1 = clock_type::now();
      st.calibrate_s += seconds_between(t2, t1);
    }
    for (const auto& rs : w.replays) {
      sim::simulator sim;
      net::network net(sim);
      topo::populate(topology, net);
      net.set_buffer_bytes(0);
      net.set_flow(replay_flow(w, rs));
      net.set_preemption(rs.mode == core::replay_mode::lstf_preemptive);
      net.set_scheduler_factory(
          core::make_factory(replay_scheduler(rs.mode), 1, &net));
      net.build();
    }
    st.build_s += exp::wall_seconds_since(t1);
  }
  return st;
}

// --- digests -------------------------------------------------------------------

struct fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void add(const T& v) {
    static_assert(std::is_arithmetic_v<T>);
    bytes(&v, sizeof v);
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
};

// `tr` is null where the trace never reaches this process (dispatch jobs
// record inside the workers); the digest then covers the counts only.
void hash_original(fnv1a& h, const exp::scenario& sc, std::uint64_t packets,
                   sim::time_ps threshold_T, const net::trace* tr) {
  h.add(sc.label());
  h.add(sc.seed);
  h.add(packets);
  h.add(threshold_T);
  if (tr == nullptr) return;
  for (const auto& r : tr->packets) {
    h.add(r.id);
    h.add(r.ingress_time);
    h.add(r.egress_time);
    h.add(r.path.size());
    for (const auto n : r.path) h.add(n);
  }
}

void hash_replay(fnv1a& h, const exp::scenario& sc, const replay_spec& rs,
                 const core::replay_result& r) {
  h.add(sc.label());
  h.add(sc.seed);
  h.add(mode_key(rs));
  h.add(r.total);
  h.add(r.overdue);
  h.add(r.overdue_beyond_T);
  h.add(r.dropped);
}

// --- spans ---------------------------------------------------------------------

// Cursor wrapper for traced replays: times every pull (the decode layer)
// and marks the first one, which ends the replay's set-up.
class timed_cursor final : public net::trace_cursor {
 public:
  explicit timed_cursor(net::trace_cursor& inner) : inner_(inner) {}

  [[nodiscard]] const net::packet_record* next() override {
    const auto t0 = start_pull();
    const net::packet_record* r = inner_.next();
    end_pull(t0, r != nullptr ? 1 : 0);
    if (r != nullptr) hops += r->path.size();
    return r;
  }
  std::size_t next_run(std::vector<const net::packet_record*>& out) override {
    const auto t0 = start_pull();
    const std::size_t n = inner_.next_run(out);
    end_pull(t0, n);
    for (std::size_t i = out.size() - n; i < out.size(); ++i) {
      hops += out[i]->path.size();
    }
    return n;
  }
  [[nodiscard]] std::size_t size_hint() const noexcept override {
    return inner_.size_hint();
  }

  clock_type::time_point first_pull;
  double decode_s = 0;
  std::uint64_t pulls = 0, records = 0, hops = 0;

 private:
  clock_type::time_point start_pull() {
    const auto t = clock_type::now();
    if (pulls == 0) first_pull = t;
    return t;
  }
  void end_pull(clock_type::time_point t0, std::size_t n) {
    decode_s += exp::wall_seconds_since(t0);
    if (n > 0) ++pulls;  // the final, empty pull is not a batch
    records += n;
  }

  net::trace_cursor& inner_;
};

// Layer counters of one traced repetition.
struct layer_acc {
  double spans_s = 0;  // Σ timed spans inside the repetition's main wall
  double record_s = 0;
  std::uint64_t recorded = 0, stalled = 0;
  std::uint64_t record_peak_pool = 0, record_peak_slots = 0;
  double replay_s = 0, replay_setup_s = 0, replay_decode_s = 0;
  std::uint64_t replay_records = 0, replay_hops = 0, replay_pulls = 0;
  std::uint64_t replay_peak_pool = 0, replay_peak_slots = 0;
  std::map<std::string, std::pair<double, std::uint64_t>> mode_rest;
  double encode_s = 0, drain_s = 0;
  std::uint64_t encoded = 0, trace_bytes = 0, drained = 0;
};

// One traced replay: span from entry (cursor construction included) to the
// result, split into set-up (entry -> first pull), decode (time inside the
// cursor) and the rest (event kernel, schedulers, forwarding, accounting).
template <class MakeCursor>
core::replay_result traced_replay(const MakeCursor& make_cursor,
                                  const topo::topology& topology,
                                  const core::replay_options& opt,
                                  const std::string& key, layer_acc& acc) {
  const auto t0 = clock_type::now();
  const std::unique_ptr<net::trace_cursor> inner = make_cursor();
  timed_cursor cur(*inner);
  auto res = core::replay_trace(
      cur, [&topology](net::network& n) { topo::populate(topology, n); }, opt);
  const double total = exp::wall_seconds_since(t0);
  const double setup =
      cur.pulls > 0 ? seconds_between(t0, cur.first_pull) : total;
  acc.spans_s += total;
  acc.replay_s += total;
  acc.replay_setup_s += setup;
  acc.replay_decode_s += cur.decode_s;
  acc.replay_records += cur.records;
  acc.replay_hops += cur.hops;
  acc.replay_pulls += cur.pulls;
  acc.replay_peak_pool = std::max(acc.replay_peak_pool, res.peak_pool_packets);
  acc.replay_peak_slots = std::max(acc.replay_peak_slots, res.peak_event_slots);
  auto& m = acc.mode_rest[key];
  m.first += std::max(0.0, total - setup - cur.decode_s);
  m.second += cur.records;
  return res;
}

// --- one repetition -------------------------------------------------------------

struct sample {
  double wall = 0;  // main wall: the work an untraced repetition does
  double record_s = 0, replay_s = 0;
  std::uint64_t recorded = 0, replayed = 0, jobs = 0, failed = 0;
  fnv1a original, replay;
  std::map<std::string, double> layers;  // traced repetitions only
};

// Checks one replay's outcome against its original: conservation, no drop
// that the original did not record, and Appendix B's perfect omniscient
// replay of a loss-free schedule.
bool replay_ok(const replay_spec& rs, const core::replay_result& r,
               std::uint64_t recorded, bool original_lossy) {
  if (r.total + r.dropped != recorded) return false;
  if (!original_lossy && r.dropped != 0) return false;
  if (rs.mode == core::replay_mode::omniscient && !original_lossy &&
      r.overdue != 0) {
    return false;
  }
  return true;
}

bool has_drops(const net::trace& tr) {
  return std::any_of(tr.packets.begin(), tr.packets.end(),
                     [](const net::packet_record& r) { return r.dropped(); });
}

struct run_context {
  std::string trace_path;  // rf-disk's v3 file
  std::size_t workers = 2;
};

// Serial and disk workloads, and the traced side pass of the dispatch one.
void run_local(const workload& w, const run_context& ctx, layer_acc* acc,
               sample& s) {
  for (const auto& sc : w.originals) {
    auto t0 = clock_type::now();
    exp::original_run orig = exp::run_original(sc);
    const double rec = exp::wall_seconds_since(t0);
    const std::uint64_t n = orig.trace.packets.size();
    s.record_s += rec;
    s.recorded += n;
    ++s.jobs;
    const bool lossy = has_drops(orig.trace);
    hash_original(s.original, sc, n, orig.threshold_T,
                  w.path == path_kind::dispatch ? nullptr : &orig.trace);
    if (acc != nullptr) {
      acc->spans_s += rec;
      acc->record_s += rec;
      acc->recorded += n;
      acc->stalled += static_cast<std::uint64_t>(
          std::count_if(orig.trace.packets.begin(), orig.trace.packets.end(),
                        [](const net::packet_record& r) { return r.stalled(); }));
      acc->record_peak_pool =
          std::max(acc->record_peak_pool, orig.peak_pool_packets);
      acc->record_peak_slots =
          std::max(acc->record_peak_slots, orig.peak_event_slots);
    }
    if (w.path == path_kind::disk) {
      t0 = clock_type::now();
      net::save_trace_v3(ctx.trace_path, orig.trace);
      const double enc = exp::wall_seconds_since(t0);
      orig.trace = net::trace{};  // replay streams from disk, not memory
      if (acc != nullptr) {
        acc->spans_s += enc;
        acc->encode_s += enc;
        acc->encoded += n;
        acc->trace_bytes += std::filesystem::file_size(ctx.trace_path);
      }
    }
    for (const auto& rs : w.replays) {
      core::replay_result res;
      const auto tr = clock_type::now();
      if (acc != nullptr) {
        core::replay_options opt;
        opt.mode = rs.mode;
        opt.threshold_T = orig.threshold_T;
        opt.keep_outcomes = false;
        opt.flow = replay_flow(w, rs);
        if (w.path == path_kind::disk) {
          res = traced_replay(
              [&] { return net::open_trace_cursor(ctx.trace_path); },
              orig.topology, opt, mode_key(rs), *acc);
        } else {
          res = traced_replay(
              [&] {
                return std::make_unique<net::trace_ingress_cursor>(orig.trace);
              },
              orig.topology, opt, mode_key(rs), *acc);
        }
      } else if (w.path == path_kind::disk) {
        res = exp::run_replay_file(ctx.trace_path, orig.topology,
                                   orig.threshold_T, rs.mode, false,
                                   core::injection_mode::streaming,
                                   net::trace_access::sequential,
                                   replay_flow(w, rs));
      } else {
        res = exp::run_replay(orig, rs.mode, false,
                              core::injection_mode::streaming,
                              replay_flow(w, rs));
      }
      s.replay_s += exp::wall_seconds_since(tr);
      s.replayed += res.total + res.dropped;
      ++s.jobs;
      if (!replay_ok(rs, res, n, lossy)) ++s.failed;
      hash_replay(s.replay, sc, rs, res);
    }
  }
}

// A standalone drain of the v3 file: decode cost without the simulation.
void drain_trace(const std::string& path, layer_acc& acc) {
  const auto t0 = clock_type::now();
  const auto cur = net::open_trace_cursor(path);
  std::vector<const net::packet_record*> run;
  std::uint64_t n = 0;
  for (;;) {
    run.clear();
    const std::size_t got = cur->next_run(run);
    if (got == 0) break;
    n += got;
  }
  acc.drain_s += exp::wall_seconds_since(t0);
  acc.drained += n;
}

void finish_layers(const layer_acc& acc, double wall, sample& s) {
  auto& L = s.layers;
  L["record.ns_per_pkt"] = 1e9 * ratio(acc.record_s, acc.recorded);
  L["record.peak_pool_pkts"] = static_cast<double>(acc.record_peak_pool);
  L["record.peak_event_slots"] = static_cast<double>(acc.record_peak_slots);
  L["replay.setup_s"] = acc.replay_setup_s;
  const double rest = acc.replay_s - acc.replay_setup_s - acc.replay_decode_s;
  L["replay.ns_per_hop"] = 1e9 * ratio(rest, acc.replay_hops);
  L["replay.pkts_per_pull"] = ratio(acc.replay_records, acc.replay_pulls);
  L["replay.peak_pool_pkts"] = static_cast<double>(acc.replay_peak_pool);
  L["replay.peak_event_slots"] = static_cast<double>(acc.replay_peak_slots);
  for (const char* k : kModeKeys) {
    const auto it = acc.mode_rest.find(k);
    L[std::string("replay.ns_per_pkt.") + k] =
        it == acc.mode_rest.end()
            ? 0.0
            : 1e9 * ratio(it->second.first, it->second.second);
  }
  L["trace.encode_ns_per_pkt"] = 1e9 * ratio(acc.encode_s, acc.encoded);
  L["trace.bytes_per_pkt"] = ratio(acc.trace_bytes, acc.encoded);
  L["trace.decode_ns_per_pkt"] = 1e9 * ratio(acc.drain_s, acc.drained);
  L["trace.decode_share"] =
      acc.encoded > 0 ? ratio(acc.replay_decode_s, acc.replay_s) : 0.0;
  L["flow.stalled_frac"] = ratio(acc.stalled, acc.recorded);
  const double reenacted = L["replay.ns_per_pkt.lstf"] + L["replay.ns_per_pkt.edf"];
  const double live =
      L["replay.ns_per_pkt.lstf_live"] + L["replay.ns_per_pkt.edf_live"];
  L["flow.live_cost"] = live > 0 ? ratio(live, reenacted) : 0.0;
  L["layers.coverage"] = ratio(acc.spans_s, wall);
}

sample run_repetition(const workload& w, const run_context& ctx,
                      bool traced) {
  sample s;
  layer_acc acc;
  const auto t0 = clock_type::now();
  double side_s = 0;  // traced-only measurements, kept out of the main wall
  if (w.path != path_kind::dispatch) {
    run_local(w, ctx, traced ? &acc : nullptr, s);
    if (traced && w.path == path_kind::disk) {
      const auto td = clock_type::now();
      drain_trace(ctx.trace_path, acc);
      side_s += exp::wall_seconds_since(td);
    }
  } else {
    std::vector<exp::shard_task> tasks;
    std::vector<core::replay_mode> modes;
    for (const auto& rs : w.replays) modes.push_back(rs.mode);
    for (const auto& sc : w.originals) tasks.push_back({sc, modes});
    exp::dispatch::backend_spec spec;
    spec.kind = exp::dispatch::backend_kind::process;
    spec.workers = ctx.workers;
    const auto plan = exp::dispatch::job_plan::from_tasks(std::move(tasks));
    const auto td = clock_type::now();
    const auto rep = exp::dispatch::run(plan, spec);
    const double dispatch_s = exp::wall_seconds_since(td);
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      const auto& sc = w.originals[i];
      s.jobs += 1 + w.replays.size();
      if (rep.status[i] != exp::dispatch::job_status::ok) {
        s.failed += 1 + w.replays.size();
        continue;
      }
      const auto& r = rep.results[i];
      s.record_s += r.original_wall_seconds;
      s.recorded += r.trace_packets;
      hash_original(s.original, sc, r.trace_packets, r.threshold_T, nullptr);
      for (std::size_t m = 0; m < w.replays.size(); ++m) {
        const auto& res = r.replays[m].result;
        s.replay_s += r.replays[m].wall_seconds;
        s.replayed += res.total + res.dropped;
        dropped += res.dropped;
        if (!replay_ok(w.replays[m], res, r.trace_packets, sc.fault.enabled())) {
          ++s.failed;
        }
        hash_replay(s.replay, sc, w.replays[m], res);
      }
    }
    if (traced) {
      // The workers' layers are out of reach; the same jobs run once more,
      // serially and traced, for the breakdown and the serial job time.
      const auto ts = clock_type::now();
      sample serial;
      run_local(w, ctx, &acc, serial);
      side_s += exp::wall_seconds_since(ts);
      acc.spans_s = dispatch_s;  // the main wall holds the dispatch alone
      if (serial.original.h != s.original.h || serial.replay.h != s.replay.h) {
        ++s.failed;  // process dispatch must match the serial loop
      }
      s.failed += serial.failed;
      const double jobs_s = serial.record_s + serial.replay_s;
      s.layers["dispatch.jobs_s"] = jobs_s;
      s.layers["dispatch.speedup"] = ratio(jobs_s, dispatch_s);
      s.layers["dispatch.efficiency"] =
          ratio(jobs_s, dispatch_s * static_cast<double>(ctx.workers));
      s.layers["dispatch.worker_failures"] =
          static_cast<double>(rep.worker_failures.size());
      s.layers["fault.dropped"] = static_cast<double>(dropped);
    }
  }
  s.wall = exp::wall_seconds_since(t0) - side_s;
  if (traced) {
    for (const char* k : {"dispatch.jobs_s", "dispatch.speedup",
                          "dispatch.efficiency", "dispatch.worker_failures",
                          "fault.dropped"}) {
      s.layers.try_emplace(k, 0.0);
    }
    finish_layers(acc, s.wall, s);
  }
  return s;
}

// --- driver ---------------------------------------------------------------------

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string work_dir = ".";
};

options parse_options(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::stoull(v);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::stod(v);
    } else if (const char* v = value("--work-dir=")) {
      o.work_dir = v;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload= is required");
  if (o.seed == 0) throw std::invalid_argument("--seed must be >= 1");
  if (!(o.seconds >= 0)) throw std::invalid_argument("--seconds must be >= 0");
  return o;
}

int run(const options& o) {
  const workload w = make_workload(o.workload, o.seed, o.smoke);
  run_context ctx;
  std::filesystem::create_directories(o.work_dir);
  ctx.trace_path =
      (std::filesystem::path(o.work_dir) / (o.workload + ".v3")).string();
  ctx.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);

  // At least three set-up passes, more while they add up to under two
  // seconds: a median of a few milliseconds needs many samples to repeat.
  std::vector<double> setup_total, setup_topo, setup_build, setup_cal;
  const auto ts = clock_type::now();
  while (setup_total.empty() ||
         (!o.smoke && (setup_total.size() < 3 ||
                       exp::wall_seconds_since(ts) < 2.0))) {
    const setup_times st = setup_pass(w);
    setup_total.push_back(st.total());
    setup_topo.push_back(st.topo_s);
    setup_build.push_back(st.build_s);
    setup_cal.push_back(st.calibrate_s);
  }

  // Repetitions until --seconds pass; a traced run alternates plain and
  // traced repetitions so the spans' overhead is measured, not assumed.
  std::vector<sample> plain, traced;
  const auto t0 = clock_type::now();
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = o.traced && i % 2 == 1;
    (trace_this ? traced : plain).push_back(run_repetition(w, ctx, trace_this));
    if (exp::wall_seconds_since(t0) >= o.seconds &&
        (!o.traced || !traced.empty())) {
      break;
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  const sample& first = plain.front();
  std::vector<double> wall, replay_pps, record_pps, traced_wall;
  std::map<std::string, std::vector<double>> layers;
  for (const auto* set : {&plain, &traced}) {
    for (const sample& s : *set) {
      attempted += s.jobs;
      failed += s.failed;
      // Every repetition of a run must reproduce the first one exactly.
      if (s.original.h != first.original.h || s.replay.h != first.replay.h) {
        ++failed;
      }
      for (const auto& [k, v] : s.layers) layers[k].push_back(v);
    }
  }
  for (const sample& s : plain) {
    wall.push_back(s.wall);
    replay_pps.push_back(ratio(s.replayed, s.replay_s));
    record_pps.push_back(ratio(s.recorded, s.record_s));
  }
  for (const sample& s : traced) traced_wall.push_back(s.wall);

  std::map<std::string, double> metrics = {
      {"wall_s", median(wall)},
      {"replay_pps", median(replay_pps)},
      {"record_pps", median(record_pps)},
      {"setup_s", median(setup_total)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  if (o.traced) {
    for (const auto& [k, v] : layers) metrics[k] = median(v);
    metrics["topo.make_s"] = median(setup_topo);
    metrics["net.build_s"] = median(setup_build);
    metrics["traffic.calibrate_s"] = median(setup_cal);
    metrics["tracing.overhead_frac"] = median(traced_wall) / median(wall) - 1.0;
  }

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"smoke\":%s,\"traced\":%s,"
      "\"repetitions\":%zu,\"attempted\":%llu,\"failed\":%llu,"
      "\"digests\":{\"original\":\"%016llx\",\"replay\":\"%016llx\"},"
      "\"metrics\":{",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.smoke ? "true" : "false", o.traced ? "true" : "false",
      plain.size() + traced.size(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(first.original.h),
      static_cast<unsigned long long>(first.replay.h));
  const char* sep = "";
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\":%.17g", sep, k.c_str(), std::isfinite(v) ? v : 0.0);
    sep = ",";
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "upsbench: %s\n", e.what());
    return 2;
  }
}
