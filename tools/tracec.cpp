// tracec — schedule-trace toolbox for the ups-trace formats.
//
//   tracec gen <out> [--topo=K] [--util=F] [--sched=NAME] [--seed=N]
//                    [--packets=N] [--format=v1|v3] [--hops]
//                    [--workload=W]
//       record a scenario's original schedule, ingress-sort it, save it.
//       --workload selects the traffic source: open-loop (default),
//       paced[:frac], closed-loop[:outstanding], closed-loop-tcp[:n],
//       incast[:degree], mixed[:degree[:outstanding[:share]]]
//   tracec convert <in> <out> [--format=v1|v3]
//       either direction between the two formats; the source is sniffed
//       from <in>, the target defaults to v1 for a v3 source and v3 for a
//       text source. Both directions stream record by record through the
//       source's cursor (O(1 block) memory), so converting never
//       materializes the trace. A v1 source must be ingress-sorted to
//       convert to v3 (tracec gen writes sorted files).
//   tracec inspect <file> [--records=N]
//       header summary, ingress span, integrity walk, first N records;
//       v3 adds per-block occupancy and per-column bytes/packet
//   tracec replay <file> --topo=K [--mode=M]
//                 [--dispatch=serial|process[:N]]
//                 [--kill-worker-after=K] [--hang-worker-after=K]
//                 [--worker-timeout-ms=T] [--fault=F] [--flow=C]
//       replay straight from disk (one block read and decoded at a time
//       for v3, streaming parse for v1) over the named topology and report
//       overdue fractions + packets/sec. Without --mode the four
//       non-omniscient candidates are swept; --dispatch picks the fabric
//       backend (exp/dispatch): serial (the default) or N forked worker
//       processes (one per online CPU without :N). The per-mode
//       result lines (two-space indented) are byte-identical across
//       backends and worker counts — even with --kill-worker-after fault
//       injection killing a process worker mid-job, or
//       --hang-worker-after stalling one past the --worker-timeout-ms
//       watchdog (T > 0). Those three act on process workers, so they need
//       --dispatch=process[:N]. No other binary takes these four flags.
//
// The v1 text format is the diffable interchange representation; v3 is the
// replay representation (see src/net/trace_binary.h). Any other file, an old
// v2 binary trace included, is rejected with a trace format error.
//
// Each subcommand takes only the flags its usage line lists (run tracec
// without arguments to print them): any other flag exits 2, and a numeric
// flag whose whole value does not parse (--packets=12k) exits 1 naming the
// flag.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replay.h"
#include "exp/args.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "topo/topology.h"

namespace {

using namespace ups;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tracec gen <out> [--topo=K] [--util=F] [--sched=NAME] [--seed=N]\n"
      "                   [--packets=N] [--format=v1|v3] [--hops]\n"
      "                   [--workload=W] [--fault=F] [--flow=C]\n"
      "  tracec convert <in> <out> [--format=v1|v3]\n"
      "  tracec inspect <file> [--records=N]\n"
      "  tracec replay <file> --topo=K [--mode=M]\n"
      "                [--dispatch=serial|process[:N]]\n"
      "                [--kill-worker-after=K] [--hang-worker-after=K]\n"
      "                [--worker-timeout-ms=T] [--fault=F] [--flow=C]\n"
      "topologies: i2 i2-1g i2-10g rocketfuel fattree\n"
      "modes: lstf lstf-preempt lstf-pheap edf priority omniscient\n"
      "workloads: open-loop paced[:frac] closed-loop[:outstanding]\n"
      "           closed-loop-tcp[:outstanding] incast[:degree]\n"
      "           mixed[:degree[:outstanding[:share]]]\n"
      "faults: bernoulli:p ge:p_good,p_bad,flip jam:period_us,duty[,speedup]\n"
      "        (replay only needs --fault to re-apply a jam speedup's link\n"
      "        rates; the drop schedule itself is in the trace)\n"
      "flow control: credit:bytes[,rtt_us] pause:high,low none\n"
      "        (gen records stalls in the trace; replay re-enacts recorded\n"
      "        stalls always and --flow additionally governs the replay's\n"
      "        own links)\n");
  std::exit(2);
}

exp::topo_kind parse_topo(const std::string& s) {
  if (s == "i2" || s == "i2-1g-10g") return exp::topo_kind::i2_default;
  if (s == "i2-1g") return exp::topo_kind::i2_1g_1g;
  if (s == "i2-10g") return exp::topo_kind::i2_10g_10g;
  if (s == "rocketfuel") return exp::topo_kind::rocketfuel;
  if (s == "fattree" || s == "datacenter") return exp::topo_kind::fattree;
  std::fprintf(stderr, "tracec: unknown topology '%s'\n", s.c_str());
  std::exit(2);
}

core::replay_mode parse_mode(const std::string& s) {
  if (s == "lstf") return core::replay_mode::lstf;
  if (s == "lstf-preempt") return core::replay_mode::lstf_preemptive;
  if (s == "lstf-pheap") return core::replay_mode::lstf_pheap;
  if (s == "edf") return core::replay_mode::edf;
  if (s == "priority") return core::replay_mode::priority_output_time;
  if (s == "omniscient") return core::replay_mode::omniscient;
  std::fprintf(stderr, "tracec: unknown replay mode '%s'\n", s.c_str());
  std::exit(2);
}

// Flag helpers over the argv tail (everything after the subcommand's
// positional arguments).
struct flags {
  std::vector<std::string> all;

  // Exits 2 on any argument that is not one of `known`: "name=" takes a
  // value (--name=V), a bare "name" is a switch (--name).
  void allow(std::initializer_list<const char*> known) const {
    for (const auto& a : all) {
      const auto matches = [&a](const char* k) {
        const std::string flag = std::string("--") + k;
        return flag.back() == '=' ? a.rfind(flag, 0) == 0 : a == flag;
      };
      if (std::none_of(known.begin(), known.end(), matches)) {
        std::fprintf(stderr, "tracec: unknown flag '%s'\n", a.c_str());
        std::exit(2);
      }
    }
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const {
    const std::string* a = find(name);
    return a != nullptr ? a->substr(name.size() + 3) : def;
  }
  // The flag's value, which must parse in full: --packets=12k throws
  // std::invalid_argument naming the flag.
  template <typename T>
  [[nodiscard]] T number(const std::string& name, T def) const {
    const std::string* a = find(name);
    return a != nullptr ? exp::args::number<T>(*a, name.size() + 3) : def;
  }
  // A utilization flag's value, which must lie in (0, 1].
  [[nodiscard]] double utilization(const std::string& name, double def) const {
    const std::string* a = find(name);
    return a != nullptr ? exp::args::utilization_value(*a, name.size() + 3)
                        : def;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    for (const auto& a : all) {
      if (a == "--" + name) return true;
    }
    return false;
  }
  // Whether "--name=..." was given.
  [[nodiscard]] bool given(const std::string& name) const {
    return find(name) != nullptr;
  }

 private:
  // The argument "--name=...", or null.
  [[nodiscard]] const std::string* find(const std::string& name) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& a : all) {
      if (a.rfind(prefix, 0) == 0) return &a;
    }
    return nullptr;
  }
};

int cmd_gen(const std::string& out, const flags& f) {
  exp::scenario sc;
  sc.topo = parse_topo(f.get("topo", "i2"));
  sc.utilization = f.utilization("util", 0.7);
  sc.sched = core::sched_kind_from(f.get("sched", "Random"));
  sc.seed = f.number<std::uint64_t>("seed", 1);
  sc.packet_budget = f.number<std::uint64_t>("packets", 20'000);
  sc.record_hops = f.has("hops");
  const std::string workload = f.get("workload", "open-loop");
  sc.workload_kind = traffic::parse_workload(workload, sc.workload_spec);
  sc.fault = net::fault_spec::parse(f.get("fault", ""));
  sc.flow = net::flow_spec::parse(f.get("flow", ""));
  auto orig = exp::run_original(sc);
  const std::string format = f.get("format", "v1");
  if (format == "v3") {
    // The v3 writer drains the trace's ingress cursor: no reorder needed.
    net::save_trace_v3(out, orig.trace);
  } else if (format == "v1") {
    // Ingress-sort first so the v1 file streams straight into replay.
    net::sort_by_ingress(orig.trace);
    net::save_trace(out, orig.trace);
  } else {
    std::fprintf(stderr, "tracec: unknown format '%s'\n", format.c_str());
    return 2;
  }
  std::printf("recorded %zu packets (%s, util %.0f%%, %s, %s, seed %llu, "
              "peak in-flight %llu) -> %s\n",
              orig.trace.packets.size(), exp::to_string(sc.topo),
              sc.utilization * 100, core::to_string(sc.sched),
              traffic::to_string(sc.workload_kind),
              static_cast<unsigned long long>(sc.seed),
              static_cast<unsigned long long>(orig.peak_pool_packets),
              out.c_str());
  if (sc.fault.enabled()) {
    std::uint64_t dropped = 0;
    for (const auto& r : orig.trace.packets) {
      if (r.dropped()) ++dropped;
    }
    std::printf("fault %s: %llu of %zu recorded packets dropped\n",
                sc.fault.label().c_str(),
                static_cast<unsigned long long>(dropped),
                orig.trace.packets.size());
  }
  if (sc.flow.enabled()) {
    std::uint64_t stalled = 0;
    sim::time_ps stall_time = 0;
    for (const auto& r : orig.trace.packets) {
      if (!r.stalled()) continue;
      ++stalled;
      stall_time += r.stall_time;
    }
    std::printf("flow %s: %llu of %zu recorded packets stalled "
                "(%.3f ms total)\n",
                sc.flow.label().c_str(),
                static_cast<unsigned long long>(stalled),
                orig.trace.packets.size(), sim::to_millis(stall_time));
  }
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out,
                const flags& f) {
  const auto t0 = std::chrono::steady_clock::now();
  // Sniff the source; the target defaults to the other format (v3 -> v1
  // text, text -> v3) and --format overrides it. Both directions stream
  // through the source's cursor, so memory stays O(1 block).
  const std::string target =
      f.get("format", net::is_trace_v3_file(in) ? "v1" : "v3");
  const auto cur = net::open_trace_cursor(in);
  std::ofstream os(out, std::ios::binary);
  if (!os) throw std::runtime_error("tracec: cannot open " + out);
  std::uint64_t n = 0;
  if (target == "v1") {
    net::write_trace_header(os, cur->size_hint());
    while (const net::packet_record* r = cur->next()) {
      net::write_trace_record(os, *r);
      ++n;
    }
  } else if (target == "v3") {
    net::trace_v3_writer writer(os);
    while (const net::packet_record* r = cur->next()) writer.append(*r);
    writer.finish();
    n = writer.written();
  } else {
    std::fprintf(stderr, "tracec: unknown format '%s'\n", target.c_str());
    return 2;
  }
  std::printf("converted %llu records to %s in %.3fs -> %s\n",
              static_cast<unsigned long long>(n), target.c_str(),
              exp::wall_seconds_since(t0), out.c_str());
  return 0;
}

void print_record(const net::packet_record& r) {
  std::printf("  id=%llu flow=%llu size=%u i=%lld o=%lld hops=%zu\n",
              static_cast<unsigned long long>(r.id),
              static_cast<unsigned long long>(r.flow_id), r.size_bytes,
              static_cast<long long>(r.ingress_time),
              static_cast<long long>(r.egress_time), r.path.size());
}

// Drop tallies accumulated during an integrity walk. A wire drop keys on
// the "from->to" hop pair whose link lost the packet; a buffer drop keys on
// the node whose queue evicted it.
struct drop_tally {
  std::uint64_t dropped = 0;
  std::uint64_t wire = 0;
  std::map<std::string, std::uint64_t> by_link;

  void add(const net::packet_record& r) {
    if (!r.dropped()) return;
    ++dropped;
    const auto h = static_cast<std::size_t>(r.drop_hop);
    char key[48];
    if (r.dropped_kind == net::drop_kind::wire && h + 1 < r.path.size()) {
      ++wire;
      std::snprintf(key, sizeof(key), "%d->%d", r.path[h], r.path[h + 1]);
    } else {
      std::snprintf(key, sizeof(key), "buf@%d", r.path[h]);
    }
    ++by_link[key];
  }

  void print(std::size_t records) const {
    if (dropped == 0) return;
    std::printf("drops: %llu of %zu records (%llu wire, %llu buffer)\n",
                static_cast<unsigned long long>(dropped), records,
                static_cast<unsigned long long>(wire),
                static_cast<unsigned long long>(dropped - wire));
    std::printf("per-link drop histogram:\n");
    for (const auto& [link, n] : by_link) {
      std::printf("  %-12s %llu\n", link.c_str(),
                  static_cast<unsigned long long>(n));
    }
  }
};

// Stall tallies accumulated during an integrity walk. A stall record keys
// on the "from->to" hop pair whose governed output port parked the packet
// (the hop of its longest stall); pause/resume event counts come from the
// per-record stall_count (every recorded block was eventually resumed).
struct stall_tally {
  std::uint64_t stalled = 0;
  std::uint64_t pauses = 0;
  sim::time_ps stall_time = 0;
  std::map<std::string, std::pair<std::uint64_t, sim::time_ps>> by_link;

  void add(const net::packet_record& r) {
    if (!r.stalled()) return;
    ++stalled;
    pauses += r.stall_count;
    stall_time += r.stall_time;
    const auto h = static_cast<std::size_t>(r.stall_hop);
    char key[48];
    if (h + 1 < r.path.size()) {
      std::snprintf(key, sizeof(key), "%d->%d", r.path[h], r.path[h + 1]);
    } else {
      std::snprintf(key, sizeof(key), "egress@%d", r.path[h]);
    }
    auto& [n, t] = by_link[key];
    n += r.stall_count;
    t += r.stall_time;
  }

  void print(std::size_t records) const {
    if (stalled == 0) return;
    std::printf("stalls: %llu of %zu records stalled (%llu pause/resume "
                "events, %.3f ms total)\n",
                static_cast<unsigned long long>(stalled), records,
                static_cast<unsigned long long>(pauses),
                sim::to_millis(stall_time));
    std::printf("per-link stall-time histogram:\n");
    for (const auto& [link, nt] : by_link) {
      std::printf("  %-12s %6llu events  %10.3f ms\n", link.c_str(),
                  static_cast<unsigned long long>(nt.first),
                  sim::to_millis(nt.second));
    }
  }
};

// The integrity walk both formats share: decodes (parses) every record
// through the cursor replay uses, tallies drops and stalls, prints the
// first `show` records, and returns the record count and the first and
// last ingress times.
struct walk_summary {
  std::size_t records = 0;
  sim::time_ps first = -1;
  sim::time_ps last = -1;
};

walk_summary walk_records(net::trace_cursor& cur, std::size_t show) {
  walk_summary w;
  drop_tally drops;
  stall_tally stalls;
  while (const net::packet_record* r = cur.next()) {
    if (w.records == 0) w.first = r->ingress_time;
    w.last = r->ingress_time;
    drops.add(*r);
    stalls.add(*r);
    if (w.records++ < show) print_record(*r);
  }
  drops.print(w.records);
  stalls.print(w.records);
  return w;
}

// v3's summary from the header and the block headers alone: counts, the
// ingress span, block occupancy and per-column payload bytes.
void print_v3_summary(const std::string& path,
                      const net::trace_v3_cursor& cur) {
  const std::size_t n = cur.size_hint();
  const std::uint64_t blocks = cur.block_count();
  std::printf("%s: ups-trace v3, %zu records in %llu blocks "
              "(%u records/block), %zu bytes (%.2f B/record)\n",
              path.c_str(), n, static_cast<unsigned long long>(blocks),
              cur.records_per_block(), cur.file_size(),
              n == 0 ? 0.0
                     : static_cast<double>(cur.file_size()) /
                           static_cast<double>(n));
  if (blocks == 0) return;
  const auto first = cur.bounds_at(0);
  const auto last = cur.bounds_at(blocks - 1);
  std::printf("ingress span: %lld .. %lld ps (%.3f ms)\n",
              static_cast<long long>(first.min_ingress),
              static_cast<long long>(last.max_ingress),
              sim::to_millis(last.max_ingress - first.min_ingress));
  // Occupancy histogram: with a fixed records_per_block every block but
  // the last is full, so anything else flags a writer bug.
  std::uint64_t full = 0;
  std::uint64_t hist[10] = {};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint32_t occ = cur.records_in_block(b);
    if (occ == cur.records_per_block()) {
      ++full;
    } else {
      const std::size_t bucket = std::min<std::size_t>(
          9, (10ull * occ) / cur.records_per_block());
      ++hist[bucket];
    }
  }
  std::printf("block occupancy: %llu/%llu full",
              static_cast<unsigned long long>(full),
              static_cast<unsigned long long>(blocks));
  for (std::size_t d = 0; d < 10; ++d) {
    if (hist[d] > 0) {
      std::printf(", %llu in [%zu0%%,%zu0%%)",
                  static_cast<unsigned long long>(hist[d]), d, d + 1);
    }
  }
  std::printf("\n");
  // Per-column payload bytes, read off the block headers.
  std::uint64_t col[net::kTraceV3ColumnCount] = {};
  std::uint64_t payload = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const auto cb = cur.column_bytes_at(b);
    for (std::size_t c = 0; c < net::kTraceV3ColumnCount; ++c) {
      col[c] += cb[c];
      payload += cb[c];
    }
  }
  std::printf("columns (%llu payload bytes, %.2f B/record):\n",
              static_cast<unsigned long long>(payload),
              static_cast<double>(payload) / static_cast<double>(n));
  for (std::size_t c = 0; c < net::kTraceV3ColumnCount; ++c) {
    std::printf("  %-9s %10llu B  %6.2f B/record\n",
                net::kTraceV3ColumnNames[c],
                static_cast<unsigned long long>(col[c]),
                static_cast<double>(col[c]) / static_cast<double>(n));
  }
  std::printf("overhead: %u B header, %llu B block headers\n",
              net::kTraceV3HeaderBytes,
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(net::kTraceV3BlockHeaderBytes) *
                  blocks));
}

int cmd_inspect(const std::string& path, const flags& f) {
  const std::size_t show = f.number<std::size_t>("records", 5);
  if (net::is_trace_v3_file(path)) {
    net::trace_v3_cursor cur(path);
    print_v3_summary(path, cur);
    const walk_summary w = walk_records(cur, show);
    std::printf("integrity: all %zu records decode cleanly, blocks in "
                "ingress order\n",
                w.records);
    return 0;
  }
  net::trace_stream_reader reader(path);
  std::printf("%s: ups-trace v1 (text), %zu records declared\n",
              path.c_str(), reader.size_hint());
  const walk_summary w = walk_records(reader, show);
  std::printf("ingress span (file order): %lld .. %lld ps, %zu records "
              "parsed\n",
              static_cast<long long>(w.first), static_cast<long long>(w.last),
              w.records);
  return 0;
}

int cmd_replay(const std::string& path, const flags& f) {
  if (f.get("topo", "").empty()) {
    std::fprintf(stderr, "tracec replay: --topo is required\n");
    return 2;
  }
  exp::disk_shard_task task;
  task.trace_path = path;
  task.topology = exp::make_topology(parse_topo(f.get("topo", "")));
  // Replay never runs a fault process (the drop schedule is in the trace),
  // but a trace recorded under jam speedup was recorded on faster core
  // links — --fault re-applies that rate compensation.
  task.threshold_T = exp::apply_jam_speedup(
      task.topology, net::fault_spec::parse(f.get("fault", "")));
  const std::string one_mode = f.get("mode", "");
  if (!one_mode.empty()) {
    task.modes = {parse_mode(one_mode)};
  } else {
    task.modes = {core::replay_mode::lstf, core::replay_mode::lstf_pheap,
                  core::replay_mode::edf,
                  core::replay_mode::priority_output_time};
  }
  exp::shard_options opt;
  // Recorded stalls re-enact unconditionally; --flow additionally attaches
  // live credit/pause governance to the replay network's own links.
  opt.replay_flow = net::flow_spec::parse(f.get("flow", ""));
  exp::dispatch::backend_spec spec;  // serial unless --dispatch= says
  const std::string dispatch = f.get("dispatch", "");
  if (!dispatch.empty()) spec = exp::dispatch::backend_spec::parse(dispatch);
  // The worker knobs act on process workers only: the serial backend
  // would ignore them and exit 0.
  for (const char* knob :
       {"kill-worker-after", "hang-worker-after", "worker-timeout-ms"}) {
    if (f.given(knob) && spec.kind != exp::dispatch::backend_kind::process) {
      throw std::invalid_argument(std::string("--") + knob +
                                  " needs --dispatch=process[:N]");
    }
  }
  spec.kill_worker_after =
      f.number<std::uint64_t>("kill-worker-after", spec.kill_worker_after);
  spec.hang_worker_after =
      f.number<std::uint64_t>("hang-worker-after", spec.hang_worker_after);
  spec.worker_timeout_ms =
      f.number<std::int64_t>("worker-timeout-ms", spec.worker_timeout_ms);
  // The spec's 0 means the default deadline, so a given one must be > 0.
  if (f.given("worker-timeout-ms") && spec.worker_timeout_ms <= 0) {
    throw std::invalid_argument("--worker-timeout-ms must be positive");
  }

  const auto t0 = std::chrono::steady_clock::now();
  const exp::dispatch::run_report rep = exp::dispatch::run(
      exp::dispatch::job_plan::from_disk(std::move(task), opt), spec);
  const double wall = exp::wall_seconds_since(t0);
  rep.throw_if_failed();
  // The two-space result lines are deterministic (no timings), so
  //   tracec replay ... | grep '^  '
  // diffs clean across serial, process:N, and fault-injected
  // runs — that is the identity check CI performs.
  std::uint64_t total = 0;
  for (const exp::shard_replay& r : rep.disk_replays) {
    std::printf("  mode=%-12s total=%llu overdue=%.6f overdue_T=%.6f "
                "dropped=%llu\n",
                core::to_string(r.mode),
                static_cast<unsigned long long>(r.result.total),
                r.result.frac_overdue(), r.result.frac_overdue_beyond_T(),
                static_cast<unsigned long long>(r.result.dropped));
    total += r.result.total;
  }
  for (const auto& wf : rep.worker_failures) {
    std::printf("worker %d %s: %s (%zu jobs reassigned%s)\n", wf.worker,
                exp::dispatch::to_string(wf.kind), wf.message.c_str(),
                wf.reassigned_jobs.size(),
                wf.respawned ? ", respawned" : "");
  }
  std::printf("%s: replayed %zu mode(s) via %s in %.3fs "
              "(%.0f packets/s aggregate)\n",
              path.c_str(), rep.disk_replays.size(),
              exp::dispatch::to_string(spec.kind), wall,
              static_cast<double>(total) / wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string cmd = argv[1];
  flags f;
  for (int i = 3; i < argc; ++i) f.all.emplace_back(argv[i]);
  try {
    if (cmd == "gen") {
      f.allow({"topo=", "util=", "sched=", "seed=", "packets=", "format=",
               "hops", "workload=", "fault=", "flow="});
      return cmd_gen(argv[2], f);
    }
    if (cmd == "inspect") {
      f.allow({"records="});
      return cmd_inspect(argv[2], f);
    }
    if (cmd == "replay") {
      f.allow({"topo=", "mode=", "fault=", "flow=", "dispatch=",
               "kill-worker-after=", "hang-worker-after=",
               "worker-timeout-ms="});
      return cmd_replay(argv[2], f);
    }
    if (cmd == "convert") {
      if (argc < 4) usage();
      flags cf;
      for (int i = 4; i < argc; ++i) cf.all.emplace_back(argv[i]);
      cf.allow({"format="});
      return cmd_convert(argv[2], argv[3], cf);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracec: %s\n", e.what());
    return 1;
  }
  usage();
}
