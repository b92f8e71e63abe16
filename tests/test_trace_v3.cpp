// Tests for the v3 block-structured trace format: round trips (including
// hand-built edge records and multi-block files), replay equivalence
// against the v1 text path both serial and through the dispatch fabric, the
// warm cursor's zero-allocation decode, and corruption robustness — every
// mutation of a valid image must either read back cleanly or throw
// trace_format_error, never crash, read out of bounds or allocate by a
// forged count (the ASan/UBSan CI job gives the "never UB" half teeth).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "core/varint.h"
#include "exp/replay_experiment.h"
#include "exp/dispatch/backend.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

// Global operator-new hook for the zero-allocation test: counts every
// scalar/array heap allocation in the process, read only around the window
// under test. The nothrow form is replaced too (std::stable_sort's
// temporary buffer uses it): left to the library, its blocks would reach
// this file's free, a pairing ASan reports. noinline: inlined into callers,
// GCC pairs the visible std::free with the library's operator new
// declaration and emits a spurious -Wmismatched-new-delete.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace ups::net {
namespace {

struct recorded {
  topo::topology topology;
  trace tr;
};

recorded small_run(bool hop_times) {
  recorded out;
  out.topology = topo::dumbbell(3, 10 * sim::kGbps, sim::kGbps);
  sim::simulator sim;
  network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::random, 5, &net));
  net.build();
  trace_recorder rec(net, hop_times);
  traffic::fixed_size dist(15'000);
  traffic::workload_config wcfg;
  wcfg.packet_budget = 800;
  auto wl = traffic::generate(net, out.topology, dist, wcfg);
  traffic::source_options aopt;
  aopt.record_hops = hop_times;
  traffic::open_loop_source app(net, std::move(wl.flows), aopt);
  sim.run();
  out.tr = rec.take();
  return out;
}

void expect_equal(const trace& a, const trace& b) {
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const auto& x = a.packets[i];
    const auto& y = b.packets[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.flow_id, y.flow_id);
    EXPECT_EQ(x.seq_in_flow, y.seq_in_flow);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
    EXPECT_EQ(x.src_host, y.src_host);
    EXPECT_EQ(x.dst_host, y.dst_host);
    EXPECT_EQ(x.ingress_time, y.ingress_time);
    EXPECT_EQ(x.egress_time, y.egress_time);
    EXPECT_EQ(x.queueing_delay, y.queueing_delay);
    EXPECT_EQ(x.flow_size_bytes, y.flow_size_bytes);
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.hop_departs, y.hop_departs);
  }
}

// Serializes to a v3 byte image in memory (the writer needs a seekable
// stream; stringstream qualifies).
std::vector<std::uint8_t> to_v3_bytes(const trace& t) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_v3(ss, t);
  const std::string s = ss.str();
  return {s.begin(), s.end()};
}

// Same, but through a raw writer with a caller-chosen block size so tests
// can force multi-block files out of small traces. Appends in input order
// (the caller sorts).
std::vector<std::uint8_t> to_v3_bytes_blocked(const trace& t,
                                              std::uint32_t per_block) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  trace_v3_writer w(ss, t.packets.size(), per_block);
  for (const auto& r : t.packets) w.append(r);
  w.finish();
  const std::string s = ss.str();
  return {s.begin(), s.end()};
}

// Drains a cursor built over `bytes`, exercising every decode and order
// check — the "read it all" half of the fuzz property.
std::size_t drain_image(const std::vector<std::uint8_t>& bytes) {
  trace_v3_cursor cur(bytes.data(), bytes.size());
  std::size_t n = 0;
  while (cur.next() != nullptr) ++n;
  return n;
}

// The position of column `name` in kTraceV3ColumnNames.
std::size_t column_index(const char* name) {
  for (std::size_t c = 0; c < kTraceV3MaxColumnCount; ++c) {
    if (std::strcmp(kTraceV3ColumnNames[c], name) == 0) return c;
  }
  throw std::invalid_argument(name);
}

// The file offset of column `c`'s payload in block `b`.
std::size_t column_start(const trace_v3_cursor& probe, std::uint64_t b,
                         std::size_t c) {
  const auto bytes = probe.column_bytes_at(b);
  std::size_t start = static_cast<std::size_t>(probe.bounds_at(b).offset) +
                      trace_v3_block_header_bytes(probe.column_count());
  for (std::size_t k = 0; k < c; ++k) start += bytes[k];
  return start;
}

// The values of column `c` in block `b` of `img`.
std::vector<std::uint64_t> column_values(const std::vector<std::uint8_t>& img,
                                         std::uint64_t b, std::size_t c) {
  const trace_v3_cursor probe(img.data(), img.size());
  const std::uint8_t* p = img.data() + column_start(probe, b, c);
  const std::uint8_t* end = p + probe.column_bytes_at(b)[c];
  std::vector<std::uint64_t> out;
  while (p != end) {
    out.push_back(core::get_varint_checked<trace_format_error>(p, end, "t"));
  }
  return out;
}

template <typename T>
void store(std::vector<std::uint8_t>& img, std::size_t off, T v) {
  std::memcpy(img.data() + off, &v, sizeof(T));
}

// `img` with column `c` of block `b` re-encoded from `values`. The column
// size, the block size in both the block header and the index, and every
// later block's index offset are patched to match, so the image stays
// well-formed apart from what the new values say.
std::vector<std::uint8_t> with_column(std::vector<std::uint8_t> img,
                                      std::uint64_t b, std::size_t c,
                                      const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> col;
  for (const std::uint64_t v : values) core::put_varint(col, v);
  const trace_v3_cursor probe(img.data(), img.size());
  const std::size_t start = column_start(probe, b, c);
  const std::uint32_t old_bytes = probe.column_bytes_at(b)[c];
  const std::uint64_t blocks = probe.block_count();
  std::vector<trace_v3_cursor::block_bounds> index;
  for (std::uint64_t k = 0; k < blocks; ++k) {
    index.push_back(probe.bounds_at(k));
  }
  // From here on `img` changes under the probe, which is no longer used.
  const auto pos = [&img](std::size_t off) {
    return img.begin() + static_cast<std::ptrdiff_t>(off);
  };
  img.erase(pos(start), pos(start + old_bytes));
  img.insert(pos(start), col.begin(), col.end());
  const std::uint64_t grown = col.size() - old_bytes;  // wraps if it shrank
  const std::size_t h = static_cast<std::size_t>(index[b].offset);
  store(img, h + 24 + 4 * c, static_cast<std::uint32_t>(col.size()));
  store(img, h + 4, static_cast<std::uint32_t>(index[b].bytes + grown));
  const auto entry = [](std::uint64_t k) {
    return static_cast<std::size_t>(kTraceV3HeaderBytes +
                                    kTraceV3IndexEntryBytes * k);
  };
  store(img, entry(b) + 8, index[b].bytes + grown);
  for (std::uint64_t k = b + 1; k < blocks; ++k) {
    store(img, entry(k), index[k].offset + grown);
  }
  return img;
}

TEST(trace_v3, round_trip_preserves_all_fields) {
  auto r = small_run(true);
  // v3 stores ingress order, so compare against the sorted trace.
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes(r.tr);
  const trace back = read_trace_v3(bytes.data(), bytes.size());
  expect_equal(r.tr, back);
  ASSERT_FALSE(back.packets.empty());
  EXPECT_FALSE(back.packets.front().hop_departs.empty());
}

TEST(trace_v3, writer_sorts_any_input_order) {
  // The recorder appends in egress order; write_trace_v3 must produce the
  // same file (and therefore the same replay) as a pre-sorted input.
  const auto r = small_run(false);
  bool out_of_order = false;
  for (std::size_t i = 1; i < r.tr.packets.size(); ++i) {
    if (r.tr.packets[i].ingress_time < r.tr.packets[i - 1].ingress_time) {
      out_of_order = true;
      break;
    }
  }
  ASSERT_TRUE(out_of_order) << "run should egress out of ingress order";
  const auto bytes = to_v3_bytes(r.tr);
  trace sorted = r.tr;
  sort_by_ingress(sorted);
  EXPECT_EQ(bytes, to_v3_bytes(sorted));
  // And the decoded stream matches the in-memory ingress cursor record for
  // record (the stable same-instant tie-break included).
  trace_v3_cursor cur(bytes.data(), bytes.size());
  auto ref = r.tr.ingress_cursor();
  while (const packet_record* rec = cur.next()) {
    const packet_record* want = ref.next();
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(rec->id, want->id);
    EXPECT_EQ(rec->ingress_time, want->ingress_time);
  }
  EXPECT_EQ(ref.next(), nullptr);
}

TEST(trace_v3, round_trip_edge_case_records) {
  // Hand-built records the workload generator never produces, in ingress
  // order (the v3 writer requires it): extreme ids, negative times,
  // kInvalidNode endpoints, empty and single-hop paths.
  trace t;
  packet_record b;
  b.id = UINT64_MAX;
  b.flow_id = UINT64_MAX;
  b.seq_in_flow = UINT32_MAX;
  b.size_bytes = UINT32_MAX;
  b.src_host = kInvalidNode;  // -1 survives the zigzag encoding
  b.dst_host = kInvalidNode;
  b.path = {};  // empty path, empty hop_departs
  b.ingress_time = -1;
  b.egress_time = -1;
  b.queueing_delay = -5;
  t.packets.push_back(b);
  packet_record a;
  a.id = 1;
  a.flow_id = 7;
  a.size_bytes = 0;
  a.src_host = 0;
  a.dst_host = 0;
  a.path = {4};  // single hop
  a.ingress_time = 0;
  a.egress_time = INT64_MAX / 8;
  t.packets.push_back(a);
  packet_record c;
  c.id = 3;
  c.path = {1, 2, 3, 4, 5};
  c.hop_departs = {10, 20, 30, 40, 50};
  c.ingress_time = 5;
  t.packets.push_back(c);

  const auto bytes = to_v3_bytes(t);
  const trace back = read_trace_v3(bytes.data(), bytes.size());
  expect_equal(t, back);
}

TEST(trace_v3, empty_trace_round_trips) {
  const trace t;
  const auto bytes = to_v3_bytes(t);
  EXPECT_EQ(bytes.size(), kTraceV3HeaderBytes);
  trace_v3_cursor cur(bytes.data(), bytes.size());
  EXPECT_EQ(cur.size_hint(), 0u);
  EXPECT_EQ(cur.next(), nullptr);
}

TEST(trace_v3, drop_columns_round_trip_across_blocks) {
  // The widened 16-column (lossy) layout over a multi-block file: mark a
  // scattering of records dropped at various hops and kinds, write with the
  // drop columns, and require every field back through next().
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  for (std::size_t i = 0; i < r.tr.packets.size(); i += 7) {
    auto& p = r.tr.packets[i];
    if (p.path.empty()) continue;
    p.drop_hop = static_cast<std::int32_t>(i % p.path.size());
    p.dropped_kind = (i % 2) ? drop_kind::wire : drop_kind::buffer;
    p.drop_time = p.ingress_time + static_cast<sim::time_ps>(i);
  }
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  trace_v3_writer w(ss, r.tr.packets.size(), 64, /*with_drops=*/true);
  for (const auto& p : r.tr.packets) w.append(p);
  w.finish();
  const std::string s = ss.str();
  trace_v3_cursor cur(reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size());
  ASSERT_GT(cur.block_count(), 1u);
  trace back;
  while (const packet_record* rec = cur.next()) back.packets.push_back(*rec);
  expect_equal(r.tr, back);
  for (std::size_t i = 0; i < r.tr.packets.size(); ++i) {
    EXPECT_EQ(r.tr.packets[i].drop_hop, back.packets[i].drop_hop) << i;
    EXPECT_EQ(r.tr.packets[i].dropped_kind, back.packets[i].dropped_kind) << i;
    EXPECT_EQ(r.tr.packets[i].drop_time, back.packets[i].drop_time) << i;
  }
}

TEST(trace_v3, warmed_cursor_redecodes_without_allocating) {
  // The cursor's steady-state contract: once the first block has grown the
  // record slots and their vectors to a block's shape, decoding more blocks
  // of that shape performs zero heap allocations. The file tiles the same
  // 64 records eight times, each tile shifted in time past the one before,
  // so every later block has exactly the first block's shape.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  constexpr std::size_t kPerBlock = 64;
  ASSERT_GE(r.tr.packets.size(), kPerBlock);
  const std::vector<packet_record> tile(
      r.tr.packets.begin(), r.tr.packets.begin() + kPerBlock);
  const sim::time_ps shift =
      tile.back().ingress_time - tile.front().ingress_time + 1;
  trace t;
  for (sim::time_ps k = 0; k < 8; ++k) {
    for (packet_record p : tile) {
      p.ingress_time += k * shift;
      p.egress_time += k * shift;
      for (sim::time_ps& d : p.hop_departs) d += k * shift;
      t.packets.push_back(std::move(p));
    }
  }
  const auto bytes = to_v3_bytes_blocked(t, kPerBlock);
  trace_v3_cursor cur(bytes.data(), bytes.size());
  ASSERT_EQ(cur.block_count(), 8u);
  const auto cold_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kPerBlock; ++i) ASSERT_NE(cur.next(), nullptr);
  // The first block must allocate, or the hook is not counting at all.
  const auto before = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(before, cold_before);
  std::size_t warm = 0;
  while (cur.next() != nullptr) ++warm;
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before);
  EXPECT_EQ(warm, 7 * kPerBlock);
}

TEST(trace_v3, replay_identical_across_v1_v3_serial_and_sharded) {
  // The headline invariant: the same recorded schedule replayed from both
  // on-disk formats — serially and through the dispatch thread backend —
  // must produce byte-identical outcomes.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const std::string d = ::testing::TempDir();
  const std::string p1 = d + "/ups_fmt.v1";
  const std::string p3 = d + "/ups_fmt.v3";
  save_trace(p1, r.tr);
  save_trace_v3(p3, r.tr);

  const sim::time_ps threshold =
      sim::transmission_time(1500, r.topology.bottleneck_rate());
  const auto baseline = exp::run_replay_file(
      p1, r.topology, threshold, core::replay_mode::lstf, true);
  const auto serial = exp::run_replay_file(p3, r.topology, threshold,
                                           core::replay_mode::lstf, true);
  ups::testing::expect_identical_results(baseline, serial);
  // Replay from the v3 file agrees with the in-memory replay.
  const auto builder = [&r](network& n) { topo::populate(r.topology, n); };
  core::replay_options ropt;
  ropt.mode = core::replay_mode::lstf;
  ropt.keep_outcomes = true;
  const auto res_mem = core::replay_trace(r.tr, builder, ropt);
  trace_v3_cursor cur(p3);
  ups::testing::expect_identical_results(
      res_mem, core::replay_trace(cur, builder, ropt));

  exp::disk_shard_task task;
  task.topology = r.topology;
  task.threshold_T = threshold;
  task.modes = {core::replay_mode::lstf, core::replay_mode::edf,
                core::replay_mode::lstf_pheap};
  exp::shard_options opt;
  opt.keep_outcomes = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    exp::dispatch::backend_spec spec;
    spec.kind = exp::dispatch::backend_kind::thread;
    spec.workers = threads;
    task.trace_path = p3;
    const auto v3_rep = exp::dispatch::run(
        exp::dispatch::job_plan::from_disk(task, opt), spec);
    v3_rep.throw_if_failed();
    const auto& v3_res = v3_rep.disk_replays;
    task.trace_path = p1;
    const auto v1_rep = exp::dispatch::run(
        exp::dispatch::job_plan::from_disk(task, opt), spec);
    v1_rep.throw_if_failed();
    const auto& v1_res = v1_rep.disk_replays;
    ASSERT_EQ(v3_res.size(), task.modes.size());
    for (std::size_t m = 0; m < task.modes.size(); ++m) {
      ups::testing::expect_identical_results(v1_res[m].result,
                                             v3_res[m].result);
    }
    ups::testing::expect_identical_results(baseline, v3_res[0].result);
  }
  std::remove(p1.c_str());
  std::remove(p3.c_str());
}

TEST(trace_v3, convert_round_trip_through_v1_preserves_fields) {
  // The tracec convert path: v3 -> v1 streams the block cursor into the
  // text writer, v1 -> v3 streams the text reader into the v3 writer.
  // Fields must survive both directions, and the second v3 image must be
  // byte-identical to the first.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const auto first = to_v3_bytes(r.tr);
  // v3 -> v1.
  std::stringstream text;
  {
    trace_v3_cursor cur(first.data(), first.size());
    write_trace_header(text, cur.size_hint());
    while (const packet_record* rec = cur.next()) {
      write_trace_record(text, *rec);
    }
  }
  // v1 -> v3 (the text file is in ingress order, which v3 requires).
  std::stringstream s3(std::ios::in | std::ios::out | std::ios::binary);
  {
    trace_stream_reader reader(text);
    trace_v3_writer w(s3, reader.size_hint());
    while (const packet_record* rec = reader.next()) w.append(*rec);
    w.finish();
  }
  const std::string i3 = s3.str();
  EXPECT_EQ(first, std::vector<std::uint8_t>(i3.begin(), i3.end()));
  const trace back = read_trace_v3(
      reinterpret_cast<const std::uint8_t*>(i3.data()), i3.size());
  expect_equal(r.tr, back);
}

TEST(trace_v3, open_trace_cursor_sniffs_v1_and_v3) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const std::string text_path = ::testing::TempDir() + "/ups_sniff.v1";
  const std::string path = ::testing::TempDir() + "/ups_sniff.v3";
  save_trace(text_path, r.tr);
  save_trace_v3(path, r.tr);
  EXPECT_FALSE(is_trace_v3_file(text_path));
  EXPECT_TRUE(is_trace_v3_file(path));
  const auto text_cur = open_trace_cursor(text_path);
  std::size_t n_text = 0;
  while (text_cur->next() != nullptr) ++n_text;
  std::remove(text_path.c_str());
  EXPECT_EQ(n_text, r.tr.packets.size());
  const auto cur = open_trace_cursor(path);
  std::size_t n = 0;
  while (cur->next() != nullptr) ++n;
  std::remove(path.c_str());
  EXPECT_EQ(n, r.tr.packets.size());
}

// --- writer contract ---------------------------------------------------------

TEST(trace_v3, writer_rejects_misuse) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  packet_record r;
  r.ingress_time = 100;
  {
    trace_v3_writer w(ss, 4);
    w.append(r);
    packet_record early = r;
    early.ingress_time = 99;
    EXPECT_THROW(w.append(early), trace_format_error);  // out of order
    w.finish();
    EXPECT_THROW(w.finish(), std::logic_error);
    EXPECT_THROW(w.append(r), std::logic_error);
  }
  {
    // Capacity 4 with 4-record blocks reserves one index slot; a fifth
    // record needs a second block and must throw rather than scribble.
    std::stringstream s2(std::ios::in | std::ios::out | std::ios::binary);
    trace_v3_writer w(s2, 4, 4);
    for (int i = 0; i < 4; ++i) {
      w.append(r);
      r.ingress_time += 1;
    }
    w.append(r);  // buffered; overflows only when its block flushes
    EXPECT_THROW(w.finish(), trace_format_error);
  }
  EXPECT_THROW(trace_v3_writer(ss, 10, 0), std::logic_error);
}

// --- corruption robustness ---------------------------------------------------

TEST(trace_v3, bad_magic_and_wrong_version_throw) {
  const auto r = small_run(false);
  auto bytes = to_v3_bytes(r.tr);
  for (std::size_t i = 0; i < 8; ++i) {
    auto bad = bytes;
    bad[i] ^= 0xFF;
    EXPECT_THROW(drain_image(bad), trace_format_error) << "magic byte " << i;
  }
  for (const std::uint32_t v : {0u, 1u, 2u, 4u, 0xFFFFFFFFu}) {
    auto bad = bytes;
    std::memcpy(bad.data() + 8, &v, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "version " << v;
  }
}

TEST(trace_v3, every_truncation_throws_never_crashes) {
  // Truncation at any length — mid-header, mid-index, mid-block — must be
  // caught by the index tiling check or a column bound before any
  // out-of-bounds read.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  ASSERT_GT(bytes.size(), 512u);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 61)) {
    std::vector<std::uint8_t> bad(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(drain_image(bad), trace_format_error) << "cut at " << cut;
  }
}

TEST(trace_v3, header_field_corruption_throws) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  struct patch {
    std::size_t off;
    std::uint64_t value;
    unsigned width;
  };
  const patch patches[] = {
      {16, 0, 8},                  // record_count zeroed
      {16, UINT64_MAX, 8},         // record_count absurd
      {24, 0, 8},                  // block_count zeroed (count stays > 0)
      {24, UINT64_MAX, 8},         // block_count > index capacity
      {32, 0, 8},                  // data_offset disagrees with capacity
      {32, UINT64_MAX, 8},         // data_offset absurd
      {40, 0, 8},                  // index_capacity < block_count
      {40, UINT64_MAX, 8},         // index region out of bounds
      {48, 0, 4},                  // records_per_block zero
      {48, 1, 4},                  // blocks exceed records_per_block
  };
  for (const auto& p : patches) {
    auto bad = bytes;
    std::memcpy(bad.data() + p.off, &p.value, p.width);
    EXPECT_THROW(drain_image(bad), trace_format_error)
        << "offset " << p.off << " value " << p.value;
  }
}

TEST(trace_v3, index_and_block_header_mutations_throw) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 64);
  trace_v3_cursor probe(bytes.data(), bytes.size());
  ASSERT_GT(probe.block_count(), 2u);
  const auto b1 = probe.bounds_at(1);
  const std::size_t e1 = kTraceV3HeaderBytes + kTraceV3IndexEntryBytes;
  // Index entry 1: offset, bytes, and bounds each damaged in turn.
  for (const std::uint64_t off : {std::uint64_t{0}, b1.offset + 1,
                                  UINT64_MAX - 3}) {
    auto bad = bytes;
    std::memcpy(bad.data() + e1, &off, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "offset " << off;
  }
  for (const std::uint64_t sz : {std::uint64_t{0}, b1.bytes - 1,
                                 b1.bytes + 1, UINT64_MAX}) {
    auto bad = bytes;
    std::memcpy(bad.data() + e1 + 8, &sz, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "bytes " << sz;
  }
  {
    // min/max swapped: ordering violation.
    auto bad = bytes;
    std::memcpy(bad.data() + e1 + 16, &b1.max_ingress, 8);
    std::memcpy(bad.data() + e1 + 24, &b1.min_ingress, 8);
    if (b1.min_ingress != b1.max_ingress) {
      EXPECT_THROW(drain_image(bad), trace_format_error);
    }
  }
  // Block 1's header: record count, block bytes, base ingress, and each
  // column size, all behind a valid index.
  const std::size_t h1 = static_cast<std::size_t>(b1.offset);
  for (const std::uint32_t n : {0u, UINT32_MAX, 65u}) {  // 65 > per_block
    auto bad = bytes;
    std::memcpy(bad.data() + h1, &n, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "count " << n;
  }
  {
    auto bad = bytes;
    const std::uint32_t bb = static_cast<std::uint32_t>(b1.bytes) + 1;
    std::memcpy(bad.data() + h1 + 4, &bb, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  {
    auto bad = bytes;
    const std::int64_t base = b1.min_ingress + 1;
    std::memcpy(bad.data() + h1 + 8, &base, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    auto bad = bytes;
    std::uint32_t cb = 0;
    std::memcpy(&cb, bad.data() + h1 + 24 + 4 * c, 4);
    // Shrinking a column truncates varints mid-stream or desynchronizes
    // the column sum; both must throw.
    const std::uint32_t smaller = cb > 0 ? cb - 1 : 1;
    std::memcpy(bad.data() + h1 + 24 + 4 * c, &smaller, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error)
        << "column " << kTraceV3ColumnNames[c];
  }
}

TEST(trace_v3, forged_record_count_fails_replay_as_a_format_error) {
  // record_count is checked against the block headers at open, so a
  // keep_outcomes replay of a file whose header claims 10^15 records ends
  // in the typed error before anything could be sized by the claim.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  auto bytes = to_v3_bytes(r.tr);
  const std::uint64_t forged = 1'000'000'000'000'000;
  std::memcpy(bytes.data() + 16, &forged, 8);
  const std::string path = ::testing::TempDir() + "/ups_forged_count.v3";
  {
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  const sim::time_ps threshold =
      sim::transmission_time(1500, r.topology.bottleneck_rate());
  EXPECT_THROW(static_cast<void>(exp::run_replay_file(
                   path, r.topology, threshold, core::replay_mode::lstf,
                   /*keep_outcomes=*/true)),
               trace_format_error);
  std::remove(path.c_str());
}

TEST(trace_v3, forged_block_count_never_sizes_the_record_slots) {
  // A block header claiming 2^32 - 1 records, with records_per_block and
  // record_count forged to agree, passes every count check but the one
  // against the block's bytes (each record takes a byte in every
  // per-record column). Without that check the first decode would size the
  // record slots by the claim.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  auto bytes = to_v3_bytes(r.tr);
  std::size_t block0 = 0;
  {
    const trace_v3_cursor probe(bytes.data(), bytes.size());
    ASSERT_EQ(probe.block_count(), 1u);
    block0 = static_cast<std::size_t>(probe.bounds_at(0).offset);
  }
  const std::uint32_t claim = UINT32_MAX;
  const std::uint64_t total = claim;
  std::memcpy(bytes.data() + 16, &total, 8);   // record_count
  std::memcpy(bytes.data() + 48, &claim, 4);   // records_per_block
  std::memcpy(bytes.data() + block0, &claim, 4);  // block 0's record count
  EXPECT_THROW(drain_image(bytes), trace_format_error);
}

// Moves K > len[1] from record 1's length to record 0's, modulo 2^64, in
// block 0's length column `len`: the lengths' wrapped sum is unchanged, so
// a running-total bound alone passes record 0 (its new length still fits
// in the data column) and wraps back under the bound at record 1, whose
// length now reads 2^64 - 1. Each length must be checked on its own.
std::vector<std::uint8_t> with_wrapping_length(
    const std::vector<std::uint8_t>& img, const char* len) {
  const std::size_t c = column_index(len);
  std::vector<std::uint64_t> v = column_values(img, 0, c);
  EXPECT_GE(v.size(), 3u);
  EXPECT_GT(v[2], 0u);  // so record 0's new length fits the data column
  const std::uint64_t k = v[1] + 1;
  v[0] += k;
  v[1] -= k;
  EXPECT_EQ(v[1], UINT64_MAX);
  return with_column(img, 0, c, v);
}

TEST(trace_v3, wrapping_path_length_is_a_format_error) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes(r.tr);
  ASSERT_EQ(drain_image(with_column(bytes, 0, column_index("plen"),
                                    column_values(bytes, 0,
                                                  column_index("plen")))),
            r.tr.packets.size());  // the rewrite alone keeps the file valid
  EXPECT_THROW(drain_image(with_wrapping_length(bytes, "plen")),
               trace_format_error);
}

TEST(trace_v3, wrapping_departs_length_is_a_format_error) {
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes(r.tr);
  EXPECT_THROW(drain_image(with_wrapping_length(bytes, "dlen")),
               trace_format_error);
}

TEST(trace_v3, random_single_byte_flips_never_crash) {
  // Fuzz-style sweep: every mutation either reads back fully (the flip hit
  // payload data that still decodes) or throws trace_format_error. Any
  // other outcome — crash, OOB read under ASan, different exception — is a
  // robustness bug. Deterministic seed so failures reproduce.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 256);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 400; ++i) {
    auto bad = bytes;
    const std::size_t pos = next_rand() % bad.size();
    bad[pos] ^= static_cast<std::uint8_t>(1u << (next_rand() % 8));
    try {
      (void)drain_image(bad);
    } catch (const trace_format_error&) {
      // expected for structural damage
    }
  }
}

TEST(trace_v3, varint_truncation_mid_block_throws) {
  // Force a continuation bit onto the last byte of the last column so the
  // decoder would need bytes past the block end.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  auto bytes = to_v3_bytes(r.tr);
  bytes[bytes.size() - 1] |= 0x80;
  EXPECT_THROW(drain_image(bytes), trace_format_error);
  // Overlong varint: 10 continuation bytes exceed 64 payload bits.
  auto bad = to_v3_bytes(r.tr);
  trace_v3_cursor probe(bad.data(), bad.size());
  const auto b0 = probe.bounds_at(0);
  std::uint8_t* payload =
      bad.data() + b0.offset + kTraceV3BlockHeaderBytes;
  for (int i = 0; i < 10; ++i) payload[i] |= 0x80;
  EXPECT_THROW(drain_image(bad), trace_format_error);
}

}  // namespace
}  // namespace ups::net
