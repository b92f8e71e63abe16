// Tests for the v3 block-structured trace format: round trips (including
// hand-built edge records and multi-block files), replay equivalence
// against the v1 text path both serial and through the dispatch fabric, the
// warm cursor's zero-allocation decode, the cursor's block-at-a-time reads
// (a file cut after open, one block resident), and corruption robustness —
// every mutation of a valid image must either read back cleanly or throw
// trace_format_error, never crash, read out of bounds or allocate by a
// forged count (the ASan/UBSan CI job gives the "never UB" half teeth).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "alloc_counter.h"
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
  traffic::open_loop_source app(net, std::move(wl.flows), {});
  sim.run();
  out.tr = rec.take();
  return out;
}

// Drains `cur`, expecting exactly the records of `a`, in order.
void expect_equal(const trace& a, trace_cursor& cur) {
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const packet_record* next = cur.next();
    ASSERT_NE(next, nullptr) << "the cursor ended at record " << i;
    const auto& x = a.packets[i];
    const auto& y = *next;
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
    EXPECT_EQ(x.drop_hop, y.drop_hop);
    EXPECT_EQ(x.dropped_kind, y.dropped_kind);
    EXPECT_EQ(x.drop_time, y.drop_time);
    EXPECT_EQ(x.stall_hop, y.stall_hop);
    EXPECT_EQ(x.stall_count, y.stall_count);
    EXPECT_EQ(x.stall_time, y.stall_time);
  }
  EXPECT_EQ(cur.next(), nullptr);
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
  trace_v3_writer w(ss, per_block);
  for (const auto& r : t.packets) w.append(r);
  w.finish();
  const std::string s = ss.str();
  return {s.begin(), s.end()};
}

// A cursor reading an in-memory v3 image through a stream it owns.
struct image_cursor {
  explicit image_cursor(const std::vector<std::uint8_t>& img)
      : is(std::string(img.begin(), img.end())), cur(is) {}
  std::istringstream is;
  trace_v3_cursor cur;
};

// Drains a cursor built over `bytes`, exercising every decode and order
// check — the "read it all" half of the fuzz property.
std::size_t drain_image(const std::vector<std::uint8_t>& bytes) {
  image_cursor img(bytes);
  std::size_t n = 0;
  while (img.cur.next() != nullptr) ++n;
  return n;
}

// The position of column `name` in kTraceV3ColumnNames.
std::size_t column_index(const char* name) {
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    if (std::strcmp(kTraceV3ColumnNames[c], name) == 0) return c;
  }
  throw std::invalid_argument(name);
}

// The file offset of column `c`'s payload in block `b`.
std::size_t column_start(const trace_v3_cursor& probe, std::uint64_t b,
                         std::size_t c) {
  const auto bytes = probe.column_bytes_at(b);
  std::size_t start = static_cast<std::size_t>(probe.bounds_at(b).offset) +
                      kTraceV3BlockHeaderBytes;
  for (std::size_t k = 0; k < c; ++k) start += bytes[k];
  return start;
}

// The values of column `c` in block `b` of `img`.
std::vector<std::uint64_t> column_values(const std::vector<std::uint8_t>& img,
                                         std::uint64_t b, std::size_t c) {
  const image_cursor probe(img);
  const std::uint8_t* p = img.data() + column_start(probe.cur, b, c);
  const std::uint8_t* end = p + probe.cur.column_bytes_at(b)[c];
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
// size and the block size in the block header are patched to match, so the
// image stays well-formed apart from what the new values say.
std::vector<std::uint8_t> with_column(std::vector<std::uint8_t> img,
                                      std::uint64_t b, std::size_t c,
                                      const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> col;
  for (const std::uint64_t v : values) core::put_varint(col, v);
  const image_cursor probe(img);
  const std::size_t start = column_start(probe.cur, b, c);
  const std::uint32_t old_bytes = probe.cur.column_bytes_at(b)[c];
  const trace_v3_cursor::block_bounds bounds = probe.cur.bounds_at(b);
  const auto pos = [&img](std::size_t off) {
    return img.begin() + static_cast<std::ptrdiff_t>(off);
  };
  img.erase(pos(start), pos(start + old_bytes));
  img.insert(pos(start), col.begin(), col.end());
  const std::size_t h = static_cast<std::size_t>(bounds.offset);
  store(img, h + 24 + 4 * c, static_cast<std::uint32_t>(col.size()));
  store(img, h + 4,
        static_cast<std::uint32_t>(bounds.bytes + col.size() - old_bytes));
  return img;
}

TEST(trace_v3, round_trip_preserves_all_fields) {
  auto r = small_run(true);
  // v3 stores ingress order, so compare against the sorted trace.
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes(r.tr);
  image_cursor img(bytes);
  expect_equal(r.tr, img.cur);
  ASSERT_FALSE(r.tr.packets.empty());
  EXPECT_FALSE(r.tr.packets.front().hop_departs.empty());
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
  image_cursor img(bytes);
  auto ref = r.tr.ingress_cursor();
  while (const packet_record* rec = img.cur.next()) {
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
  image_cursor img(bytes);
  expect_equal(t, img.cur);
}

TEST(trace_v3, empty_trace_round_trips) {
  const trace t;
  const auto bytes = to_v3_bytes(t);
  EXPECT_EQ(bytes.size(), kTraceV3HeaderBytes);
  image_cursor img(bytes);
  EXPECT_EQ(img.cur.size_hint(), 0u);
  EXPECT_EQ(img.cur.next(), nullptr);
}

TEST(trace_v3, drop_columns_round_trip_across_blocks) {
  // The drop pair over a multi-block file: mark a scattering of records
  // dropped at various hops and kinds and require every field back through
  // next().
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
  trace_v3_writer w(ss, 64);
  for (const auto& p : r.tr.packets) w.append(p);
  w.finish();
  trace_v3_cursor cur(ss);
  ASSERT_GT(cur.block_count(), 1u);
  expect_equal(r.tr, cur);
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
  image_cursor img(bytes);
  trace_v3_cursor& cur = img.cur;
  ASSERT_EQ(cur.block_count(), 8u);
  std::size_t cold = 0;
  const std::uint64_t cold_allocs = testing::allocations_during([&] {
    while (cold < kPerBlock && cur.next() != nullptr) ++cold;
  });
  ASSERT_EQ(cold, kPerBlock);
  // The first block must allocate, or the hook is not counting at all.
  EXPECT_GT(cold_allocs, 0u);
  std::size_t warm = 0;
  EXPECT_EQ(testing::allocations_during([&] {
              while (cur.next() != nullptr) ++warm;
            }),
            0u);
  EXPECT_EQ(warm, 7 * kPerBlock);
}

TEST(trace_v3, replay_identical_across_v1_v3_serial_and_sharded) {
  // The headline invariant: the same recorded schedule replayed from both
  // on-disk formats — serially and through the dispatch process backend —
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
  for (const char* backend : {"serial", "process:3"}) {
    const auto spec = exp::dispatch::backend_spec::parse(backend);
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
    image_cursor img(first);
    write_trace_header(text, img.cur.size_hint());
    while (const packet_record* rec = img.cur.next()) {
      write_trace_record(text, *rec);
    }
  }
  // v1 -> v3 (the text file is in ingress order, which v3 requires).
  std::stringstream s3(std::ios::in | std::ios::out | std::ios::binary);
  {
    trace_stream_reader reader(text);
    trace_v3_writer w(s3);
    while (const packet_record* rec = reader.next()) w.append(*rec);
    w.finish();
  }
  const std::string i3 = s3.str();
  EXPECT_EQ(first, std::vector<std::uint8_t>(i3.begin(), i3.end()));
  trace_v3_cursor cur(s3);
  expect_equal(r.tr, cur);
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

// --- streaming reads ---------------------------------------------------------

// A reader or cursor built from a path reads through a pointer to the stream
// it owns; moving one would leave that pointer on the moved-from stream.
static_assert(!std::is_move_constructible_v<trace_stream_reader>);
static_assert(!std::is_move_constructible_v<trace_v3_cursor>);

TEST(trace_v3, file_truncated_after_open_is_a_format_error) {
  // The cursor reads each block from the file when it decodes it, so a file
  // cut short after the walk at open ends in the typed error at the first
  // block it no longer holds whole.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const std::string path = ::testing::TempDir() + "/ups_truncated.v3";
  {
    std::ofstream os(path, std::ios::binary);
    trace_v3_writer w(os, 64);
    for (const auto& p : r.tr.packets) w.append(p);
    w.finish();
  }
  {
    trace_v3_cursor cur(path);
    ASSERT_GT(cur.block_count(), 2u);
    for (std::uint32_t i = 0; i < cur.records_per_block(); ++i) {
      ASSERT_NE(cur.next(), nullptr);
    }
    const auto block1 = cur.bounds_at(1);
    std::filesystem::resize_file(path, block1.offset + block1.bytes / 2);
    try {
      while (cur.next() != nullptr) {
      }
      ADD_FAILURE() << "a file truncated after open drained cleanly";
    } catch (const trace_format_error& e) {
      EXPECT_STREQ(e.what(), "trace v3: file truncated after open");
    }
  }
  std::remove(path.c_str());
}

#if defined(__linux__)
// Resident memory of this process in KiB, or -1 without /proc/self/statm.
std::int64_t resident_kib() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = -1;
  if (!(statm >> size >> resident)) return -1;
  return resident * ::sysconf(_SC_PAGESIZE) / 1024;
}
#else
std::int64_t resident_kib() { return -1; }
#endif

TEST(trace_v3, draining_a_file_holds_one_block_not_the_file) {
  if (resident_kib() < 0) GTEST_SKIP() << "no /proc/self/statm";
  // A cursor holds one block of file bytes, never the file: draining a
  // 7.2 MB file of 8-hop records in blocks of 1024 must raise resident
  // memory by under 1 MiB (the record slots, their vectors and one block).
  const std::string path = ::testing::TempDir() + "/ups_resident.v3";
  {
    std::ofstream os(path, std::ios::binary);
    trace_v3_writer w(os);
    packet_record p;
    p.size_bytes = 1500;
    p.path.resize(8);
    p.hop_departs.resize(8);
    for (std::uint64_t i = 0; i < 110'000; ++i) {
      p.id = i;
      p.flow_id = i % 977;
      p.ingress_time = static_cast<sim::time_ps>(i) * 1'000'000;
      for (std::size_t k = 0; k < 8; ++k) {
        p.path[k] = static_cast<node_id>((i * 31 + k * 97) % 1000);
        p.hop_departs[k] =
            p.ingress_time + static_cast<sim::time_ps>(k + 1) * 1'234'567;
      }
      p.egress_time = p.hop_departs.back();
      w.append(p);
    }
    w.finish();
  }
  ASSERT_GE(std::filesystem::file_size(path), 7'000'000u);
  const std::int64_t before = resident_kib();
  std::int64_t grown = 0;
  {
    trace_v3_cursor cur(path);
    std::size_t n = 0;
    while (cur.next() != nullptr) ++n;
    EXPECT_EQ(n, cur.size_hint());
    grown = resident_kib() - before;
  }
  std::remove(path.c_str());
  EXPECT_LT(grown, 1024) << "KiB resident after draining";
}

// --- writer contract ---------------------------------------------------------

TEST(trace_v3, writer_rejects_misuse) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  packet_record r;
  r.ingress_time = 100;
  {
    trace_v3_writer w(ss);
    w.append(r);
    packet_record early = r;
    early.ingress_time = 99;
    EXPECT_THROW(w.append(early), trace_format_error);  // out of order
    w.finish();
    EXPECT_THROW(w.finish(), std::logic_error);
    EXPECT_THROW(w.append(r), std::logic_error);
  }
  EXPECT_THROW(trace_v3_writer(ss, 0), std::logic_error);
}

TEST(trace_v3, each_block_stores_only_the_pairs_it_uses) {
  // Block 0 holds a dropped and a stalled record, block 1 a record dropped
  // in another slot and no stall, block 2 a stall and no drop. Each block
  // stores only the pairs its records use, and every slot decodes exactly
  // its own record, although it reuses what the block before left there.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  ASSERT_GE(r.tr.packets.size(), 12u);
  trace t;
  t.packets.assign(r.tr.packets.begin(), r.tr.packets.begin() + 12);
  const auto drop = [&t](std::size_t i, drop_kind kind) {
    packet_record& p = t.packets[i];
    p.drop_hop = 0;
    p.dropped_kind = kind;
    p.drop_time = p.ingress_time + 7;
  };
  const auto stall = [&t](std::size_t i) {
    packet_record& p = t.packets[i];
    p.stall_hop = 0;
    p.stall_count = 2;
    p.stall_time = 5'000;
  };
  drop(1, drop_kind::wire);
  stall(2);
  drop(4 + 3, drop_kind::buffer);
  stall(8 + 1);
  const auto bytes = to_v3_bytes_blocked(t, 4);
  image_cursor img(bytes);
  trace_v3_cursor& cur = img.cur;
  ASSERT_EQ(cur.block_count(), 3u);
  const bool stores[3][2] = {{true, true}, {true, false}, {false, true}};
  std::size_t total = kTraceV3HeaderBytes;
  for (std::uint64_t b = 0; b < 3; ++b) {
    const auto cols = cur.column_bytes_at(b);
    for (const char* name : {"dropinfo", "dtime"}) {
      EXPECT_EQ(cols[column_index(name)] > 0, stores[b][0])
          << name << " in block " << b;
    }
    for (const char* name : {"stallinfo", "stime"}) {
      EXPECT_EQ(cols[column_index(name)] > 0, stores[b][1])
          << name << " in block " << b;
    }
    total += cur.bounds_at(b).bytes;
  }
  // The delivered records' zeros cost a byte each, only where stored.
  EXPECT_EQ(cur.column_bytes_at(0)[column_index("dropinfo")], 4u);
  EXPECT_EQ(bytes.size(), total);
  expect_equal(t, cur);
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
  // Version 3 files led with a block index and chose their columns per
  // file: a version-3 header is a format error, never a misread.
  for (const std::uint32_t v : {0u, 1u, 2u, 3u, 5u, 0xFFFFFFFFu}) {
    auto bad = bytes;
    std::memcpy(bad.data() + 8, &v, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "version " << v;
  }
}

TEST(trace_v3, every_truncation_throws_never_crashes) {
  // Truncation at any length — mid-header, mid-block-header, mid-column —
  // must be caught by the block walk or a column bound before any
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

TEST(trace_v3, cut_at_a_block_boundary_fails_the_record_count) {
  // A file cut between two blocks still tiles: only the header's
  // record_count tells that blocks are missing.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  const image_cursor probe(bytes);
  ASSERT_GT(probe.cur.block_count(), 2u);
  for (std::uint64_t b = 0; b < probe.cur.block_count(); ++b) {
    const auto cut = static_cast<long>(probe.cur.bounds_at(b).offset);
    const std::vector<std::uint8_t> bad(bytes.begin(), bytes.begin() + cut);
    try {
      (void)drain_image(bad);
      ADD_FAILURE() << "a file cut before block " << b << " was accepted";
    } catch (const trace_format_error& e) {
      EXPECT_STREQ(e.what(),
                   "trace v3: blocks disagree with the declared record count")
          << "cut before block " << b;
    }
  }
}

TEST(trace_v3, header_field_corruption_throws) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  const image_cursor probe(bytes);
  const std::uint64_t records = probe.cur.size_hint();
  const std::uint64_t blocks = probe.cur.block_count();
  struct patch {
    std::size_t off;
    std::uint64_t value;
    unsigned width;
  };
  const patch patches[] = {
      {16, 0, 8},               // record_count zeroed
      {16, UINT64_MAX, 8},      // record_count absurd
      {16, records - 1, 8},     // record_count one short
      {16, records + 1, 8},     // record_count one over
      {24, 0, 8},               // block_count zeroed (count stays > 0)
      {24, UINT64_MAX, 8},      // block_count absurd
      {24, blocks - 1, 8},      // block_count one short
      {24, blocks + 1, 8},      // block_count one over
      {48, 0, 4},               // records_per_block zero
      {48, 1, 4},               // blocks exceed records_per_block
  };
  for (const auto& p : patches) {
    auto bad = bytes;
    std::memcpy(bad.data() + p.off, &p.value, p.width);
    EXPECT_THROW(drain_image(bad), trace_format_error)
        << "offset " << p.off << " value " << p.value;
  }
}

TEST(trace_v3, block_header_mutations_throw) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 64);
  const image_cursor probe(bytes);
  ASSERT_GT(probe.cur.block_count(), 2u);
  const auto b0 = probe.cur.bounds_at(0);
  const auto b1 = probe.cur.bounds_at(1);
  const std::size_t h1 = static_cast<std::size_t>(b1.offset);
  // Block 1's size places every later block: each damaged size misplaces
  // them or overruns the file.
  for (const std::uint32_t sz :
       {0u, static_cast<std::uint32_t>(b1.bytes) - 1,
        static_cast<std::uint32_t>(b1.bytes) + 1, UINT32_MAX}) {
    auto bad = bytes;
    std::memcpy(bad.data() + h1 + 4, &sz, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "bytes " << sz;
  }
  if (b1.min_ingress != b1.max_ingress) {
    // min/max swapped: ordering violation.
    auto bad = bytes;
    std::memcpy(bad.data() + h1 + 8, &b1.max_ingress, 8);
    std::memcpy(bad.data() + h1 + 16, &b1.min_ingress, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  {
    // Block 1 starting before block 0 ends: ordering across blocks.
    auto bad = bytes;
    const std::int64_t early = b0.max_ingress - 1;
    std::memcpy(bad.data() + h1 + 8, &early, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  {
    // A max bound its last record does not reach.
    auto bad = bytes;
    const std::int64_t late = b1.max_ingress + 1;
    std::memcpy(bad.data() + h1 + 16, &late, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  for (const std::uint32_t n : {0u, UINT32_MAX, 65u}) {  // 65 > per_block
    auto bad = bytes;
    std::memcpy(bad.data() + h1, &n, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "count " << n;
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
    // the column sum; growing an empty pair column does the latter.
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
    const image_cursor probe(bytes);
    ASSERT_EQ(probe.cur.block_count(), 1u);
    block0 = static_cast<std::size_t>(probe.cur.bounds_at(0).offset);
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
  const auto b0 = image_cursor(bad).cur.bounds_at(0);
  std::uint8_t* payload =
      bad.data() + b0.offset + kTraceV3BlockHeaderBytes;
  for (int i = 0; i < 10; ++i) payload[i] |= 0x80;
  EXPECT_THROW(drain_image(bad), trace_format_error);
}

}  // namespace
}  // namespace ups::net
