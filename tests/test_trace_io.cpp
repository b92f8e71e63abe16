// Tests for schedule-trace serialization: round-trips, error handling, and
// replaying a deserialized trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_io.h"
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

TEST(trace_io, stream_round_trip) {
  const auto r = small_run(false);
  std::stringstream ss;
  write_trace(ss, r.tr);
  const auto back = read_trace(ss);
  expect_equal(r.tr, back);
}

TEST(trace_io, round_trip_preserves_hop_times) {
  const auto r = small_run(true);
  std::stringstream ss;
  write_trace(ss, r.tr);
  const auto back = read_trace(ss);
  expect_equal(r.tr, back);
  ASSERT_FALSE(back.packets.empty());
  EXPECT_FALSE(back.packets.front().hop_departs.empty());
}

TEST(trace_io, bad_magic_throws) {
  std::stringstream ss("not-a-trace\n0\n");
  EXPECT_THROW(static_cast<void>(read_trace(ss)), std::runtime_error);
}

TEST(trace_io, truncated_throws) {
  const auto r = small_run(false);
  std::stringstream ss;
  write_trace(ss, r.tr);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(static_cast<void>(read_trace(cut)), std::runtime_error);
}

TEST(trace_io, file_round_trip_and_replay_equivalence) {
  const auto r = small_run(false);
  const std::string path = ::testing::TempDir() + "/ups_trace_test.txt";
  save_trace(path, r.tr);
  const auto back = load_trace(path);
  std::remove(path.c_str());

  // The deserialized trace must replay identically to the in-memory one.
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  opt.keep_outcomes = true;
  const auto& topology = r.topology;
  const auto builder = [&topology](network& n) { topo::populate(topology, n); };
  const auto res_a = core::replay_trace(r.tr, builder, opt);
  const auto res_b = core::replay_trace(back, builder, opt);
  ASSERT_EQ(res_a.outcomes.size(), res_b.outcomes.size());
  for (std::size_t i = 0; i < res_a.outcomes.size(); ++i) {
    EXPECT_EQ(res_a.outcomes[i].replay_out, res_b.outcomes[i].replay_out);
  }
}

TEST(trace_io, missing_file_throws) {
  EXPECT_THROW(static_cast<void>(load_trace("/nonexistent/ups.trace")),
               std::runtime_error);
}

TEST(trace_io, ingress_cursor_yields_sorted_records_without_copying) {
  const auto r = small_run(false);
  // The cursor views the trace's own records, it does not copy them: every
  // pointer it yields is the address of a record of the trace, and every
  // record is yielded exactly once.
  std::unordered_map<const packet_record*, std::size_t> yields;
  for (const packet_record& rec : r.tr.packets) yields.emplace(&rec, 0);
  ASSERT_EQ(yields.size(), r.tr.packets.size());
  auto cur = r.tr.ingress_cursor();
  EXPECT_EQ(cur.size_hint(), r.tr.packets.size());
  sim::time_ps last = -1;
  while (const packet_record* rec = cur.next()) {
    EXPECT_GE(rec->ingress_time, last);
    last = rec->ingress_time;
    const auto it = yields.find(rec);
    ASSERT_NE(it, yields.end()) << "yielded a record the trace does not hold";
    ++it->second;
  }
  for (const auto& [rec, n] : yields) {
    EXPECT_EQ(n, 1u) << "record id " << rec->id;
  }
}

TEST(trace_io, ingress_order_breaks_ties_by_position) {
  // Ingress times 5, 3, 5, 1, 5, 3 at positions 0-5, ids equal to
  // positions: records sort by ingress time, and equal times keep their
  // order in the trace, through the cursor and through sort_by_ingress.
  const sim::time_ps ingress[] = {5, 3, 5, 1, 5, 3};
  trace t;
  for (std::uint64_t i = 0; i < 6; ++i) {
    packet_record& rec = t.packets.emplace_back();
    rec.id = i;
    rec.ingress_time = ingress[i];
  }
  const std::vector<std::uint64_t> want = {3, 1, 5, 0, 2, 4};
  std::vector<std::uint64_t> ids;
  {
    auto cur = t.ingress_cursor();
    while (const packet_record* rec = cur.next()) ids.push_back(rec->id);
  }
  EXPECT_EQ(ids, want);
  sort_by_ingress(t);
  ids.clear();
  for (const packet_record& rec : t.packets) ids.push_back(rec.id);
  EXPECT_EQ(ids, want);
}

TEST(trace_io, stream_reader_matches_batch_loader) {
  const auto r = small_run(true);
  std::stringstream ss;
  write_trace(ss, r.tr);
  trace_stream_reader reader(ss);
  EXPECT_EQ(reader.size_hint(), r.tr.packets.size());
  trace streamed;
  while (const packet_record* rec = reader.next()) {
    streamed.packets.push_back(*rec);
  }
  EXPECT_EQ(reader.read(), r.tr.packets.size());
  expect_equal(r.tr, streamed);
}

TEST(trace_io, stream_reader_bad_magic_throws) {
  std::stringstream ss("not-a-trace\n0\n");
  EXPECT_THROW(trace_stream_reader reader(ss), std::runtime_error);
}

TEST(trace_io, non_trace_binary_fails_with_a_short_typed_error) {
  // Neither an old v2 binary trace nor an arbitrary newline-free file is a
  // trace: both fall through to the text reader, whose magic check must
  // throw trace_format_error with a short message — not copy the file into
  // it — whether the file is opened by path or read from a stream.
  std::vector<std::uint8_t> v2 = {'U', 'P', 'S', 'T', 'R', 'C', 'v', '2',
                                  2,   0,   0,   0,   32,  0,   0,   0};
  v2.resize(100'000, 0);
  std::vector<std::uint8_t> noise(100'000);
  std::mt19937 rng(17);
  for (auto& b : noise) {
    b = static_cast<std::uint8_t>(rng());
    if (b == '\n') b = 0;
  }
  const std::string dir = ::testing::TempDir();
  for (const auto& [name, bytes] :
       {std::pair{std::string("ups_old.v2"), v2},
        std::pair{std::string("ups_noise.bin"), noise}}) {
    const std::string path = dir + "/" + name;
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    }
    const std::string label = name;
    const auto expect_short = [&label](const trace_format_error& e) {
      const std::string msg = e.what();
      EXPECT_LT(msg.size(), 128u) << label;
      for (const char c : msg) {
        const auto u = static_cast<unsigned char>(c);
        EXPECT_TRUE(u >= 0x20 && u < 0x7f) << label << ": unprintable byte";
      }
    };
    try {
      (void)open_trace_cursor(path);
      ADD_FAILURE() << name << ": open_trace_cursor accepted a non-trace";
    } catch (const trace_format_error& e) {
      expect_short(e);
    }
    try {
      std::ifstream is(path, std::ios::binary);
      (void)read_trace(is);
      ADD_FAILURE() << name << ": read_trace accepted a non-trace";
    } catch (const trace_format_error& e) {
      expect_short(e);
    }
    std::remove(path.c_str());
  }
}

TEST(trace_io, sorted_file_streams_straight_into_replay) {
  // The RocketFuel-scale workflow: sort once at record time, then replay
  // directly from disk through the stream reader — the full trace is never
  // materialized on the replay side.
  auto r = small_run(false);
  const auto& topology = r.topology;
  const auto builder = [&topology](network& n) { topo::populate(topology, n); };
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  opt.keep_outcomes = true;
  const auto res_mem = core::replay_trace(r.tr, builder, opt);

  sort_by_ingress(r.tr);
  const std::string path = ::testing::TempDir() + "/ups_trace_sorted.txt";
  save_trace(path, r.tr);
  trace_stream_reader reader(path);
  const auto res_stream = core::replay_trace(reader, builder, opt);
  std::remove(path.c_str());

  EXPECT_EQ(res_stream.total, res_mem.total);
  EXPECT_EQ(res_stream.overdue, res_mem.overdue);
  ASSERT_EQ(res_stream.outcomes.size(), res_mem.outcomes.size());
  for (std::size_t i = 0; i < res_mem.outcomes.size(); ++i) {
    EXPECT_EQ(res_stream.outcomes[i].id, res_mem.outcomes[i].id);
    EXPECT_EQ(res_stream.outcomes[i].replay_out,
              res_mem.outcomes[i].replay_out);
  }
}

TEST(trace_io, declared_count_mismatch_is_a_hard_error_in_both_readers) {
  // A header that declares fewer records than the file holds must throw in
  // both readers — the two would otherwise replay different schedules from
  // the same file (the batch loader stopping early, the stream reader
  // declaring EOF early), which is corruption, not slack.
  const auto r = small_run(false);
  ASSERT_GE(r.tr.packets.size(), 2u);
  std::stringstream ss;
  write_trace(ss, r.tr);
  std::string text = ss.str();
  const std::string want = std::to_string(r.tr.packets.size());
  const auto pos = text.find(want);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, want.size(), std::to_string(r.tr.packets.size() - 1));

  {
    std::stringstream lying(text);
    EXPECT_THROW(static_cast<void>(read_trace(lying)), trace_format_error);
  }
  {
    std::stringstream lying(text);
    trace_stream_reader reader(lying);
    EXPECT_THROW(
        [&] {
          while (reader.next() != nullptr) {
          }
        }(),
        trace_format_error);
    // Every declared record was still handed out before the error.
    EXPECT_EQ(reader.read(), r.tr.packets.size() - 1);
  }
}

TEST(trace_io, garbled_or_missing_count_line_is_a_truncated_header) {
  // Line 2 of a v1 trace is its record count. A count line that does not
  // parse, or none at all, must fail in both readers with the same typed
  // error, not load as an empty trace.
  const auto r = small_run(false);
  std::stringstream record;
  write_trace_record(record, r.tr.packets.front());
  for (const std::string& text :
       {"ups-trace v1\nabc\n" + record.str(), std::string("ups-trace v1\n")}) {
    for (const bool batch : {true, false}) {
      std::stringstream is(text);
      try {
        if (batch) {
          (void)read_trace(is);
        } else {
          trace_stream_reader reader(is);
        }
        ADD_FAILURE() << (batch ? "read_trace" : "trace_stream_reader")
                      << " accepted '" << text << "'";
      } catch (const trace_format_error& e) {
        EXPECT_STREQ(e.what(), "trace: truncated header");
      }
    }
  }
}

// Replaces the `index`-th whitespace-separated token of the first record
// line (the third line: magic, count, record) with `value`.
std::string with_first_record_token(std::string text, std::size_t index,
                                    const std::string& value) {
  std::size_t pos = text.find('\n', text.find('\n') + 1) + 1;
  for (std::size_t i = 0; i < index; ++i) pos = text.find(' ', pos) + 1;
  const std::size_t end = text.find_first_of(" \n", pos);
  text.replace(pos, end - pos, value);
  return text;
}

TEST(trace_io, huge_declared_counts_fail_as_truncated_records) {
  // A record's path and hop-time counts come from the file. A count of
  // trillions must end in a typed format error in both readers, without
  // first sizing a vector by it (which used to throw std::bad_alloc).
  const auto r = small_run(true);
  const auto& first = r.tr.packets.front();
  std::stringstream ss;
  write_trace(ss, r.tr);
  const std::string text = ss.str();
  // Tokens: id flow seq size src dst ingress egress queueing flow_size
  // path_len path... departs_len departs...
  constexpr std::size_t kPathLen = 10;
  const std::size_t departs_len = kPathLen + 1 + first.path.size();
  const std::string huge = "4000000000000";
  for (const std::size_t token : {kPathLen, departs_len}) {
    const std::string bad = with_first_record_token(text, token, huge);
    {
      std::stringstream is(bad);
      EXPECT_THROW(static_cast<void>(read_trace(is)), trace_format_error)
          << "token " << token;
    }
    {
      std::stringstream is(bad);
      trace_stream_reader reader(is);
      EXPECT_THROW(static_cast<void>(reader.next()), trace_format_error)
          << "token " << token;
    }
  }
}

TEST(trace_io, forged_record_count_fails_replay_as_a_format_error) {
  // The header's count is unchecked until the records run out, so a
  // keep_outcomes replay must not size its outcomes by it: a count of 10^15
  // ends in the typed truncated-record error, not in std::bad_alloc.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  std::stringstream ss;
  write_trace(ss, r.tr);
  std::string text = ss.str();
  const std::size_t line2 = text.find('\n') + 1;
  text.replace(line2, text.find('\n', line2) - line2, "1000000000000000");
  std::stringstream forged(text);
  trace_stream_reader reader(forged);
  const auto& topology = r.topology;
  const auto builder = [&topology](network& n) { topo::populate(topology, n); };
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  opt.keep_outcomes = true;
  EXPECT_THROW(static_cast<void>(core::replay_trace(reader, builder, opt)),
               trace_format_error);
}

TEST(trace_io, unsorted_cursor_rejected_by_replay) {
  auto r = small_run(false);
  // A recorder-ordered (egress-time) file is not ingress-sorted; feeding it
  // to the replay engine directly must throw, not silently misreplay.
  bool out_of_order = false;
  for (std::size_t i = 1; i < r.tr.packets.size(); ++i) {
    if (r.tr.packets[i].ingress_time < r.tr.packets[i - 1].ingress_time) {
      out_of_order = true;
      break;
    }
  }
  ASSERT_TRUE(out_of_order) << "congested run should egress out of ingress order";
  std::stringstream ss;
  write_trace(ss, r.tr);
  trace_stream_reader reader(ss);
  const auto& topology = r.topology;
  const auto builder = [&topology](network& n) { topo::populate(topology, n); };
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  EXPECT_THROW(static_cast<void>(core::replay_trace(reader, builder, opt)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ups::net
