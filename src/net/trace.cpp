#include "net/trace.h"

#include <algorithm>
#include <utility>

namespace ups::net {

namespace {

// Positions of t's records in (ingress_time, position) order. The keys are
// read in one sequential pass and sorted as plain pairs, so no compare looks
// a record up; positions are unique, so this is the stable order by ingress.
std::vector<std::uint32_t> ingress_order(const trace& t) {
  std::vector<std::pair<sim::time_ps, std::uint32_t>> keys;
  keys.reserve(t.packets.size());
  for (const packet_record& r : t.packets) {
    keys.emplace_back(r.ingress_time, static_cast<std::uint32_t>(keys.size()));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> order;
  order.reserve(keys.size());
  for (const auto& k : keys) order.push_back(k.second);
  return order;
}

}  // namespace

trace_ingress_cursor::trace_ingress_cursor(const trace& t) {
  // Positions first, so the sort keys are freed before the pointers are
  // allocated: the peak stays at the keys plus the positions.
  const std::vector<std::uint32_t> positions = ingress_order(t);
  order_.reserve(positions.size());
  for (const std::uint32_t i : positions) order_.push_back(&t.packets[i]);
}

const packet_record* trace_ingress_cursor::next() {
  if (pos_ >= order_.size()) return nullptr;
  return order_[pos_++];
}

void sort_by_ingress(trace& t) {
  std::deque<packet_record> sorted;
  for (const std::uint32_t i : ingress_order(t)) {
    sorted.push_back(std::move(t.packets[i]));
  }
  t.packets = std::move(sorted);
}

trace_recorder::trace_recorder(network& net, bool with_hop_times) {
  net.set_record_hops(with_hop_times);
  net.hooks().on_egress = [this](const packet& p, sim::time_ps now) {
    record(p, now, /*drop_hop=*/-1, drop_kind::buffer);
  };
  // Chain (not replace) on_drop: traffic sources hook it too. Drops before
  // the ingress router (host-NIC overflow) have no i(p) and are skipped —
  // they never entered the paper's schedule.
  auto prev = net.hooks().on_drop;
  net.hooks().on_drop = [this, prev = std::move(prev)](
                            const packet& p, node_id at, sim::time_ps now,
                            drop_kind kind) {
    if (prev) prev(p, at, now, kind);
    if (p.ingress_time < 0) return;
    // Wire drops fire in transmitted() (hop already advanced past the
    // dropping router); buffer drops fire at the router's output queue with
    // hop advanced on delivery. Both land on hop - 1.
    record(p, now, static_cast<std::int32_t>(p.hop) - 1, kind);
  };
}

void trace_recorder::record(const packet& p, sim::time_ps now,
                            std::int32_t drop_hop, drop_kind kind) {
  packet_record r;
  r.id = p.id;
  r.flow_id = p.flow_id;
  r.seq_in_flow = p.seq_in_flow;
  r.size_bytes = p.size_bytes;
  r.src_host = p.src_host;
  r.dst_host = p.dst_host;
  r.path = p.path;
  r.ingress_time = p.ingress_time;
  r.queueing_delay = p.queueing_delay;
  r.flow_size_bytes = p.flow_size_bytes;
  if (drop_hop >= 0) {
    r.drop_hop = drop_hop;
    r.dropped_kind = kind;
    r.drop_time = now;
  } else {
    r.egress_time = now;
  }
  if (p.stall_count > 0) {
    r.stall_hop = p.stall_hop;
    r.stall_count = p.stall_count;
    r.stall_time = p.stall_time;
  }
  r.hop_departs = p.hop_departs;  // empty unless the network records hops
  result_.packets.push_back(std::move(r));
}

}  // namespace ups::net
