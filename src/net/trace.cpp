#include "net/trace.h"

#include <algorithm>
#include <numeric>

namespace ups::net {

trace_ingress_cursor::trace_ingress_cursor(const trace& t) : trace_(&t) {
  order_.resize(t.packets.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&t](std::uint32_t a, std::uint32_t b) {
                     return t.packets[a].ingress_time <
                            t.packets[b].ingress_time;
                   });
}

const packet_record* trace_ingress_cursor::next() {
  if (pos_ >= order_.size()) return nullptr;
  return &trace_->packets[order_[pos_++]];
}

void sort_by_ingress(trace& t) {
  std::stable_sort(t.packets.begin(), t.packets.end(),
                   [](const packet_record& a, const packet_record& b) {
                     return a.ingress_time < b.ingress_time;
                   });
}

trace_recorder::trace_recorder(network& net, bool with_hop_times)
    : with_hop_times_(with_hop_times) {
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
  if (with_hop_times_) r.hop_departs = p.hop_departs;
  result_.packets.push_back(std::move(r));
}

}  // namespace ups::net
