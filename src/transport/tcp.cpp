#include "transport/tcp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ups::transport {

tcp_manager::tcp_manager(net::network& net, tcp_config cfg)
    : net_(net), cfg_(cfg), hooked_(net.node_count(), false) {}

void tcp_manager::hook_host(net::node_id host) {
  if (hooked_[host]) return;
  hooked_[host] = true;
  net_.set_host_handler(
      host, [this](net::packet_ptr p) { on_host_packet(std::move(p)); });
}

void tcp_manager::start_flow(std::uint64_t flow_id, net::node_id src,
                             net::node_id dst, std::uint64_t size_bytes,
                             sim::time_ps at, header_stamper stamper) {
  if (flows_.contains(flow_id)) {
    throw std::invalid_argument("tcp_manager: duplicate flow id " +
                                std::to_string(flow_id));
  }
  auto f = std::make_unique<flow>(*this);
  f->id = flow_id;
  f->src = src;
  f->dst = dst;
  f->size = size_bytes;
  f->stamper = std::move(stamper);
  f->cwnd = cfg_.init_cwnd_pkts;
  f->ssthresh = cfg_.init_ssthresh_pkts;
  f->rto = cfg_.rto_init;
  flow& fl = *f;
  flows_.emplace(flow_id, std::move(f));
  hook_host(src);
  hook_host(dst);
  ++active_;
  net_.sim().schedule_at(at, fl.start_event);
}

void tcp_manager::on_start(flow& f) {
  f.started = net_.sim().now();
  pump(f);
  arm_rto(f);
}

void tcp_manager::pump(flow& f) {
  const auto cwnd_bytes =
      static_cast<std::uint64_t>(std::max(1.0, f.cwnd) * cfg_.mss);
  while (f.next_to_send < f.size &&
         f.next_to_send - f.highest_acked < cwnd_bytes) {
    emit_segment(f, f.next_to_send, false);
    f.next_to_send +=
        std::min<std::uint64_t>(cfg_.mss, f.size - f.next_to_send);
  }
}

void tcp_manager::emit_segment(flow& f, std::uint64_t off,
                               bool retransmission) {
  const auto len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.mss, f.size - off));
  net::packet_ptr p = net_.pool().make();
  p->id = next_packet_id_++;
  p->flow_id = f.id;
  p->kind = net::packet_kind::data;
  p->size_bytes = len + cfg_.header_bytes;
  p->src_host = f.src;
  p->dst_host = f.dst;
  p->tseq = off;
  p->seq_in_flow = static_cast<std::uint32_t>(off / cfg_.mss);
  p->flow_size_bytes = f.size;
  p->remaining_flow_bytes = f.size - f.highest_acked;
  if (f.stamper) f.stamper(*p);
  if (!retransmission && !f.timing) {
    f.timing = true;
    f.timing_seq = off + len;
    f.timing_start = net_.sim().now();
  }
  if (retransmission && f.timing && off < f.timing_seq) {
    f.timing = false;  // Karn's rule: never time retransmitted data
  }
  net_.send_from_host(std::move(p));
}

void tcp_manager::on_host_packet(net::packet_ptr p) {
  auto it = flows_.find(p->flow_id);
  if (it == flows_.end()) return;  // stale packet from a finished flow
  flow& f = *it->second;
  if (p->kind == net::packet_kind::data) {
    on_data(f, *p);
  } else {
    on_ack(f, p->tack);
  }
}

void tcp_manager::on_data(flow& f, const net::packet& p) {
  const std::uint64_t start = p.tseq;
  const std::uint64_t end = start + (p.size_bytes - cfg_.header_bytes);
  if (end > f.rcv_next) {
    if (start <= f.rcv_next) {
      f.rcv_next = end;
      // Absorb any out-of-order segments now contiguous.
      auto it = f.ooo.begin();
      while (it != f.ooo.end() && it->first <= f.rcv_next) {
        f.rcv_next = std::max(f.rcv_next, it->second);
        it = f.ooo.erase(it);
      }
    } else {
      f.ooo[start] = std::max(f.ooo[start], end);
    }
  }
  send_ack(f);
}

void tcp_manager::send_ack(flow& f) {
  net::packet_ptr a = net_.pool().make();
  a->id = next_packet_id_++;
  a->flow_id = f.id;
  a->kind = net::packet_kind::ack;
  a->size_bytes = cfg_.ack_bytes;
  a->src_host = f.dst;
  a->dst_host = f.src;
  a->tack = f.rcv_next;
  // ACKs carry zero slack / best priority: never the bottleneck.
  a->slack = 0;
  a->priority = 0;
  a->flow_size_bytes = 0;
  a->remaining_flow_bytes = 0;
  net_.send_from_host(std::move(a));
}

void tcp_manager::on_ack(flow& f, std::uint64_t ackno) {
  if (f.done) return;
  if (ackno > f.highest_acked) {
    const std::uint64_t delta = ackno - f.highest_acked;
    f.highest_acked = ackno;
    f.dup_acks = 0;
    if (f.next_to_send < f.highest_acked) f.next_to_send = f.highest_acked;
    // RTT sample (single-timer scheme).
    if (f.timing && ackno >= f.timing_seq) {
      const sim::time_ps sample = net_.sim().now() - f.timing_start;
      f.timing = false;
      if (!f.have_rtt) {
        f.srtt = sample;
        f.rttvar = sample / 2;
        f.have_rtt = true;
      } else {
        const sim::time_ps err = std::abs(sample - f.srtt);
        f.rttvar = (3 * f.rttvar + err) / 4;
        f.srtt = (7 * f.srtt + sample) / 8;
      }
      f.rto = std::clamp(f.srtt + 4 * f.rttvar, cfg_.rto_min, cfg_.rto_max);
    }
    // Congestion window growth.
    const double acked_pkts =
        static_cast<double>(delta) / static_cast<double>(cfg_.mss);
    if (f.cwnd < f.ssthresh) {
      f.cwnd += acked_pkts;  // slow start
    } else {
      f.cwnd += acked_pkts / f.cwnd;  // congestion avoidance
    }
    f.cwnd = std::min(f.cwnd, cfg_.max_cwnd_pkts);
    if (f.highest_acked >= f.size) {
      complete(f);
      return;
    }
    arm_rto(f);
    pump(f);
    return;
  }
  // Duplicate ACK.
  ++f.dup_acks;
  if (f.dup_acks == cfg_.dupack_threshold &&
      f.highest_acked >= f.recovery_point) {
    f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
    f.cwnd = f.ssthresh;
    f.recovery_point = f.next_to_send;
    emit_segment(f, f.highest_acked, true);
  }
}

void tcp_manager::arm_rto(flow& f) {
  net_.sim().cancel(f.rto_timer);
  net_.sim().schedule_in(f.rto, f.rto_timer);
}

void tcp_manager::on_rto(flow& f) {
  if (f.done || f.highest_acked >= f.size) return;
  f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
  f.cwnd = 1.0;
  f.dup_acks = 0;
  f.recovery_point = f.next_to_send;
  f.next_to_send = f.highest_acked;  // go-back-N
  f.rto = std::min(f.rto * 2, cfg_.rto_max);
  f.timing = false;
  pump(f);
  arm_rto(f);
}

void tcp_manager::complete(flow& f) {
  f.done = true;
  net_.sim().cancel(f.rto_timer);
  completions_.push_back(
      fct_sample{f.id, f.size, f.started, net_.sim().now()});
  assert(active_ > 0);
  --active_;
  if (on_complete_) on_complete_(completions_.back());
}

std::uint64_t tcp_manager::delivered_bytes(std::uint64_t flow_id) const {
  const auto it = flows_.find(flow_id);
  return it == flows_.end() ? 0 : it->second->rcv_next;
}

}  // namespace ups::transport
