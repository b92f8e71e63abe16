// Simplified TCP Reno over the simulated network.
//
// §3.1 and §3.3 of the paper run TCP flows through the schedulers; this is
// the minimal loss-based transport that exercises those experiments: slow
// start, AIMD congestion avoidance, triple-duplicate-ACK fast retransmit,
// and an RFC 6298-style retransmission timer with go-back-N recovery.
// Segments are MSS-sized with a 40-byte header; ACKs are 40-byte packets
// with zero slack/priority (they always win the scheduler, which matches
// the paper's switch-scheduling focus on data packets).
//
// Each flow embeds two kernel events (sim::event): its start, and its
// retransmit timer, which every new ACK cancels and files again further
// ahead; the kernel compacts the stale heap entries this leaves (see
// sim/simulator.h). The kernel holds pointers into the flows, so a
// tcp_manager must outlive every later run of its simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::transport {

struct tcp_config {
  std::uint32_t mss = 1460;
  std::uint32_t header_bytes = 40;
  std::uint32_t ack_bytes = 40;
  double init_cwnd_pkts = 10.0;
  double init_ssthresh_pkts = 1e9;
  // Receive-window stand-in: bounds queue build-up in lossless scenarios
  // (the fairness experiment runs with effectively unbounded buffers).
  double max_cwnd_pkts = 1e9;
  sim::time_ps rto_min = 10 * sim::kMillisecond;
  sim::time_ps rto_init = 100 * sim::kMillisecond;
  sim::time_ps rto_max = 4 * sim::kSecond;
  int dupack_threshold = 3;
};

// Applied to every data segment at emission; the hook where the §3 slack
// heuristics (or priority stamping) initialize the scheduling header.
using header_stamper = std::function<void(net::packet&)>;

struct fct_sample {
  std::uint64_t flow_id = 0;
  std::uint64_t size_bytes = 0;
  sim::time_ps start = 0;
  sim::time_ps completion = 0;
  [[nodiscard]] sim::time_ps fct() const noexcept { return completion - start; }
};

class tcp_manager {
 public:
  tcp_manager(net::network& net, tcp_config cfg);

  // Starts a size-limited flow at time `at` (must be >= now). Throws
  // std::invalid_argument if `flow_id` was started before.
  void start_flow(std::uint64_t flow_id, net::node_id src, net::node_id dst,
                  std::uint64_t size_bytes, sim::time_ps at,
                  header_stamper stamper = {});

  // Invoked when a flow's last byte is acknowledged (after the fct_sample
  // is recorded). Closed-loop sources use this to launch the next request.
  void set_on_complete(std::function<void(const fct_sample&)> cb) {
    on_complete_ = std::move(cb);
  }

  [[nodiscard]] const std::vector<fct_sample>& completions() const noexcept {
    return completions_;
  }
  // Receiver-side in-order bytes (fairness throughput accounting).
  [[nodiscard]] std::uint64_t delivered_bytes(std::uint64_t flow_id) const;
  [[nodiscard]] std::uint64_t flows_in_progress() const noexcept {
    return active_;
  }

 private:
  struct flow {
    explicit flow(tcp_manager& owner) noexcept : tcp(owner) {}
    void start() { tcp.on_start(*this); }
    void rto_expired() { tcp.on_rto(*this); }

    tcp_manager& tcp;
    std::uint64_t id = 0;
    net::node_id src = net::kInvalidNode;
    net::node_id dst = net::kInvalidNode;
    std::uint64_t size = 0;
    header_stamper stamper;
    sim::time_ps started = 0;
    bool done = false;

    // sender
    std::uint64_t next_to_send = 0;
    std::uint64_t highest_acked = 0;
    double cwnd = 0;
    double ssthresh = 0;
    int dup_acks = 0;
    std::uint64_t recovery_point = 0;  // suppress repeated fast retransmits
    // Flows are never erased, so both events stay at one address. The
    // start is filed by start_flow; the timer is armed (filed) while data
    // is outstanding.
    sim::member_event<flow, &flow::start> start_event{*this};
    sim::member_event<flow, &flow::rto_expired> rto_timer{*this};
    sim::time_ps rto = 0;
    sim::time_ps srtt = 0;
    sim::time_ps rttvar = 0;
    bool have_rtt = false;
    std::uint64_t timing_seq = 0;  // single-timer RTT sampling
    sim::time_ps timing_start = 0;
    bool timing = false;

    // receiver
    std::uint64_t rcv_next = 0;
    std::map<std::uint64_t, std::uint64_t> ooo;  // out-of-order [start,end)
  };

  void hook_host(net::node_id host);
  void on_start(flow& f);
  void on_host_packet(net::packet_ptr p);
  void pump(flow& f);
  void emit_segment(flow& f, std::uint64_t off, bool retransmission);
  void on_ack(flow& f, std::uint64_t ackno);
  void on_data(flow& f, const net::packet& p);
  void send_ack(flow& f);
  void arm_rto(flow& f);
  void on_rto(flow& f);
  void complete(flow& f);

  net::network& net_;
  tcp_config cfg_;
  std::unordered_map<std::uint64_t, std::unique_ptr<flow>> flows_;
  std::vector<bool> hooked_;
  std::vector<fct_sample> completions_;
  std::function<void(const fct_sample&)> on_complete_;
  std::uint64_t next_packet_id_ = (1ull << 48);  // distinct from UDP ids
  std::uint64_t active_ = 0;
};

}  // namespace ups::transport
