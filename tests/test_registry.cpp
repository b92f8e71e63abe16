// Tests for the scheduler registry: name round-trips, factory products,
// and the mixed FQ/FIFO+ assignment of Table 1's last row.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/basic.h"

namespace ups::core {
namespace {

TEST(registry, name_round_trip) {
  for (int i = 0; i <= static_cast<int>(sched_kind::omniscient); ++i) {
    const auto k = static_cast<sched_kind>(i);
    EXPECT_EQ(sched_kind_from(to_string(k)), k) << to_string(k);
  }
}

TEST(registry, unknown_name_throws) {
  EXPECT_THROW(static_cast<void>(sched_kind_from("definitely-not-a-sched")),
               std::invalid_argument);
}

TEST(registry, every_kind_instantiates) {
  sim::simulator sim;
  net::network net(sim);
  const net::port_info info{0, 0, 1, net::node_kind::router, sim::kGbps};
  for (int i = 0; i <= static_cast<int>(sched_kind::omniscient); ++i) {
    const auto k = static_cast<sched_kind>(i);
    auto factory = make_factory(k, 1, &net);
    auto s = factory(info);
    ASSERT_NE(s, nullptr) << to_string(k);
    EXPECT_TRUE(s->empty());
  }
}

TEST(registry, edf_without_network_throws) {
  const net::port_info info{0, 0, 1, net::node_kind::router, sim::kGbps};
  auto factory = make_factory(sched_kind::edf, 1, nullptr);
  EXPECT_THROW(factory(info), std::invalid_argument);
}

TEST(registry, only_preemptive_lstf_supports_preemption) {
  sim::simulator sim;
  net::network net(sim);
  const net::port_info info{0, 0, 1, net::node_kind::router, sim::kGbps};
  EXPECT_FALSE(
      make_factory(sched_kind::lstf, 1, &net)(info)->supports_preemption());
  EXPECT_TRUE(make_factory(sched_kind::lstf_preemptive, 1, &net)(info)
                  ->supports_preemption());
  EXPECT_FALSE(
      make_factory(sched_kind::fifo, 1, &net)(info)->supports_preemption());
}

TEST(registry, fq_fifo_plus_mix_gives_hosts_fifo) {
  // The mixed kind applies FQ/FIFO+ to routers only; host NICs get FIFO.
  sim::simulator sim;
  net::network net(sim);
  auto factory = make_factory(sched_kind::fq_fifo_plus_mix, 1, &net);
  const net::port_info host_port{0, 5, 1, net::node_kind::host, sim::kGbps};
  auto s = factory(host_port);
  // FIFO: keeps arrival order regardless of header contents.
  net::packet_ptr p1 = net::make_packet();
  p1->id = 1;
  p1->queueing_delay = sim::kSecond;  // would reorder under FIFO+
  net::packet_ptr p2 = net::make_packet();
  p2->id = 2;
  s->enqueue(std::move(p1), 0);
  s->enqueue(std::move(p2), 0);
  EXPECT_EQ(s->dequeue(0)->id, 1u);
}

TEST(registry, random_schedulers_seeded_per_port) {
  sim::simulator sim;
  net::network net(sim);
  auto factory = make_factory(sched_kind::random, 7, &net);
  // Two ports get independent streams; the same port id across two
  // factories with the same seed gets the same stream.
  auto fill = [](net::scheduler& s) {
    for (std::uint64_t i = 1; i <= 16; ++i) {
      net::packet_ptr p = net::make_packet();
      p->id = i;
      s.enqueue(std::move(p), 0);
    }
  };
  auto drain = [](net::scheduler& s) {
    std::vector<std::uint64_t> ids;
    while (auto p = s.dequeue(0)) ids.push_back(p->id);
    return ids;
  };
  const net::port_info a{1, 0, 1, net::node_kind::router, sim::kGbps};
  const net::port_info b{2, 1, 0, net::node_kind::router, sim::kGbps};
  auto s1 = factory(a);
  auto s2 = factory(b);
  auto s3 = make_factory(sched_kind::random, 7, &net)(a);
  fill(*s1);
  fill(*s2);
  fill(*s3);
  const auto o1 = drain(*s1);
  const auto o2 = drain(*s2);
  const auto o3 = drain(*s3);
  EXPECT_NE(o1, o2);
  EXPECT_EQ(o1, o3);
}

}  // namespace
}  // namespace ups::core
