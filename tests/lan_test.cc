#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/base/prng.h"
#include "src/lan/segment.h"
#include "src/lan/udp_transport.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

TEST(SegmentTest, MulticastReachesOnlyJoinedNics) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  auto outsider = segment.CreateNic();

  ASSERT_TRUE(member->JoinGroup(42).ok());
  int member_got = 0;
  int outsider_got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++member_got; });
  outsider->SetReceiveHandler([&](const Datagram&) { ++outsider_got; });

  ASSERT_TRUE(sender->SendMulticast(42, {1, 2, 3}).ok());
  sim.Run();
  EXPECT_EQ(member_got, 1);
  EXPECT_EQ(outsider_got, 0);
}

TEST(SegmentTest, SenderDoesNotHearItsOwnMulticast) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  ASSERT_TRUE(sender->JoinGroup(7).ok());
  int got = 0;
  sender->SetReceiveHandler([&](const Datagram&) { ++got; });
  ASSERT_TRUE(sender->SendMulticast(7, {1}).ok());
  sim.Run();
  EXPECT_EQ(got, 0);
}

TEST(SegmentTest, LeaveGroupStopsDelivery) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  ASSERT_TRUE(member->JoinGroup(42).ok());
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.Run();
  ASSERT_TRUE(member->LeaveGroup(42).ok());
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);
  EXPECT_FALSE(member->LeaveGroup(42).ok());  // Already left.
}

TEST(SegmentTest, MembershipChurnMidStream) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });

  ASSERT_TRUE(member->JoinGroup(42).ok());
  EXPECT_EQ(segment.GroupMemberCount(42), 1u);
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);

  ASSERT_TRUE(member->LeaveGroup(42).ok());
  EXPECT_EQ(segment.GroupMemberCount(42), 0u);
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);  // Missed while out.

  ASSERT_TRUE(member->JoinGroup(42).ok());  // Re-join mid-stream.
  EXPECT_EQ(segment.GroupMemberCount(42), 1u);
  ASSERT_TRUE(sender->SendMulticast(42, {3}).ok());
  sim.Run();
  EXPECT_EQ(got, 2);
}

TEST(SegmentTest, DoubleJoinIsIdempotent) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  ASSERT_TRUE(nic->JoinGroup(9).ok());
  ASSERT_TRUE(nic->JoinGroup(9).ok());
  EXPECT_EQ(segment.GroupMemberCount(9), 1u);
  ASSERT_TRUE(nic->LeaveGroup(9).ok());
  EXPECT_EQ(segment.GroupMemberCount(9), 0u);
  EXPECT_FALSE(nic->LeaveGroup(9).ok());
}

TEST(SegmentTest, JoinLatencyDefersMembership) {
  Simulation sim;
  SegmentConfig config;
  config.join_latency = Milliseconds(5);
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });

  // A join takes effect join_latency later; traffic sent before that fans
  // out past the not-yet-member.
  ASSERT_TRUE(member->JoinGroup(42).ok());
  EXPECT_FALSE(member->IsJoined(42));
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.RunUntil(Milliseconds(10));
  EXPECT_TRUE(member->IsJoined(42));
  EXPECT_EQ(got, 0);
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(got, 1);

  // Leaving is deferred the same way: the NIC keeps hearing the group until
  // the latency elapses.
  ASSERT_TRUE(member->LeaveGroup(42).ok());
  EXPECT_TRUE(member->IsJoined(42));
  ASSERT_TRUE(sender->SendMulticast(42, {3}).ok());
  sim.RunUntil(Milliseconds(30));
  EXPECT_FALSE(member->IsJoined(42));
  EXPECT_EQ(got, 2);
  ASSERT_TRUE(sender->SendMulticast(42, {4}).ok());
  sim.Run();
  EXPECT_EQ(got, 2);
}

TEST(SegmentTest, UnicastReachesOnlyDestination) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto a = segment.CreateNic();
  auto b = segment.CreateNic();
  auto c = segment.CreateNic();
  int b_got = 0;
  int c_got = 0;
  b->SetReceiveHandler([&](const Datagram& d) {
    ++b_got;
    EXPECT_EQ(d.source, a->node_id());
  });
  c->SetReceiveHandler([&](const Datagram&) { ++c_got; });
  ASSERT_TRUE(a->SendUnicast(b->node_id(), {9}).ok());
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST(SegmentTest, DeliveryDelayedByBaseDelayAndTransmission) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e6;      // 1 MB/s.
  config.base_delay = Microseconds(100);
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  SimTime arrival = -1;
  receiver->SetReceiveHandler([&](const Datagram&) { arrival = sim.now(); });
  Bytes payload(1000);  // 1 ms on the wire at 1 MB/s.
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  sim.Run();
  EXPECT_EQ(arrival, Milliseconds(1) + Microseconds(100));
}

TEST(SegmentTest, SharedMediumSerializesTransmissions) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e6;
  config.base_delay = 0;
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  std::vector<SimTime> arrivals;
  receiver->SetReceiveHandler([&](const Datagram&) {
    arrivals.push_back(sim.now());
  });
  // Two back-to-back 1 ms packets: second must arrive 1 ms after the first.
  Bytes payload(1000);
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Milliseconds(1));
}

TEST(SegmentTest, TxQueueOverflowDropsPackets) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e3;  // 1 KB/s: trivially saturated.
  config.tx_queue_limit = 2000;
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, Bytes(1000)).ok());
  }
  sim.Run();
  EXPECT_GT(segment.stats().packets_dropped_queue, 0u);
  EXPECT_LT(segment.stats().packets_sent, 50u);
  EXPECT_EQ(segment.stats().packets_offered, 50u);
}

TEST(SegmentTest, RandomLossDropsApproximatelyTheConfiguredFraction) {
  Simulation sim;
  SegmentConfig config;
  config.loss_probability = 0.2;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  int got = 0;
  receiver->SetReceiveHandler([&](const Datagram&) { ++got; });
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, {1, 2}).ok());
  }
  sim.Run();
  EXPECT_NEAR(got, 1600, 80);
  EXPECT_NEAR(static_cast<double>(segment.stats().deliveries_lost), 400.0,
              80.0);
}

TEST(SegmentTest, JitterViolatesUniformDelivery) {
  // With jitter, two receivers hear the same multicast at different times —
  // the §3.2 assumption is violable on demand.
  Simulation sim;
  SegmentConfig config;
  config.jitter = Milliseconds(10);
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto r1 = segment.CreateNic();
  auto r2 = segment.CreateNic();
  ASSERT_TRUE(r1->JoinGroup(1).ok());
  ASSERT_TRUE(r2->JoinGroup(1).ok());
  std::vector<SimTime> t1;
  std::vector<SimTime> t2;
  r1->SetReceiveHandler([&](const Datagram&) { t1.push_back(sim.now()); });
  r2->SetReceiveHandler([&](const Datagram&) { t2.push_back(sim.now()); });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, {7}).ok());
  }
  sim.Run();
  ASSERT_EQ(t1.size(), 50u);
  ASSERT_EQ(t2.size(), 50u);
  bool any_differ = false;
  for (size_t i = 0; i < 50; ++i) {
    if (t1[i] != t2[i]) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(SegmentTest, WithoutJitterDeliveryIsUniform) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto r1 = segment.CreateNic();
  auto r2 = segment.CreateNic();
  ASSERT_TRUE(r1->JoinGroup(1).ok());
  ASSERT_TRUE(r2->JoinGroup(1).ok());
  SimTime t1 = -1;
  SimTime t2 = -2;
  r1->SetReceiveHandler([&](const Datagram&) { t1 = sim.now(); });
  r2->SetReceiveHandler([&](const Datagram&) { t2 = sim.now(); });
  ASSERT_TRUE(sender->SendMulticast(1, {7}).ok());
  sim.Run();
  EXPECT_EQ(t1, t2);  // "Everybody receives a multicast packet at the same
                      // time" (§3.2).
}

TEST(SegmentTest, WireUtilizationAccountsOverhead) {
  Simulation sim;
  SegmentConfig config;
  config.overhead_bytes = 66;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  ASSERT_TRUE(sender->SendMulticast(1, Bytes(934)).ok());
  sim.Run();
  EXPECT_EQ(segment.stats().bytes_on_wire, 1000u);
}

TEST(SegmentTest, GroupZeroIsReserved) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  EXPECT_FALSE(nic->JoinGroup(0).ok());
  EXPECT_FALSE(nic->SendMulticast(0, {1}).ok());
}

// The fan-out contract segment.h states: loss and jitter are drawn per
// receiver, in NIC creation order, from one PRNG seeded with the segment's
// seed. Membership churns in a scrambled order between sends (joins, leaves,
// re-joins, destroyed NICs, the sender itself joined), and every NIC must
// receive exactly what a reference drawing from its own Prng over the
// joined NICs in creation order predicts.
TEST(SegmentTest, FanoutDrawsLossAndJitterInCreationOrder) {
  constexpr size_t kNics = 12;
  constexpr GroupId kGroup = 5;
  Simulation sim;
  SegmentConfig config;
  config.loss_probability = 0.3;
  config.jitter = Microseconds(400);
  config.bandwidth_bps = 8e6;  // A 1-byte payload takes 1 us on the wire.
  config.overhead_bytes = 0;
  config.seed = 77;
  EthernetSegment segment(&sim, config);

  struct Arrival {
    int send = 0;
    SimTime at = 0;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<std::unique_ptr<SimNic>> nics;
  std::vector<std::vector<Arrival>> got(kNics);
  for (size_t i = 0; i < kNics; ++i) {
    nics.push_back(segment.CreateNic());
    nics.back()->SetReceiveHandler([&got, &sim, i](const Datagram& d) {
      got[i].push_back(Arrival{d.payload[0], sim.now()});
    });
  }
  SimNic* sender = nics[0].get();  // Joins too; never hears itself.

  Prng reference(config.seed);
  std::vector<bool> joined(kNics, false);
  std::vector<std::vector<Arrival>> expected(kNics);
  uint64_t expected_deliveries = 0;
  uint64_t expected_lost = 0;
  int sends = 0;
  auto send = [&] {
    const SimTime wire_done = sim.now() + Microseconds(1);
    for (size_t i = 1; i < kNics; ++i) {
      if (nics[i] == nullptr || !joined[i]) {
        continue;
      }
      ++expected_deliveries;
      if (reference.NextBool(config.loss_probability)) {
        ++expected_lost;
        continue;
      }
      const auto jitter = static_cast<SimDuration>(
          reference.NextBelow(static_cast<uint64_t>(config.jitter)));
      expected[i].push_back(
          Arrival{sends, wire_done + config.base_delay + jitter});
    }
    ASSERT_TRUE(
        sender->SendMulticast(kGroup, {static_cast<uint8_t>(sends)}).ok());
    ++sends;
    sim.RunUntil(sim.now() + Milliseconds(1));  // Every arrival, idle medium.
  };
  auto members = [&] {
    size_t n = 0;
    for (size_t i = 0; i < kNics; ++i) {
      n += nics[i] != nullptr && joined[i] ? 1 : 0;
    }
    return n;
  };

  Prng script(2024);
  int destroyed = 0;
  for (int step = 0; step < 240; ++step) {
    const size_t i = script.NextBelow(kNics);
    const uint64_t action = script.NextBelow(10);
    if (nics[i] != nullptr) {
      if (action == 0 && i != 0 && destroyed < 6) {
        nics[i].reset();
        ++destroyed;
      } else if (action <= 3 && joined[i]) {
        ASSERT_TRUE(nics[i]->LeaveGroup(kGroup).ok());
        joined[i] = false;
      } else if (action > 3 && !joined[i]) {
        ASSERT_TRUE(nics[i]->JoinGroup(kGroup).ok());
        joined[i] = true;
      }
    }
    ASSERT_EQ(segment.GroupMemberCount(kGroup), members()) << "step " << step;
    if (step % 4 == 3) {
      send();
    }
  }

  EXPECT_EQ(destroyed, 6);
  EXPECT_EQ(segment.stats().deliveries, expected_deliveries);
  EXPECT_EQ(segment.stats().deliveries_lost, expected_lost);
  EXPECT_GT(expected_lost, 0u);
  for (size_t i = 0; i < kNics; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "nic " << i;
  }
  EXPECT_TRUE(got[0].empty());
}

// Zone identity assigned after a join still routes the NIC's deliveries
// through its zone's sink, tagged with its member index.
TEST(SegmentTest, ZoneAssignedAfterJoinReceivesThroughItsSink) {
  class Sink : public ZoneSink {
   public:
    void DeliverBatch(const Datagram&,
                      std::vector<ZoneDeliveryEntry> entries) override {
      for (const ZoneDeliveryEntry& entry : entries) {
        members.push_back(entry.member);
      }
    }
    std::vector<int> members;
  };
  ShardGroup::Options options;
  options.shards = 2;
  ShardGroup shards(options);
  EthernetSegment segment(shards.sim(0), SegmentConfig{});
  segment.EnableSharding(&shards, 0);
  Sink sinks[2];
  segment.RegisterZoneSink(0, &sinks[0]);
  segment.RegisterZoneSink(1, &sinks[1]);
  auto sender = segment.CreateNic();
  auto a = segment.CreateNic();
  auto b = segment.CreateNic();
  ASSERT_TRUE(a->JoinGroup(3).ok());
  ASSERT_TRUE(b->JoinGroup(3).ok());
  segment.AssignZone(b.get(), 1, 7);
  segment.AssignZone(a.get(), 0, 4);
  SimNic* from = sender.get();
  shards.sim(0)->ScheduleAt(Milliseconds(1), [from] {
    (void)from->SendMulticast(3, {1});
  });
  shards.RunUntil(Milliseconds(2));
  EXPECT_EQ(sinks[0].members, std::vector<int>{4});
  EXPECT_EQ(sinks[1].members, std::vector<int>{7});
}

// ----------------------------------------------------------- UDP backend --

TEST(UdpTransportTest, LoopbackMulticastRoundTrip) {
  UdpTransportConfig config;
  config.port = 49100;
  UdpMulticastTransport sender(1, config);
  UdpMulticastTransport receiver(2, config);
  if (!sender.status().ok() || !receiver.status().ok()) {
    GTEST_SKIP() << "UDP sockets unavailable in this environment: "
                 << sender.status().ToString();
  }
  ASSERT_TRUE(receiver.JoinGroup(5).ok());
  Bytes got;
  receiver.SetReceiveHandler([&](const Datagram& d) { got = d.payload.ToBytes(); });
  ASSERT_TRUE(sender.SendMulticast(5, {10, 20, 30}).ok());
  // Poll a few times; loopback delivery is fast but not synchronous.
  for (int i = 0; i < 100 && got.empty(); ++i) {
    receiver.Poll();
    usleep(1000);
  }
  if (got.empty()) {
    GTEST_SKIP() << "loopback multicast not routable here";
  }
  EXPECT_EQ(got, Bytes({10, 20, 30}));
}

TEST(UdpTransportTest, UnicastRoundTrip) {
  UdpTransportConfig config;
  config.port = 49200;
  UdpMulticastTransport a(1, config);
  UdpMulticastTransport b(2, config);
  if (!a.status().ok() || !b.status().ok()) {
    GTEST_SKIP() << "UDP sockets unavailable in this environment";
  }
  Bytes got;
  b.SetReceiveHandler([&](const Datagram& d) { got = d.payload.ToBytes(); });
  ASSERT_TRUE(a.SendUnicast(2, {1, 2, 3, 4}).ok());
  for (int i = 0; i < 100 && got.empty(); ++i) {
    b.Poll();
    usleep(1000);
  }
  EXPECT_EQ(got, Bytes({1, 2, 3, 4}));
}

}  // namespace
}  // namespace espk
