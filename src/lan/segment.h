// Simulated Ethernet segment: a shared medium with finite bandwidth, wire
// overhead, and configurable impairments (loss, jitter, reordering). The
// paper's protocol assumes a "friendly" LAN — low error rates, ample
// bandwidth, well-behaved packet arrival (§2.3) and uniform multicast
// delivery (§3.2). The simulation makes those assumptions explicit and
// violable: experiments can degrade the segment far beyond anything the
// authors saw on the Drexel campus network and watch where the design
// bends.
#ifndef SRC_LAN_SEGMENT_H_
#define SRC_LAN_SEGMENT_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/prng.h"
#include "src/base/rate.h"
#include "src/lan/transport.h"
#include "src/sim/simulation.h"

namespace espk {

class PacketTracer;
class ShardGroup;

// One member of a zone batch: which zone member the packet reached and
// when. `arrival` differs across entries only when jitter is configured;
// the batch itself is delivered at the earliest entry's arrival and the
// sink defers later entries itself.
struct ZoneDeliveryEntry {
  int member = 0;
  SimTime arrival = 0;
};

// Receiver of zone-batched deliveries (implemented by SpeakerZone in
// src/speaker — declared here so the lan layer needs no speaker
// dependency). DeliverBatch runs on the zone's shard at the earliest
// arrival in `entries`; the payload slice is shared, not copied, on every
// shard.
class ZoneSink {
 public:
  virtual ~ZoneSink() = default;
  virtual void DeliverBatch(const Datagram& datagram,
                            std::vector<ZoneDeliveryEntry> entries) = 0;
};

struct SegmentConfig {
  // 100 Mbps fast Ethernet by default; the paper's problem case is a legacy
  // 10 Mbps or wireless link (§2.2).
  double bandwidth_bps = 100e6;
  // Per-packet wire overhead: Ethernet framing + preamble/IFG + IP + UDP.
  size_t overhead_bytes = 66;
  // One-way propagation + switch latency.
  SimDuration base_delay = Microseconds(50);
  // Random extra delivery delay, uniform in [0, jitter]. Per receiver, so
  // it can violate the "everyone hears a multicast at the same instant"
  // assumption when set high.
  SimDuration jitter = 0;
  // Independent per-receiver packet loss probability.
  double loss_probability = 0.0;
  // Transmit queue cap: packets that would queue more than this many bytes
  // behind the current transmission are dropped (tail drop).
  size_t tx_queue_limit = 256 * 1024;
  // IGMP-ish latency between a membership request (JoinGroup/LeaveGroup)
  // and the change taking effect on segment fan-out — the first-hop
  // switch's snooping/report delay. 0 = immediate (the historical
  // behaviour). On a sharded run, membership changes requested from a
  // zone shard are additionally deferred by at least the epoch lookahead
  // so they apply on the home shard past the barrier; set join_latency >=
  // lookahead to make subscription churn bit-identical across shardings.
  SimDuration join_latency = 0;
  uint64_t seed = 12345;
};

struct SegmentStats {
  uint64_t packets_offered = 0;
  uint64_t packets_sent = 0;        // Made it onto the wire.
  uint64_t packets_dropped_queue = 0;
  uint64_t deliveries = 0;          // Per-receiver handoffs.
  uint64_t deliveries_lost = 0;     // Per-receiver random loss.
  uint64_t bytes_on_wire = 0;       // Payload + overhead, sent packets.
};

class SimNic;

class EthernetSegment {
 public:
  EthernetSegment(Simulation* sim, const SegmentConfig& config);

  // Creates a station attached to this segment. NodeIds are assigned
  // sequentially starting at 1.
  std::unique_ptr<SimNic> CreateNic();

  Simulation* sim() { return sim_; }
  const SegmentConfig& config() const { return config_; }
  const SegmentStats& stats() const { return stats_; }

  // Average offered load on the wire since the first packet, bits/second.
  double average_utilization_bps() const { return wire_meter_.average_bps(); }

  // Serialization reads the config at send time, so squeezing bandwidth
  // mid-run backs up the transmit queue exactly like a congested segment —
  // the deterministic fault the health-layer scenarios use.
  void set_bandwidth_bps(double bps) { config_.bandwidth_bps = bps; }

  // Optional: traced packets (Datagram::trace.valid) that die here — tail
  // drop or per-receiver loss — get a terminal PacketTracer stage instead of
  // silently vanishing from their lifecycle.
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  // How many stations have joined `group` — what a first-hop router knows
  // from IGMP, and what MSNIP would let a server ask for (§4.3).
  size_t GroupMemberCount(GroupId group) const;

  // ------------------------------------------------------ zone routing --
  // The runtime (src/sim/shard.h) puts every speaker of an
  // EthernetSpeakerSystem in a zone, each zone living on its own shard (a
  // one-zone system has one shard). The segment itself (and every sender)
  // stays on `home_shard`; deliveries to zone-assigned NICs are batched —
  // ONE message per (packet, zone) carrying the shared payload slice plus a
  // per-member entry list — instead of one event per receiver. Every other
  // NIC (producers, consoles, recorders, boot clients, and speakers built on
  // a bare segment) gets its own delivery event, handed to its receive
  // handler. A multicast finds its receivers on the group's member list,
  // which holds the joined NICs in creation order with each one's zone
  // identity inline; unicast and broadcast scan every NIC. Loss and jitter
  // are drawn per receiver in NIC creation order on the home shard either
  // way, so the PRNG stream does not depend on the zone count. Requires
  // shards->lookahead() <= base_delay (asserted): that is what makes every
  // arrival land at or after the epoch barrier.
  void EnableSharding(ShardGroup* shards, int home_shard);
  // Installs the sink that receives zone batches for `shard`.
  void RegisterZoneSink(int shard, ZoneSink* sink);
  // Routes `nic` through the zone path: deliveries go to shard `shard`'s
  // sink tagged with `member` instead of the NIC's receive handler. Zone
  // NICs may join/leave groups mid-run: the membership check runs on the
  // home shard, so a request from the zone's shard is marshalled there via
  // the epoch barrier and takes effect after max(join_latency, lookahead)
  // (see RequestMembership below).
  void AssignZone(SimNic* nic, int shard, int member);

 private:
  friend class SimNic;

  // One receiver as fan-out sees it: the NIC with its node id and zone
  // identity inline, so walking a group's members reads no NIC object.
  struct Receiver {
    NodeId node = 0;
    int zone_shard = -1;  // -1: not in a zone; delivered via DeliverTo.
    int zone_member = -1;
    SimNic* nic = nullptr;  // Null: a vacant entry (see MemberList).
  };
  // A group's effective members in NIC creation order, which is node id
  // order (ids are assigned sequentially). A leave or a destroyed NIC
  // vacates its entry rather than shifting the list; a re-join fills the
  // entry again, and the vacant entries are dropped together once they
  // make up half the list, so neither churn nor tearing a fleet down is
  // quadratic. Joins in creation order append.
  struct MemberList {
    std::vector<Receiver> entries;
    size_t vacant = 0;
  };

  // Applies a join/leave on the NIC's effective membership set, honoring
  // the join-latency knob and — for zone NICs off the home shard during an
  // epoch — marshalling the mutation to the home shard (where Transmit
  // reads membership) via the barrier, deferred by at least the lookahead.
  void RequestMembership(SimNic* nic, GroupId group, bool join);
  // The mutation itself, on the home shard: the NIC's set and the group's
  // member list change together.
  void ApplyMembership(SimNic* nic, GroupId group, bool join);
  // Where `node`'s entry is in `list`, or belongs (the first entry whose
  // node is not below it).
  static std::vector<Receiver>::iterator Position(MemberList* list,
                                                  NodeId node);
  static void Vacate(MemberList* list, NodeId node);
  void Transmit(const Datagram& datagram);
  // Loss, jitter and hand-off for one receiver of a sent packet.
  void Fanout(const Datagram& datagram, SimTime wire_done,
              const Receiver& to);
  void DeliverTo(SimNic* nic, const Datagram& datagram, SimTime arrival);
  void FlushZoneBatches(const Datagram& datagram);
  void Detach(SimNic* nic);

  // Per-Transmit accumulator for one zone's deliveries of one packet.
  struct ZoneBatch {
    std::vector<ZoneDeliveryEntry> entries;
    SimTime min_arrival = 0;
  };

  Simulation* sim_;
  SegmentConfig config_;
  SegmentStats stats_;
  PacketTracer* tracer_ = nullptr;
  RateMeter wire_meter_;
  Prng prng_;
  NodeId next_node_ = 1;
  SimTime medium_free_at_ = 0;  // CSMA-free abstraction: FIFO serialization.
  std::vector<SimNic*> nics_;
  // Multicast fan-out's view of membership, mutated with each NIC's
  // effective set (on the home shard) and read by Transmit.
  std::unordered_map<GroupId, MemberList> members_;
  ShardGroup* shards_ = nullptr;  // Null: no zones; every NIC via DeliverTo.
  int home_shard_ = 0;
  std::vector<ZoneSink*> zone_sinks_;  // Indexed by shard.
  std::vector<ZoneBatch> zone_batches_;  // Scratch, reused per Transmit.
};

class SimNic : public Transport {
 public:
  SimNic(EthernetSegment* segment, NodeId node);
  ~SimNic() override;

  NodeId node_id() const override { return node_; }
  // Membership requests validate and record intent synchronously (double
  // join is idempotent; leaving a never-requested group is NotFound), then
  // take effect on fan-out after the segment's join_latency.
  Status JoinGroup(GroupId group) override;
  Status LeaveGroup(GroupId group) override;
  using Transport::SendMulticast;
  using Transport::SendUnicast;
  Status SendMulticast(GroupId group, BufferSlice payload,
                       TraceTag trace) override;
  Status SendUnicast(NodeId destination, BufferSlice payload,
                     TraceTag trace) override;
  void SetReceiveHandler(ReceiveHandler handler) override;

  // Effective membership — what fan-out sees. Lags requested membership by
  // the segment's join_latency (and, sharded, by the epoch barrier).
  bool IsJoined(GroupId group) const { return groups_.count(group) > 0; }

  // Receive-side accounting for experiments.
  uint64_t packets_received() const { return packets_received_; }

  // Counts an arrival the zone sink handed straight to the member speaker,
  // so receive-side accounting stays truthful on the batched path.
  void NoteZoneDelivery() { ++packets_received_; }
  // Counts an arrival and hands it to the receive handler: the segment's
  // delivery to NICs outside a zone, and a zone sink's for datagrams its
  // member speaker has no session for (management, announce, stale
  // traffic after a leave).
  void HandleArrival(const Datagram& datagram);

 private:
  friend class EthernetSegment;

  EthernetSegment* segment_;
  NodeId node_;
  // Effective membership, mutated only on the segment's home shard, together
  // with the segment's member lists that Transmit reads. `desired_groups_`
  // is the caller-side view, updated synchronously at request time for
  // join/leave validation; the two sets coincide whenever join_latency is 0
  // on an unsharded run.
  std::set<GroupId> groups_;
  std::set<GroupId> desired_groups_;
  ReceiveHandler handler_;
  uint64_t packets_received_ = 0;
  // Zone identity when routed through the zone path (-1 = not in a zone).
  int zone_shard_ = -1;
  int zone_member_ = -1;
};

}  // namespace espk

#endif  // SRC_LAN_SEGMENT_H_
