#include "src/lan/segment.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/trace.h"
#include "src/sim/shard.h"

namespace espk {

EthernetSegment::EthernetSegment(Simulation* sim, const SegmentConfig& config)
    : sim_(sim), config_(config), prng_(config.seed) {}

std::unique_ptr<SimNic> EthernetSegment::CreateNic() {
  auto nic = std::make_unique<SimNic>(this, next_node_++);
  nics_.push_back(nic.get());
  return nic;
}

void EthernetSegment::Detach(SimNic* nic) {
  nics_.erase(std::remove(nics_.begin(), nics_.end(), nic), nics_.end());
  for (GroupId group : nic->groups_) {
    Vacate(&members_[group], nic->node_);
  }
}

void EthernetSegment::EnableSharding(ShardGroup* shards, int home_shard) {
  assert(shards != nullptr);
  assert(shards->lookahead() <= config_.base_delay &&
         "epoch lookahead must not exceed the minimum delivery latency");
  shards_ = shards;
  home_shard_ = home_shard;
  zone_sinks_.assign(static_cast<size_t>(shards->shard_count()), nullptr);
  zone_batches_.resize(static_cast<size_t>(shards->shard_count()));
}

void EthernetSegment::RegisterZoneSink(int shard, ZoneSink* sink) {
  assert(shards_ != nullptr && "EnableSharding first");
  zone_sinks_.at(static_cast<size_t>(shard)) = sink;
}

void EthernetSegment::AssignZone(SimNic* nic, int shard, int member) {
  assert(shards_ != nullptr && "EnableSharding first");
  assert(zone_sinks_.at(static_cast<size_t>(shard)) != nullptr &&
         "RegisterZoneSink first");
  nic->zone_shard_ = shard;
  nic->zone_member_ = member;
  for (GroupId group : nic->groups_) {
    Receiver& entry = *Position(&members_[group], nic->node_);
    entry.zone_shard = shard;
    entry.zone_member = member;
  }
}

std::vector<EthernetSegment::Receiver>::iterator EthernetSegment::Position(
    MemberList* list, NodeId node) {
  return std::lower_bound(
      list->entries.begin(), list->entries.end(), node,
      [](const Receiver& entry, NodeId id) { return entry.node < id; });
}

void EthernetSegment::Vacate(MemberList* list, NodeId node) {
  Position(list, node)->nic = nullptr;
  if (++list->vacant * 2 > list->entries.size()) {
    std::erase_if(list->entries,
                  [](const Receiver& entry) { return entry.nic == nullptr; });
    list->vacant = 0;
  }
}

void EthernetSegment::ApplyMembership(SimNic* nic, GroupId group, bool join) {
  MemberList& list = members_[group];
  if (!join) {
    if (nic->groups_.erase(group) > 0) {
      Vacate(&list, nic->node_);
    }
    return;
  }
  if (!nic->groups_.insert(group).second) {
    return;
  }
  const Receiver entry{nic->node_, nic->zone_shard_, nic->zone_member_, nic};
  if (list.entries.empty() || list.entries.back().node < nic->node_) {
    list.entries.push_back(entry);  // Joins in creation order append.
    return;
  }
  auto it = Position(&list, nic->node_);
  if (it != list.entries.end() && it->node == nic->node_) {
    *it = entry;  // Re-joined before its vacant entry was dropped.
    --list.vacant;
  } else {
    list.entries.insert(it, entry);
  }
}

void EthernetSegment::RequestMembership(SimNic* nic, GroupId group,
                                        bool join) {
  auto apply = [nic, group, join] {
    nic->segment_->ApplyMembership(nic, group, join);
  };
  const bool off_home = shards_ != nullptr && nic->zone_shard_ >= 0 &&
                        nic->zone_shard_ != home_shard_;
  if (off_home && shards_->in_epoch()) {
    // Zone shard asking mid-epoch: marshal the mutation to the home shard,
    // where Transmit reads membership. Deferring by at least the lookahead
    // keeps the Post legal; matching that deferral on the home shard is why
    // determinism across zone counts needs join_latency >= lookahead.
    Simulation* src_sim = shards_->sim(nic->zone_shard_);
    const SimTime at =
        src_sim->now() + std::max(config_.join_latency, shards_->lookahead());
    shards_->Post(nic->zone_shard_, home_shard_, at, std::move(apply));
    return;
  }
  if (config_.join_latency == 0) {
    apply();
    return;
  }
  sim_->ScheduleAt(sim_->now() + config_.join_latency, std::move(apply));
}

size_t EthernetSegment::GroupMemberCount(GroupId group) const {
  const auto it = members_.find(group);
  return it == members_.end()
             ? 0
             : it->second.entries.size() - it->second.vacant;
}

void EthernetSegment::Transmit(const Datagram& datagram) {
  ++stats_.packets_offered;
  const size_t wire_bytes = datagram.payload.size() + config_.overhead_bytes;
  const auto tx_time = static_cast<SimDuration>(
      static_cast<double>(wire_bytes) * 8.0 / config_.bandwidth_bps *
      static_cast<double>(kSecond));

  SimTime now = sim_->now();
  SimTime start = std::max(now, medium_free_at_);
  // Tail drop: refuse packets that would queue too far behind.
  const auto queued_bytes = static_cast<double>(start - now) *
                            config_.bandwidth_bps / 8.0 /
                            static_cast<double>(kSecond);
  if (queued_bytes > static_cast<double>(config_.tx_queue_limit)) {
    ++stats_.packets_dropped_queue;
    if (tracer_ != nullptr && datagram.trace.valid) {
      tracer_->Record(datagram.trace.stream_id, datagram.trace.seq,
                      TraceStage::kQueueDrop, datagram.source);
    }
    return;
  }
  if (tracer_ != nullptr && datagram.trace.valid &&
      tracer_->span_stages_enabled()) {
    // Span-plane stage: the instant the frame actually wins the medium.
    // start - now is the tx-queue wait the critical-path analyzer
    // attributes to the sending station. Recorded only for the span
    // exporter so tracer-only runs keep their event mix (and ring
    // pressure) unchanged.
    tracer_->RecordAt(datagram.trace.stream_id, datagram.trace.seq,
                      TraceStage::kWireTx, datagram.source, start);
  }
  medium_free_at_ = start + tx_time;
  ++stats_.packets_sent;
  stats_.bytes_on_wire += wire_bytes;
  wire_meter_.Record(now, wire_bytes);

  const SimTime wire_done = medium_free_at_;
  // No local loopback on either path: the sender knows what it sent.
  if (datagram.group != 0) {
    // Multicast walks the group's member list. It holds the joined NICs in
    // creation order, as a scan of every NIC would meet them, so loss and
    // jitter draw the same PRNG values for the same receivers.
    const auto it = members_.find(datagram.group);
    if (it != members_.end()) {
      for (const Receiver& member : it->second.entries) {
        if (member.nic != nullptr && member.node != datagram.source) {
          Fanout(datagram, wire_done, member);
        }
      }
    }
  } else {
    for (SimNic* nic : nics_) {
      if (nic->node_ != datagram.source &&
          (datagram.destination == nic->node_ ||
           datagram.destination == kBroadcastNode)) {
        Fanout(datagram, wire_done,
               Receiver{nic->node_, nic->zone_shard_, nic->zone_member_, nic});
      }
    }
  }
  if (shards_ != nullptr) {
    FlushZoneBatches(datagram);
  }
}

void EthernetSegment::Fanout(const Datagram& datagram, SimTime wire_done,
                             const Receiver& to) {
  ++stats_.deliveries;
  if (config_.loss_probability > 0.0 &&
      prng_.NextBool(config_.loss_probability)) {
    ++stats_.deliveries_lost;
    if (tracer_ != nullptr && datagram.trace.valid) {
      tracer_->Record(datagram.trace.stream_id, datagram.trace.seq,
                      TraceStage::kLinkLoss, to.node);
    }
    return;
  }
  SimTime arrival = wire_done + config_.base_delay;
  if (config_.jitter > 0) {
    arrival += static_cast<SimDuration>(
        prng_.NextBelow(static_cast<uint64_t>(config_.jitter)));
  }
  if (shards_ != nullptr && to.zone_shard >= 0) {
    ZoneBatch& batch = zone_batches_[static_cast<size_t>(to.zone_shard)];
    if (batch.entries.empty() || arrival < batch.min_arrival) {
      batch.min_arrival = arrival;
    }
    batch.entries.push_back(ZoneDeliveryEntry{to.zone_member, arrival});
    return;
  }
  DeliverTo(to.nic, datagram, arrival);
}

void EthernetSegment::FlushZoneBatches(const Datagram& datagram) {
  for (size_t shard = 0; shard < zone_batches_.size(); ++shard) {
    ZoneBatch& batch = zone_batches_[shard];
    if (batch.entries.empty()) {
      continue;
    }
    // One message per (packet, zone): the zone's members share one payload
    // reference and one scheduled event instead of one each.
    ZoneSink* sink = zone_sinks_[shard];
    const size_t size = batch.entries.size();
    shards_->Post(home_shard_, static_cast<int>(shard), batch.min_arrival,
                  [sink, d = datagram,
                   entries = std::move(batch.entries)]() mutable {
                    sink->DeliverBatch(d, std::move(entries));
                  });
    // The next packet to this zone most likely reaches as many members.
    batch.entries = std::vector<ZoneDeliveryEntry>();
    batch.entries.reserve(size);
  }
}

void EthernetSegment::DeliverTo(SimNic* nic, const Datagram& datagram,
                                SimTime arrival) {
  // Copying the Datagram into the event shares the payload slice: N
  // receivers of one multicast hold N references to one allocation.
  sim_->ScheduleAt(arrival, [nic, datagram] { nic->HandleArrival(datagram); });
}

SimNic::SimNic(EthernetSegment* segment, NodeId node)
    : segment_(segment), node_(node) {}

SimNic::~SimNic() { segment_->Detach(this); }

Status SimNic::JoinGroup(GroupId group) {
  if (group == 0) {
    return InvalidArgumentError("group 0 is reserved for unicast");
  }
  desired_groups_.insert(group);
  segment_->RequestMembership(this, group, /*join=*/true);
  return OkStatus();
}

Status SimNic::LeaveGroup(GroupId group) {
  if (desired_groups_.erase(group) == 0) {
    return NotFoundError("not a member of group " + std::to_string(group));
  }
  segment_->RequestMembership(this, group, /*join=*/false);
  return OkStatus();
}

Status SimNic::SendMulticast(GroupId group, BufferSlice payload,
                             TraceTag trace) {
  if (group == 0) {
    return InvalidArgumentError("group 0 is reserved for unicast");
  }
  Datagram d;
  d.group = group;
  d.source = node_;
  d.payload = std::move(payload);
  d.trace = trace;
  segment_->Transmit(d);
  return OkStatus();
}

Status SimNic::SendUnicast(NodeId destination, BufferSlice payload,
                           TraceTag trace) {
  Datagram d;
  d.group = 0;
  d.source = node_;
  d.destination = destination;
  d.payload = std::move(payload);
  d.trace = trace;
  segment_->Transmit(d);
  return OkStatus();
}

void SimNic::SetReceiveHandler(ReceiveHandler handler) {
  handler_ = std::move(handler);
}

void SimNic::HandleArrival(const Datagram& datagram) {
  ++packets_received_;
  if (handler_) {
    handler_(datagram);
  }
}

}  // namespace espk
