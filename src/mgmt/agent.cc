#include "src/mgmt/agent.h"

#include <bit>

#include "src/base/logging.h"
#include "src/obs/alerts.h"
#include "src/obs/metrics.h"

namespace espk {

namespace {

void WriteOid(ByteWriter* w, const Oid& oid) {
  w->WriteU16(static_cast<uint16_t>(oid.size()));
  for (uint32_t component : oid) {
    w->WriteU32(component);
  }
}

Result<Oid> ReadOid(ByteReader* r) {
  Result<uint16_t> count = r->ReadU16();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > 64) {
    return DataLossError("implausible OID length");
  }
  Oid oid;
  for (uint16_t i = 0; i < *count; ++i) {
    Result<uint32_t> component = r->ReadU32();
    if (!component.ok()) {
      return component.status();
    }
    oid.push_back(*component);
  }
  return oid;
}

}  // namespace

Bytes MgmtRequest::Serialize() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(op));
  w.WriteU32(request_id);
  w.WriteU32(target);
  WriteOid(&w, oid);
  w.WriteString(value);
  return w.TakeBytes();
}

Result<MgmtRequest> MgmtRequest::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint8_t> op = r.ReadU8();
  Result<uint32_t> request_id =
      op.ok() ? r.ReadU32() : Result<uint32_t>(op.status());
  Result<uint32_t> target =
      request_id.ok() ? r.ReadU32() : Result<uint32_t>(request_id.status());
  if (!target.ok()) {
    return target.status();
  }
  if (*op < 1 || *op > 3) {
    return DataLossError("bad mgmt op");
  }
  Result<Oid> oid = ReadOid(&r);
  if (!oid.ok()) {
    return oid.status();
  }
  Result<std::string> value = r.ReadString();
  if (!value.ok()) {
    return value.status();
  }
  MgmtRequest request;
  request.op = static_cast<MgmtOp>(*op);
  request.request_id = *request_id;
  request.target = *target;
  request.oid = std::move(*oid);
  request.value = std::move(*value);
  return request;
}

Bytes MgmtResponse::Serialize() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MgmtOp::kResponse));
  w.WriteU32(request_id);
  w.WriteU32(responder);
  w.WriteU8(ok ? 1 : 0);
  WriteOid(&w, oid);
  w.WriteString(value);
  return w.TakeBytes();
}

Result<MgmtResponse> MgmtResponse::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint8_t> op = r.ReadU8();
  if (!op.ok() || *op != static_cast<uint8_t>(MgmtOp::kResponse)) {
    return DataLossError("not a mgmt response");
  }
  Result<uint32_t> request_id = r.ReadU32();
  Result<uint32_t> responder =
      request_id.ok() ? r.ReadU32() : Result<uint32_t>(request_id.status());
  Result<uint8_t> ok_flag =
      responder.ok() ? r.ReadU8() : Result<uint8_t>(responder.status());
  if (!ok_flag.ok()) {
    return ok_flag.status();
  }
  Result<Oid> oid = ReadOid(&r);
  if (!oid.ok()) {
    return oid.status();
  }
  Result<std::string> value = r.ReadString();
  if (!value.ok()) {
    return value.status();
  }
  MgmtResponse response;
  response.request_id = *request_id;
  response.responder = *responder;
  response.ok = *ok_flag != 0;
  response.oid = std::move(*oid);
  response.value = std::move(*value);
  return response;
}

Bytes MgmtTrap::Serialize() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MgmtOp::kTrap));
  w.WriteU32(trap_seq);
  w.WriteU32(source);
  w.WriteU8(firing ? 1 : 0);
  w.WriteString(rule);
  // Doubles travel as their IEEE-754 bit pattern; exact round-trip, no
  // locale or formatting ambiguity.
  w.WriteU64(std::bit_cast<uint64_t>(observed));
  w.WriteU64(std::bit_cast<uint64_t>(threshold));
  w.WriteI64(at);
  return w.TakeBytes();
}

Result<MgmtTrap> MgmtTrap::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint8_t> op = r.ReadU8();
  if (!op.ok() || *op != static_cast<uint8_t>(MgmtOp::kTrap)) {
    return DataLossError("not a mgmt trap");
  }
  Result<uint32_t> trap_seq = r.ReadU32();
  Result<uint32_t> source =
      trap_seq.ok() ? r.ReadU32() : Result<uint32_t>(trap_seq.status());
  Result<uint8_t> firing =
      source.ok() ? r.ReadU8() : Result<uint8_t>(source.status());
  if (!firing.ok()) {
    return firing.status();
  }
  Result<std::string> rule = r.ReadString();
  if (!rule.ok()) {
    return rule.status();
  }
  Result<uint64_t> observed = r.ReadU64();
  Result<uint64_t> threshold =
      observed.ok() ? r.ReadU64() : Result<uint64_t>(observed.status());
  Result<int64_t> at =
      threshold.ok() ? r.ReadI64() : Result<int64_t>(threshold.status());
  if (!at.ok()) {
    return at.status();
  }
  MgmtTrap trap;
  trap.trap_seq = *trap_seq;
  trap.source = *source;
  trap.firing = *firing != 0;
  trap.rule = std::move(*rule);
  trap.observed = std::bit_cast<double>(*observed);
  trap.threshold = std::bit_cast<double>(*threshold);
  trap.at = *at;
  return trap;
}

// ------------------------------------------------------- AlertTrapSender --

AlertTrapSender::AlertTrapSender(Transport* nic, AlertEngine* engine)
    : nic_(nic) {
  engine->AddListener([this](const AlertTransition& transition) {
    MgmtTrap trap;
    trap.trap_seq = next_seq_++;
    trap.source = nic_->node_id();
    trap.firing = transition.firing;
    trap.rule = transition.rule;
    trap.observed = transition.observed;
    trap.threshold = transition.threshold;
    trap.at = transition.at;
    (void)nic_->SendMulticast(kMgmtGroup, trap.Serialize());
    ++sent_;
  });
}

// ---------------------------------------------------------- SpeakerAgent --

Oid MibOidName() { return EspkOid({1, 1}); }
Oid MibOidVolume() { return EspkOid({1, 2}); }
Oid MibOidChannel() { return EspkOid({1, 3}); }
Oid MibOidOverride() { return EspkOid({1, 4}); }
Oid MibOidSubscriptions() { return EspkOid({1, 5}); }
Oid MibOidSubscribe() { return EspkOid({1, 6}); }
Oid MibOidUnsubscribe() { return EspkOid({1, 7}); }
Oid MibOidChunksPlayed() { return EspkOid({2, 1}); }
Oid MibOidLateDrops() { return EspkOid({2, 2}); }
Oid MibOidPacketsReceived() { return EspkOid({2, 3}); }

SpeakerAgent::SpeakerAgent(Simulation* sim, Transport* nic,
                           EthernetSpeaker* speaker)
    : sim_(sim), nic_(nic), speaker_(speaker) {
  (void)sim_;
  BuildMib();
  (void)nic_->JoinGroup(kMgmtGroup);
  // The NIC is shared with the speaker; chain the handlers so both see
  // arriving datagrams (the speaker ignores mgmt frames — they fail packet
  // parse — and the agent ignores audio groups).
  nic_->SetReceiveHandler([this](const Datagram& d) {
    if (d.group == kMgmtGroup) {
      OnDatagram(d);
    } else {
      speaker_->HandleDatagram(d);
    }
  });
}

void SpeakerAgent::BuildMib() {
  mib_.Register(MibOidName(),
                {"speaker name", [this] { return speaker_->name(); },
                 nullptr});
  mib_.Register(
      MibOidVolume(),
      {"playback gain",
       [this] { return std::to_string(speaker_->gain()); },
       [this](const std::string& v) {
         try {
           float gain = std::stof(v);
           if (gain < 0.0f || gain > 16.0f) {
             return OutOfRangeError("gain out of [0,16]");
           }
           speaker_->set_gain(gain);
           return OkStatus();
         } catch (const std::exception&) {
           return InvalidArgumentError("not a number: " + v);
         }
       }});
  mib_.Register(
      MibOidChannel(),
      {"tuned multicast group (0 = untuned)",
       [this] {
         return std::to_string(speaker_->tuned_group().value_or(0));
       },
       [this](const std::string& v) {
         try {
           auto group = static_cast<GroupId>(std::stoul(v));
           if (group == 0) {
             return speaker_->tuned_group().has_value() ? speaker_->Untune()
                                                        : OkStatus();
           }
           return speaker_->Tune(group);
         } catch (const std::exception&) {
           return InvalidArgumentError("not a group id: " + v);
         }
       }});
  mib_.Register(
      MibOidOverride(),
      {"central override group (set 0 to restore previous subscriptions)",
       [this] {
         return std::to_string(pre_override_groups_.has_value() ? 1 : 0);
       },
       [this](const std::string& v) {
         try {
           auto group = static_cast<GroupId>(std::stoul(v));
           if (group != 0) {
             if (!pre_override_groups_.has_value()) {
               pre_override_groups_ = speaker_->subscriptions();
             }
             return speaker_->Tune(group);
           }
           if (!pre_override_groups_.has_value()) {
             return OkStatus();  // Nothing to restore.
           }
           std::vector<GroupId> previous = std::move(*pre_override_groups_);
           pre_override_groups_.reset();
           if (previous.empty()) {
             return speaker_->Untune();
           }
           ESPK_RETURN_IF_ERROR(speaker_->Tune(previous.front()));
           for (size_t i = 1; i < previous.size(); ++i) {
             ESPK_RETURN_IF_ERROR(speaker_->Subscribe(previous[i]));
           }
           return OkStatus();
         } catch (const std::exception&) {
           return InvalidArgumentError("not a group id: " + v);
         }
       }});
  mib_.Register(MibOidSubscriptions(),
                {"subscribed multicast groups, comma-joined",
                 [this] {
                   std::string joined;
                   for (GroupId group : speaker_->subscriptions()) {
                     if (!joined.empty()) {
                       joined += ",";
                     }
                     joined += std::to_string(group);
                   }
                   return joined;
                 },
                 nullptr});
  mib_.Register(
      MibOidSubscribe(),
      {"add a subscription (set a group id; get = subscription count)",
       [this] { return std::to_string(speaker_->subscriptions().size()); },
       [this](const std::string& v) {
         try {
           auto group = static_cast<GroupId>(std::stoul(v));
           if (group == 0) {
             return InvalidArgumentError("group 0 is reserved for unicast");
           }
           return speaker_->Subscribe(group);
         } catch (const std::exception&) {
           return InvalidArgumentError("not a group id: " + v);
         }
       }});
  mib_.Register(
      MibOidUnsubscribe(),
      {"drop a subscription (set a group id; get = subscription count)",
       [this] { return std::to_string(speaker_->subscriptions().size()); },
       [this](const std::string& v) {
         try {
           auto group = static_cast<GroupId>(std::stoul(v));
           return speaker_->Unsubscribe(group);
         } catch (const std::exception&) {
           return InvalidArgumentError("not a group id: " + v);
         }
       }});
  mib_.Register(MibOidChunksPlayed(),
                {"chunks played",
                 [this] {
                   return std::to_string(speaker_->stats().chunks_played);
                 },
                 nullptr});
  mib_.Register(MibOidLateDrops(),
                {"chunks dropped for lateness",
                 [this] {
                   return std::to_string(speaker_->stats().late_drops);
                 },
                 nullptr});
  mib_.Register(MibOidPacketsReceived(),
                {"datagrams received",
                 [this] {
                   return std::to_string(speaker_->stats().packets_received);
                 },
                 nullptr});
}

void SpeakerAgent::OnDatagram(const Datagram& datagram) {
  Result<MgmtRequest> request = MgmtRequest::Deserialize(datagram.payload);
  if (!request.ok()) {
    return;  // Response frames and noise also land here; ignore.
  }
  if (request->target != 0 && request->target != nic_->node_id()) {
    return;
  }
  MgmtResponse response;
  response.request_id = request->request_id;
  response.responder = nic_->node_id();
  switch (request->op) {
    case MgmtOp::kGet: {
      Result<std::string> value = mib_.Get(request->oid);
      response.ok = value.ok();
      response.oid = request->oid;
      response.value = value.ok() ? *value : value.status().ToString();
      break;
    }
    case MgmtOp::kSet: {
      Status status = mib_.Set(request->oid, request->value);
      response.ok = status.ok();
      response.oid = request->oid;
      response.value = status.ok() ? request->value : status.ToString();
      break;
    }
    case MgmtOp::kGetNext: {
      Result<Oid> next = mib_.GetNext(request->oid);
      if (next.ok()) {
        Result<std::string> value = mib_.Get(*next);
        response.ok = value.ok();
        response.oid = *next;
        response.value = value.ok() ? *value : value.status().ToString();
      } else {
        response.ok = false;
        response.value = "end of MIB";
      }
      break;
    }
    case MgmtOp::kResponse:
    case MgmtOp::kTrap:
    case MgmtOp::kScrape:      // Served by the ScrapeAgent, not the MIB.
    case MgmtOp::kScrapeChunk:
      return;
  }
  (void)nic_->SendMulticast(kMgmtGroup, response.Serialize());
}

void SpeakerAgent::WatchAlerts(AlertEngine* engine) {
  trap_sender_ = std::make_unique<AlertTrapSender>(nic_, engine);
}

// ----------------------------------------------------------- MgmtConsole --

MgmtConsole::MgmtConsole(Simulation* sim, Transport* nic,
                         MetricsRegistry* registry)
    : sim_(sim), nic_(nic) {
  (void)sim_;
  (void)nic_->JoinGroup(kMgmtGroup);
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
  if (registry != nullptr) {
    traps_received_metric_ =
        registry->GetCounter("trap.received", "SLO alert traps received");
    sequence_gaps_metric_ = registry->GetCounter(
        "trap.sequence_gaps",
        "traps provably lost in transit (per-sender sequence gaps)");
  }
}

void MgmtConsole::Send(MgmtOp op, NodeId target, const Oid& oid,
                       const std::string& value,
                       ResponseCallback on_response) {
  MgmtRequest request;
  request.op = op;
  request.request_id = next_request_id_++;
  request.target = target;
  request.oid = oid;
  request.value = value;
  if (on_response) {
    outstanding_[request.request_id] = std::move(on_response);
  }
  (void)nic_->SendMulticast(kMgmtGroup, request.Serialize());
}

void MgmtConsole::Get(NodeId target, const Oid& oid,
                      ResponseCallback on_response) {
  Send(MgmtOp::kGet, target, oid, "", std::move(on_response));
}

void MgmtConsole::Set(NodeId target, const Oid& oid, const std::string& value,
                      ResponseCallback on_response) {
  Send(MgmtOp::kSet, target, oid, value, std::move(on_response));
}

void MgmtConsole::GetNext(NodeId target, const Oid& oid,
                          ResponseCallback on_response) {
  Send(MgmtOp::kGetNext, target, oid, "", std::move(on_response));
}

void MgmtConsole::OverrideAll(GroupId announcement_group) {
  Set(0, MibOidOverride(), std::to_string(announcement_group), nullptr);
}

void MgmtConsole::RestoreAll() { Set(0, MibOidOverride(), "0", nullptr); }

void MgmtConsole::SetTrapHandler(TrapHandler handler) {
  trap_handler_ = std::move(handler);
}

void MgmtConsole::OnDatagram(const Datagram& datagram) {
  if (datagram.group != kMgmtGroup) {
    return;
  }
  if (datagram.payload.size() > 0 &&
      datagram.payload.data()[0] == static_cast<uint8_t>(MgmtOp::kTrap)) {
    Result<MgmtTrap> trap = MgmtTrap::Deserialize(datagram.payload);
    if (trap.ok()) {
      ++traps_received_;
      if (traps_received_metric_ != nullptr) {
        traps_received_metric_->Increment();
      }
      AccountTrapSequence(*trap);
      trap_log_.push_back(*trap);
      if (trap_handler_) {
        trap_handler_(*trap);
      }
    }
    return;
  }
  Result<MgmtResponse> response =
      MgmtResponse::Deserialize(datagram.payload);
  if (!response.ok()) {
    return;  // Requests echoed on the group; ignore.
  }
  auto it = outstanding_.find(response->request_id);
  if (it != outstanding_.end()) {
    it->second(*response);
  }
}

void MgmtConsole::AccountTrapSequence(const MgmtTrap& trap) {
  uint32_t& last = last_trap_seq_[trap.source];  // 0 for a new sender.
  // Senders count from 1, so a first-ever trap with seq > 1 is itself
  // evidence of loss. Reordered/duplicate traps (seq <= last) can't happen
  // on the FIFO simulated segment; ignore them rather than double-count.
  if (trap.trap_seq > last + 1) {
    const uint64_t missing = trap.trap_seq - last - 1;
    sequence_gaps_ += missing;
    if (sequence_gaps_metric_ != nullptr) {
      sequence_gaps_metric_->Increment(missing);
    }
  }
  if (trap.trap_seq > last) {
    last = trap.trap_seq;
  }
}

}  // namespace espk
