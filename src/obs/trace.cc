#include "src/obs/trace.h"

#include <sstream>

#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace espk {

namespace {
// Byte marks outlive their usefulness if the consumer stalls; bound them so
// a wedged pipeline cannot grow the tracer without limit.
constexpr size_t kMaxMarksPerStage = 4096;
}  // namespace

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kVadWrite:
      return "vad_write";
    case TraceStage::kRebroadcastRead:
      return "rebroadcast_read";
    case TraceStage::kEncode:
      return "encode";
    case TraceStage::kMulticastSend:
      return "multicast_send";
    case TraceStage::kSpeakerReceive:
      return "speaker_receive";
    case TraceStage::kDecodeDone:
      return "decode_done";
    case TraceStage::kPlay:
      return "play";
    case TraceStage::kDeadlineMiss:
      return "deadline_miss";
    case TraceStage::kQueueDrop:
      return "queue_drop";
    case TraceStage::kLinkLoss:
      return "link_loss";
    case TraceStage::kWireTx:
      return "wire_tx";
    case TraceStage::kDecodeStart:
      return "decode_start";
  }
  return "?";
}

PacketTracer::PacketTracer(Simulation* sim, size_t capacity)
    : sim_(sim), capacity_(capacity > 0 ? capacity : 1) {}

void PacketTracer::Push(TraceEvent event) {
  event.recorded = sim_->now();
  Ingest(event);
}

void PacketTracer::Ingest(const TraceEvent& event) {
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(event);
  ++recorded_;
  if (observer_ != nullptr) {
    observer_->OnTraceEvent(ring_.back());
  }
}

void PacketTracer::Record(uint32_t stream_id, uint32_t seq, TraceStage stage,
                          uint32_t node) {
  Push(TraceEvent{stream_id, seq, stage, node, sim_->now()});
}

void PacketTracer::RecordAt(uint32_t stream_id, uint32_t seq,
                            TraceStage stage, uint32_t node, SimTime at) {
  Push(TraceEvent{stream_id, seq, stage, node, at});
}

void PacketTracer::NoteBytes(uint32_t stream_id, TraceStage stage,
                             size_t bytes) {
  StreamStage& state =
      byte_state_[{stream_id, static_cast<uint8_t>(stage)}];
  state.cumulative += bytes;
  if (state.marks.size() >= kMaxMarksPerStage) {
    state.marks.pop_front();
  }
  state.marks.push_back(ByteMark{state.cumulative, sim_->now()});
}

void PacketTracer::AttributeBytes(uint32_t stream_id, TraceStage stage,
                                  uint64_t byte_end, uint32_t seq) {
  auto it = byte_state_.find({stream_id, static_cast<uint8_t>(stage)});
  if (it == byte_state_.end()) {
    return;
  }
  std::deque<ByteMark>& marks = it->second.marks;
  // Discard marks fully inside this packet; the mark covering byte_end tells
  // us when the packet's last byte passed the stage. A mark ending exactly
  // at byte_end is consumed; one spanning past it stays for the next packet.
  while (!marks.empty() && marks.front().byte_end < byte_end) {
    marks.pop_front();
  }
  if (marks.empty()) {
    return;  // Offset not covered (stream reset or mark overflow).
  }
  SimTime at = marks.front().at;
  if (marks.front().byte_end == byte_end) {
    marks.pop_front();
  }
  Push(TraceEvent{stream_id, seq, stage, 0, at});
}

void PacketTracer::ResetStream(uint32_t stream_id) {
  for (auto it = byte_state_.begin(); it != byte_state_.end();) {
    if (it->first.first == stream_id) {
      it = byte_state_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<TraceEvent> PacketTracer::EventsFor(uint32_t stream_id,
                                                uint32_t seq) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : ring_) {
    if (event.stream_id == stream_id && event.seq == seq) {
      out.push_back(event);
    }
  }
  return out;
}

RunningStats PacketTracer::StageLatencyMs(TraceStage from,
                                          TraceStage to) const {
  // First `from` time per packet, then one sample per `to` occurrence (a
  // multicast packet reaches every listener; each receive/play counts).
  std::map<std::pair<uint32_t, uint32_t>, SimTime> starts;
  for (const TraceEvent& event : ring_) {
    if (event.stage == from) {
      starts.emplace(std::pair{event.stream_id, event.seq}, event.at);
    }
  }
  RunningStats stats;
  for (const TraceEvent& event : ring_) {
    if (event.stage != to) {
      continue;
    }
    auto it = starts.find({event.stream_id, event.seq});
    if (it != starts.end()) {
      stats.Add(ToMillisecondsF(event.at - it->second));
    }
  }
  return stats;
}

void RegisterTracerMetrics(std::vector<const PacketTracer*> tracers,
                           MetricsRegistry* registry) {
  registry->GetGauge(
      "trace.events_recorded", [tracers] {
        uint64_t total = 0;
        for (const PacketTracer* tracer : tracers) total += tracer->recorded();
        return static_cast<double>(total);
      },
      "Packet-trace events recorded since start");
  registry->GetGauge(
      "trace.events_dropped", [tracers] {
        uint64_t total = 0;
        for (const PacketTracer* tracer : tracers) total += tracer->dropped();
        return static_cast<double>(total);
      },
      "Packet-trace events evicted from the ring (overrun)");
  registry->GetGauge(
      "trace.ring_size", [tracers] {
        size_t total = 0;
        for (const PacketTracer* tracer : tracers) {
          total += tracer->events().size();
        }
        return static_cast<double>(total);
      },
      "Packet-trace events currently retained");
}

std::string PacketTracer::Dump(uint32_t stream_id, uint32_t seq) const {
  std::ostringstream os;
  os << "stream " << stream_id << " seq " << seq << ":\n";
  for (const TraceEvent& event : EventsFor(stream_id, seq)) {
    os << "  " << ToMillisecondsF(event.at) << " ms  "
       << TraceStageName(event.stage);
    if (event.node != 0) {
      os << " (node " << event.node << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace espk
