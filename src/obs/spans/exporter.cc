#include "src/obs/spans/exporter.h"

#include <algorithm>
#include <vector>

#include "src/obs/spans/recorder.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

// A packet whose events stop arriving for this long is considered done and
// its root span finalized.
constexpr SimDuration kTraceTtl = Seconds(1);
// Bound on concurrently in-flight packet states.
constexpr size_t kMaxPending = 4096;

}  // namespace

SpanExporter::SpanExporter(Simulation* sim) : sim_(sim) {}

void SpanExporter::RegisterStation(uint32_t node, SpanRecorder* recorder) {
  by_node_[node] = recorder;
}

void SpanExporter::BindStream(uint32_t stream_id, uint32_t send_node,
                              SpanRecorder* recorder) {
  by_stream_[stream_id] = StreamBinding{send_node, recorder};
}

void SpanExporter::Emit(const TraceEvent& event, SpanStage stage,
                        SimTime start, SimTime end, uint8_t flags,
                        bool producer_side) {
  Span span;
  span.trace_id = PacketTraceId(event.stream_id, event.seq);
  span.stream_id = event.stream_id;
  span.seq = event.seq;
  span.stage = stage;
  span.flags = flags;
  span.start = start;
  span.end = end;
  if (producer_side) {
    auto it = by_stream_.find(event.stream_id);
    if (it == by_stream_.end() || it->second.recorder == nullptr) {
      ++unrouted_;
      return;
    }
    span.station = it->second.send_node;
    it->second.recorder->Append(span);
  } else {
    auto it = by_node_.find(event.node);
    if (it == by_node_.end() || it->second == nullptr) {
      ++unrouted_;
      return;
    }
    span.station = event.node;
    it->second->Append(span);
  }
}

void SpanExporter::EmitReceive(const PendingPacket& state,
                               const TraceEvent& event, SimTime end,
                               uint8_t flags) {
  // The per-speaker subtree root spans from the moment the frame won the
  // shared medium (so it parallels its sibling receivers) to this
  // receiver's terminal verdict.
  SimTime start = state.wire_tx;
  if (start < 0) {
    auto rx = state.receivers.find(event.node);
    start = (rx != state.receivers.end() && rx->second.receive >= 0)
                ? rx->second.receive
                : event.at;
  }
  Emit(event, SpanStage::kReceive, start, end, flags, /*producer_side=*/false);
}

void SpanExporter::OnTraceEvent(const TraceEvent& event) {
  auto key = std::pair{event.stream_id, event.seq};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    if (pending_.size() >= kMaxPending) {
      // Force-finalize the oldest key (map order: lowest stream/seq, which
      // on an in-order audio stream IS the oldest packet) to stay bounded.
      auto oldest = pending_.begin();
      auto old_key = oldest->first;
      Finalize(old_key, oldest->second);
      pending_.erase(old_key);
      ++evicted_;
    }
    it = pending_.emplace(key, PendingPacket{}).first;
  }
  PendingPacket& p = it->second;
  if (!p.any) {
    p.first = event.at;
    p.last = event.at;
    p.any = true;
  } else {
    p.first = std::min(p.first, event.at);
    p.last = std::max(p.last, event.at);
  }
  // kWireTx may carry a timestamp in the future (the reserved wire slot of
  // a queued packet); the journey is not idle until that slot has passed,
  // or a deep transmit queue would get its traces TTL-split mid-flight.
  // `recorded` is the tracer-side now() — on the sharded mirror that is the
  // original zone record instant, not the (later) barrier replay instant.
  p.last_activity = std::max(event.recorded, event.at);

  const SimTime at = event.at;
  switch (event.stage) {
    case TraceStage::kVadWrite:
      p.vad_write = at;
      break;
    case TraceStage::kRebroadcastRead:
      if (p.vad_write >= 0) {
        Emit(event, SpanStage::kVadRead, p.vad_write, at, 0, true);
      }
      p.rb_read = at;
      break;
    case TraceStage::kEncode:
      Emit(event, SpanStage::kEncode, p.rb_read >= 0 ? p.rb_read : at, at, 0,
           true);
      break;
    case TraceStage::kMulticastSend:
      p.send = at;
      break;
    case TraceStage::kWireTx:
      if (p.send >= 0) {
        Emit(event, SpanStage::kTxQueue, p.send, at, 0, true);
      }
      p.wire_tx = at;
      break;
    case TraceStage::kQueueDrop: {
      p.flags |= kSpanFlagQueueDrop;
      Emit(event, SpanStage::kTxQueue, p.send >= 0 ? p.send : at, at,
           kSpanFlagQueueDrop, true);
      // A queue drop is the whole packet's terminal fate: no receiver will
      // ever see it, so the journey ends here.
      auto k = it->first;
      Finalize(k, p);
      pending_.erase(k);
      return;
    }
    case TraceStage::kSpeakerReceive:
      p.receivers[event.node].receive = at;
      if (p.wire_tx >= 0) {
        Emit(event, SpanStage::kWire, p.wire_tx, at, 0, false);
      }
      break;
    case TraceStage::kLinkLoss:
      p.flags |= kSpanFlagLinkLoss;
      Emit(event, SpanStage::kWire, p.wire_tx >= 0 ? p.wire_tx : at, at,
           kSpanFlagLinkLoss, false);
      break;
    case TraceStage::kDecodeStart: {
      ReceiverState& rx = p.receivers[event.node];
      Emit(event, SpanStage::kJitterDwell,
           rx.receive >= 0 ? rx.receive : at, at, 0, false);
      rx.decode_start = at;
      break;
    }
    case TraceStage::kDecodeDone: {
      ReceiverState& rx = p.receivers[event.node];
      Emit(event, SpanStage::kDecode,
           rx.decode_start >= 0 ? rx.decode_start : at, at, 0, false);
      rx.decode_done = at;
      break;
    }
    case TraceStage::kPlay: {
      ReceiverState& rx = p.receivers[event.node];
      Emit(event, SpanStage::kRenderSlack,
           rx.decode_done >= 0 ? rx.decode_done : at, at, 0, false);
      EmitReceive(p, event, at, 0);
      break;
    }
    case TraceStage::kDeadlineMiss: {
      p.flags |= kSpanFlagDeadlineMiss;
      ReceiverState& rx = p.receivers[event.node];
      Emit(event, SpanStage::kRenderSlack,
           rx.decode_done >= 0 ? rx.decode_done : at, at,
           kSpanFlagDeadlineMiss, false);
      EmitReceive(p, event, at, kSpanFlagDeadlineMiss);
      break;
    }
  }
}

void SpanExporter::Finalize(std::pair<uint32_t, uint32_t> key,
                            PendingPacket& state) {
  if (!state.any) {
    return;
  }
  TraceEvent synthetic;
  synthetic.stream_id = key.first;
  synthetic.seq = key.second;
  Emit(synthetic, SpanStage::kPacket, state.first, state.last, state.flags,
       /*producer_side=*/true);
}

void SpanExporter::FlushIdle(SimTime now) {
  std::vector<std::pair<uint32_t, uint32_t>> done;
  for (auto& [key, state] : pending_) {
    if (now - state.last_activity >= kTraceTtl) {
      done.push_back(key);
    }
  }
  for (const auto& key : done) {
    auto it = pending_.find(key);
    Finalize(it->first, it->second);
    pending_.erase(it);
  }
}

void SpanExporter::FlushAll() {
  for (auto& [key, state] : pending_) {
    auto k = key;
    Finalize(k, state);
  }
  pending_.clear();
}

}  // namespace espk
