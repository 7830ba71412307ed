// Per-packet trace pipeline: a bounded ring of lifecycle events that lets
// end-to-end latency be attributed per stage. Every audio packet's journey —
// VAD write, rebroadcaster read, encode, multicast send, per-speaker
// receive, decode, play or deadline miss — is recorded against its
// (stream_id, seq) identity on the simulated clock.
//
// The first two stages are byte-stream stages: when the application writes
// into the VAD and when the rebroadcaster reads the master device, no packet
// sequence number exists yet. Those stages are recorded as byte-offset marks
// (NoteBytes); when the rebroadcaster later cuts packet `seq` ending at
// cumulative byte N, AttributeBytes resolves "when did byte N pass this
// stage" into a proper per-packet event. Attribution is exact as long as the
// byte stream flows uninterrupted; a config change flushes staged bytes and
// the rebroadcaster calls ResetStream, accepting a brief attribution gap.
//
// An EthernetSpeakerSystem has one recording tracer per zone (producers and
// the segment record into zone 0's) on every zone count, plus one mirror
// that its ZoneCollector (src/obs/zone_collector.h) feeds through Ingest at
// epoch barriers. The mirror is what the span plane, the health plane, and
// system.tracer() readers see.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/stats.h"
#include "src/base/time_types.h"

namespace espk {

class Simulation;

enum class TraceStage : uint8_t {
  kVadWrite = 0,       // Audio committed into the VAD master stream.
  kRebroadcastRead,    // Rebroadcaster read the bytes from /dev/vadmN.
  kEncode,             // Packet cut and codec run.
  kMulticastSend,      // Handed to the LAN.
  kSpeakerReceive,     // Arrived at a speaker's NIC.
  kDecodeDone,         // Speaker's serialized decode stage finished.
  kPlay,               // Rendered at (or within epsilon of) its deadline.
  kDeadlineMiss,       // Thrown away: past deadline + epsilon (§3.2).
  kQueueDrop,          // Tail-dropped at the segment's transmit queue.
  kLinkLoss,           // Lost on the wire for one receiver (random loss).
  // Span-plane stages, recorded only while an observer is attached (the
  // causal span exporter needs them to split tx-queue wait from wire time
  // and jitter-buffer dwell from decode):
  kWireTx,             // Transmission actually began on the shared medium.
  kDecodeStart,        // Speaker's serialized decode stage began.
};

std::string_view TraceStageName(TraceStage stage);

// The packet's trace identity: one id for the whole cross-station journey of
// (stream_id, seq). Carried in TraceTag alongside every traced datagram and
// stamped on spans and histogram exemplars, so an exemplar resolves to the
// retained span tree that produced it.
constexpr uint64_t PacketTraceId(uint32_t stream_id, uint32_t seq) {
  return (static_cast<uint64_t>(stream_id) << 32) | seq;
}

struct TraceEvent {
  uint32_t stream_id = 0;
  uint32_t seq = 0;
  TraceStage stage = TraceStage::kVadWrite;
  // NIC node id where the stage ran; 0 when the stage has no station (e.g.
  // the kernel-side VAD write).
  uint32_t node = 0;
  SimTime at = 0;
  // Sim time the event was recorded. Equal to `at` except for the RecordAt
  // stages (kWireTx, kDecodeStart), whose `at` lies in the future. A
  // system's ZoneCollector merges zone rings in (recorded, zone, ring
  // position) order — a strict total order, since per-ring positions are
  // unique — so the merged mirror is deterministic.
  SimTime recorded = 0;
};

// Receives every event the tracer records or ingests. The span exporter
// implements this to derive duration spans from the instant stream. In a
// system the observer sits on the barrier-merged mirror, never on a
// recording zone tracer; components consult the recording tracer's
// span_stages_enabled() to decide whether the extra span-plane stages
// (kWireTx, kDecodeStart, exemplars) are worth recording at all, which keeps
// the spans-off fast path identical to a tracer-only build.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
};

class PacketTracer {
 public:
  // `capacity` bounds the event ring; the oldest events are overwritten
  // (and counted in dropped()) once it fills.
  explicit PacketTracer(Simulation* sim, size_t capacity = 8192);

  PacketTracer(const PacketTracer&) = delete;
  PacketTracer& operator=(const PacketTracer&) = delete;

  // Records a packet-addressed stage at the current sim time.
  void Record(uint32_t stream_id, uint32_t seq, TraceStage stage,
              uint32_t node = 0);

  // Records a packet-addressed stage at an explicit time. The segment uses
  // this for kWireTx (the wire slot may start after `now` when the medium
  // is busy) and the speaker for kDecodeStart; both timestamps are computed
  // before the stage actually runs, so ring order is no longer guaranteed
  // chronological once these stages are recorded.
  void RecordAt(uint32_t stream_id, uint32_t seq, TraceStage stage,
                uint32_t node, SimTime at);

  // Attaches/detaches the single span-plane observer. Pass nullptr to
  // detach.
  void SetObserver(TraceObserver* observer) { observer_ = observer; }

  // Pushes an already-stamped event verbatim — same evict/observer path as
  // Record, but `recorded` is preserved instead of restamped. A system's
  // mirror tracer is fed exclusively through this.
  void Ingest(const TraceEvent& event);

  // Span-plane stages (kWireTx, kDecodeStart, exemplars) are recorded only
  // while this flag is set. The span exporter observes the merged mirror,
  // not the zone tracers that record, so the system sets the flag on every
  // zone tracer when span tracing is enabled.
  void set_span_stages(bool enabled) { span_stages_ = enabled; }
  bool span_stages_enabled() const { return span_stages_; }

  // Byte-stream stages: `bytes` more bytes passed `stage` now.
  void NoteBytes(uint32_t stream_id, TraceStage stage, size_t bytes);

  // Packet `seq` covers the byte stream up to cumulative offset `byte_end`;
  // converts the pending marks into a per-packet event stamped with the time
  // the packet's LAST byte passed the stage. No-op if the marks for that
  // offset are gone (stream reset, or mark ring overflow).
  void AttributeBytes(uint32_t stream_id, TraceStage stage, uint64_t byte_end,
                      uint32_t seq);

  // Drops all byte marks and cumulative offsets for a stream (config
  // change); packet-addressed events already in the ring are kept.
  void ResetStream(uint32_t stream_id);

  // Events for one packet, in record order. Record order is chronological
  // for the Record/AttributeBytes stages, but RecordAt stages (kWireTx,
  // kDecodeStart) may carry timestamps later than events recorded after
  // them — consumers that need time order must sort by `at`.
  std::vector<TraceEvent> EventsFor(uint32_t stream_id, uint32_t seq) const;

  const std::deque<TraceEvent>& events() const { return ring_; }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

  // Latency from `from` to `to`, in milliseconds, over every packet in the
  // ring that has both stages (a speaker stage may appear once per
  // listener; each occurrence contributes a sample).
  RunningStats StageLatencyMs(TraceStage from, TraceStage to) const;

  // Human-readable per-stage timeline for one packet.
  std::string Dump(uint32_t stream_id, uint32_t seq) const;

 private:
  struct ByteMark {
    uint64_t byte_end;  // Cumulative stream offset after this chunk.
    SimTime at;
  };
  struct StreamStage {
    uint64_t cumulative = 0;
    std::deque<ByteMark> marks;
  };

  void Push(TraceEvent event);

  Simulation* sim_;
  size_t capacity_;
  TraceObserver* observer_ = nullptr;
  bool span_stages_ = false;
  std::deque<TraceEvent> ring_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  std::map<std::pair<uint32_t, uint8_t>, StreamStage> byte_state_;
};

class MetricsRegistry;

// Publishes the tracers' own health as gauges ("trace.events_recorded",
// "trace.events_dropped", "trace.ring_size"), each summed over `tracers`, so
// ring overruns are visible in the exposition instead of silently
// truncating postmortems. A system passes its zone tracers: an overrun in
// any zone is visible fleet-wide, and the exposition reads the same on
// every zone count.
void RegisterTracerMetrics(std::vector<const PacketTracer*> tracers,
                           MetricsRegistry* registry);

}  // namespace espk

#endif  // SRC_OBS_TRACE_H_
