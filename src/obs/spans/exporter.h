// Derives duration spans from the PacketTracer's instant-event stream. The
// exporter is the single TraceObserver: it watches each packet's events
// arrive, pairs them into stage intervals (vad→read, encode, tx-queue,
// wire, jitter dwell, decode, render slack), and appends the finished spans
// to the owning station's SpanRecorder — producer-side stages to the
// stream's sending station, receiver-side stages to the speaker the event
// named. When a packet's journey ends (every receiver terminal, a queue
// drop, or 1 s of sim time passing without an event for it — which covers
// lost packets that never reach any terminal stage), the root span is
// emitted and the in-flight state released. At most 4096 packets are in
// flight; beyond that the oldest is finalized early (counted in evicted()).
#ifndef SRC_OBS_SPANS_EXPORTER_H_
#define SRC_OBS_SPANS_EXPORTER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/base/time_types.h"
#include "src/obs/spans/span.h"
#include "src/obs/trace.h"

namespace espk {

class Simulation;
class SpanRecorder;

class SpanExporter : public TraceObserver {
 public:
  explicit SpanExporter(Simulation* sim);

  // Routes receiver-side spans: events whose `node` matches go to
  // `recorder`.
  void RegisterStation(uint32_t node, SpanRecorder* recorder);

  // Routes producer-side spans: stream `stream_id` is sent by station
  // `send_node`, whose spans land in `recorder`.
  void BindStream(uint32_t stream_id, uint32_t send_node,
                  SpanRecorder* recorder);

  void OnTraceEvent(const TraceEvent& event) override;

  // Finalizes (emits root spans for) every in-flight packet idle for at
  // least 1 s. SpanPlane::Flush() calls this.
  void FlushIdle(SimTime now);
  // Finalizes everything regardless of idleness (end-of-run drain).
  void FlushAll();

  size_t pending_count() const { return pending_.size(); }
  uint64_t evicted() const { return evicted_; }
  // Events whose station had no registered recorder.
  uint64_t unrouted() const { return unrouted_; }

 private:
  struct ReceiverState {
    SimTime receive = -1;
    SimTime decode_start = -1;
    SimTime decode_done = -1;
  };
  struct PendingPacket {
    SimTime vad_write = -1;
    SimTime rb_read = -1;
    SimTime send = -1;
    SimTime wire_tx = -1;
    SimTime first = 0;
    SimTime last = 0;
    uint8_t flags = 0;
    bool any = false;
    SimTime last_activity = 0;
    std::map<uint32_t, ReceiverState> receivers;
  };

  void Emit(const TraceEvent& event, SpanStage stage, SimTime start,
            SimTime end, uint8_t flags, bool producer_side);
  void EmitReceive(const PendingPacket& state, const TraceEvent& event,
                   SimTime end, uint8_t flags);
  void Finalize(std::pair<uint32_t, uint32_t> key, PendingPacket& state);

  Simulation* sim_;
  std::map<uint32_t, SpanRecorder*> by_node_;
  struct StreamBinding {
    uint32_t send_node = 0;
    SpanRecorder* recorder = nullptr;
  };
  std::map<uint32_t, StreamBinding> by_stream_;
  std::map<std::pair<uint32_t, uint32_t>, PendingPacket> pending_;
  uint64_t evicted_ = 0;
  uint64_t unrouted_ = 0;
};

}  // namespace espk

#endif  // SRC_OBS_SPANS_EXPORTER_H_
