// The span plane in one object: attaches the exporter to the PacketTracer,
// owns one SpanRecorder per station, owns the console-side assembler, and
// offers the flush that finalizes idle traces and triggers tail-sampling
// decisions. The plane owns no timer: its owner calls Flush() periodically.
// The core system wires this up in EnableSpanTracing(), where the tracer
// is the barrier-merged mirror and the ZoneCollector flushes at epoch
// barriers aligned to a 250 ms sim-time grid, so the exporter never runs
// against a half-merged mirror. The fleet plane moves recorder
// contents to the assembler over the mgmt scrape protocol, and
// CollectLocal() offers the same movement in-process for tests and
// single-host tools.
#ifndef SRC_OBS_SPANS_PLANE_H_
#define SRC_OBS_SPANS_PLANE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/spans/assembler.h"
#include "src/obs/spans/exporter.h"
#include "src/obs/spans/recorder.h"
#include "src/sim/simulation.h"

namespace espk {

class MetricsRegistry;
class PacketTracer;

struct SpanPlaneOptions {
  // Per-station span ring size.
  size_t recorder_capacity = 4096;
  TailSamplerOptions sampler;
};

class SpanPlane {
 public:
  // Attaches to `tracer` as its observer; assembler self-metrics land on
  // `console_registry`. The tracer must outlive the plane.
  SpanPlane(Simulation* sim, PacketTracer* tracer,
            MetricsRegistry* console_registry,
            const SpanPlaneOptions& options);
  ~SpanPlane();

  SpanPlane(const SpanPlane&) = delete;
  SpanPlane& operator=(const SpanPlane&) = delete;

  // Creates the station's span buffer, registers its self-metrics on the
  // station's registry, and routes receiver-side spans for `node` to it.
  // Idempotent per name.
  SpanRecorder* AddStation(const std::string& name, uint32_t node,
                           MetricsRegistry* station_registry);

  // Producer-side spans of `stream_id` (sent from `node`) land in the
  // named station's buffer.
  void BindStream(uint32_t stream_id, uint32_t node,
                  SpanRecorder* recorder);

  // Serializes every station buffer straight into the assembler — the
  // in-process equivalent of a full fleet scrape cycle.
  void CollectLocal();

  // Finalizes idle traces and runs sampling decisions now. The owner calls
  // this periodically.
  void Flush();

  // End-of-run: finalize every in-flight trace, collect all buffers, and
  // decide every pending trace.
  void Drain();

  SpanExporter* exporter() { return &exporter_; }
  SpanAssembler* assembler() { return &assembler_; }
  const SpanAssembler* assembler() const { return &assembler_; }
  SpanRecorder* FindRecorder(const std::string& name);
  const std::vector<SpanRecorder*>& recorders() const { return recorders_; }

 private:
  Simulation* sim_;
  PacketTracer* tracer_;
  SpanPlaneOptions options_;
  SpanExporter exporter_;
  SpanAssembler assembler_;
  std::map<std::string, std::unique_ptr<SpanRecorder>> stations_;
  std::vector<SpanRecorder*> recorders_;  // Creation order.
};

}  // namespace espk

#endif  // SRC_OBS_SPANS_PLANE_H_
