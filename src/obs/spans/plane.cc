#include "src/obs/spans/plane.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace espk {

SpanPlane::SpanPlane(Simulation* sim, PacketTracer* tracer,
                     MetricsRegistry* console_registry,
                     const SpanPlaneOptions& options)
    : sim_(sim),
      tracer_(tracer),
      options_(options),
      exporter_(sim),
      assembler_(options.sampler) {
  tracer_->SetObserver(&exporter_);
  if (console_registry != nullptr) {
    RegisterAssemblerMetrics(&assembler_, console_registry);
  }
}

SpanPlane::~SpanPlane() { tracer_->SetObserver(nullptr); }

SpanRecorder* SpanPlane::AddStation(const std::string& name, uint32_t node,
                                    MetricsRegistry* station_registry) {
  auto it = stations_.find(name);
  if (it != stations_.end()) {
    return it->second.get();
  }
  auto recorder =
      std::make_unique<SpanRecorder>(name, options_.recorder_capacity);
  SpanRecorder* raw = recorder.get();
  stations_.emplace(name, std::move(recorder));
  recorders_.push_back(raw);
  exporter_.RegisterStation(node, raw);
  if (station_registry != nullptr) {
    RegisterRecorderMetrics(raw, station_registry);
  }
  return raw;
}

void SpanPlane::BindStream(uint32_t stream_id, uint32_t node,
                           SpanRecorder* recorder) {
  exporter_.BindStream(stream_id, node, recorder);
}

void SpanPlane::CollectLocal() {
  SimTime now = sim_->now();
  for (SpanRecorder* recorder : recorders_) {
    SpanBatch batch;
    batch.station = recorder->station();
    batch.spans.assign(recorder->spans().begin(), recorder->spans().end());
    assembler_.IngestBatch(batch, now);
  }
}

void SpanPlane::Flush() {
  SimTime now = sim_->now();
  exporter_.FlushIdle(now);
  assembler_.Flush(now);
}

void SpanPlane::Drain() {
  exporter_.FlushAll();
  CollectLocal();
  assembler_.FlushAll();
}

SpanRecorder* SpanPlane::FindRecorder(const std::string& name) {
  auto it = stations_.find(name);
  return it == stations_.end() ? nullptr : it->second.get();
}

}  // namespace espk
