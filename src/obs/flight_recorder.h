// Flight recorder: when an SLO alert fires, the instantaneous counters are
// already stale — what the operator needs is the record of the last few
// seconds. This subscribes to the alert engine and, on every firing
// transition, assembles a JSON postmortem: the rule and the observed value
// that breached it, the recent window of every sampled series, the last N
// PacketTracer events, and the full Prometheus text exposition at the
// moment of the fire. Postmortems are kept in memory (bounded) and
// optionally written to disk as
//   <dir>/postmortem_<rule>_<sim_ms>.json
// Everything is stamped with the simulated clock, so postmortems are
// bit-identical across runs of the same scenario.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <deque>
#include <string>

#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace espk {

struct FlightRecorderOptions {
  // Last N tracer events included in a postmortem.
  size_t trace_events = 256;
  // Last N points per series included in a postmortem.
  size_t series_points = 64;
  // Postmortems retained in memory; the oldest is discarded beyond this.
  size_t max_postmortems = 16;
  // Non-empty: every postmortem is also written to this directory (which
  // must exist). Empty: memory only.
  std::string output_dir;
};

struct Postmortem {
  std::string rule;
  SimTime at = 0;
  std::string json;
  std::string path;  // Empty when not written to disk.
};

class FlightRecorder {
 public:
  // Subscribes to `engine` transitions at construction; `tracer` and
  // `registry` may be null (the corresponding sections are omitted). All
  // pointers must outlive the recorder.
  FlightRecorder(TimeSeriesSampler* sampler, AlertEngine* engine,
                 PacketTracer* tracer, MetricsRegistry* registry,
                 const FlightRecorderOptions& options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const std::deque<Postmortem>& postmortems() const { return postmortems_; }
  uint64_t recorded() const { return recorded_; }
  uint64_t write_failures() const { return write_failures_; }

  // Builds the postmortem document for an arbitrary transition (also used
  // internally for firing transitions).
  std::string BuildPostmortem(const AlertTransition& transition) const;

 private:
  void OnTransition(const AlertTransition& transition);

  TimeSeriesSampler* sampler_;
  AlertEngine* engine_;
  PacketTracer* tracer_;
  MetricsRegistry* registry_;
  FlightRecorderOptions options_;
  std::deque<Postmortem> postmortems_;
  uint64_t recorded_ = 0;
  uint64_t write_failures_ = 0;
};

}  // namespace espk

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
