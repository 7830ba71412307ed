// HealthMonitor ties the health layer's three pieces — the time-series
// sampler, the SLO alert engine, and the flight recorder — into one object
// with a single lifetime and a Start() switch. The system (or a test)
// watches signals and declares rules through it, then lets the sampler's
// periodic task drive everything: each tick samples the watched metrics,
// the engine evaluates every rule, and a firing transition makes the
// recorder dump a postmortem.
#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <memory>
#include <string>

#include "src/obs/alerts.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/timeseries.h"

namespace espk {

struct HealthOptions {
  SamplerOptions sampler;
  FlightRecorderOptions recorder;
};

class HealthMonitor {
 public:
  // `tracer` may be null (postmortems then omit the trace section). The
  // registry and tracer must outlive the monitor.
  HealthMonitor(Simulation* sim, MetricsRegistry* registry,
                PacketTracer* tracer, const HealthOptions& options = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  TimeSeriesSampler* sampler() { return sampler_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }
  AlertEngine* engine() { return engine_.get(); }
  const AlertEngine* engine() const { return engine_.get(); }
  FlightRecorder* recorder() { return recorder_.get(); }
  const FlightRecorder* recorder() const { return recorder_.get(); }

  // Forwarders so wiring code reads as one fluent block.
  TimeSeries* Watch(const std::string& series_name, const Metric* metric);
  TimeSeries* WatchPercentile(const std::string& series_name,
                              const Metric* metric, double q);
  TimeSeries* WatchReader(const std::string& series_name,
                          std::function<double()> read);
  void AddRule(SloRule rule);

  void Start();
  void Stop();
  bool running() const { return sampler_->running(); }

  // One line per rule: "<name>: <state> (<observed> vs <threshold>)".
  std::string StatusText() const;

 private:
  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<AlertEngine> engine_;
  std::unique_ptr<FlightRecorder> recorder_;
};

}  // namespace espk

#endif  // SRC_OBS_HEALTH_H_
