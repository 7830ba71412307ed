#include "src/obs/health.h"

#include <cstdio>
#include <utility>

namespace espk {

HealthMonitor::HealthMonitor(Simulation* sim, MetricsRegistry* registry,
                             PacketTracer* tracer,
                             const HealthOptions& options)
    : sampler_(std::make_unique<TimeSeriesSampler>(sim, options.sampler)),
      engine_(std::make_unique<AlertEngine>(sampler_.get(), registry)),
      recorder_(std::make_unique<FlightRecorder>(sampler_.get(), engine_.get(),
                                                 tracer, registry,
                                                 options.recorder)) {
  engine_->AttachToSampler();
}

TimeSeries* HealthMonitor::Watch(const std::string& series_name,
                                 const Metric* metric) {
  return sampler_->Watch(series_name, metric);
}

TimeSeries* HealthMonitor::WatchPercentile(const std::string& series_name,
                                           const Metric* metric, double q) {
  return sampler_->WatchPercentile(series_name, metric, q);
}

TimeSeries* HealthMonitor::WatchReader(const std::string& series_name,
                                       std::function<double()> read) {
  return sampler_->WatchReader(series_name, std::move(read));
}

void HealthMonitor::AddRule(SloRule rule) { engine_->AddRule(std::move(rule)); }

std::string HealthMonitor::StatusText() const {
  std::string out;
  for (const SloRule& rule : engine_->rules()) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s: %s (%.4g vs %.4g)\n",
                  rule.name.c_str(),
                  std::string(AlertStateName(engine_->StateOf(rule.name)))
                      .c_str(),
                  engine_->ObservedOf(rule.name), rule.threshold);
    out += line;
  }
  return out;
}

}  // namespace espk
