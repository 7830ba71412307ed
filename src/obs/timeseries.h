// Time-series layer of the health subsystem: the metrics registry holds
// *instantaneous* values, but every question an operator actually asks is a
// question about time — "how many deadline misses per second", "has the
// jitter buffer been empty for the last 500 ms". The TimeSeriesSampler
// snapshots selected counters, gauges, and histogram percentiles on the
// simulated clock into fixed-capacity ring-buffer series, and the series
// answer windowed rate/mean/min/max queries. Everything runs on sim time,
// so two runs of the same scenario produce bit-identical samples.
//
// The sampler owns no timer: its owner calls SampleNow() once per period.
// In a system that owner is the ZoneCollector, which fires the tick at an
// epoch barrier landing exactly on the period grid, so every sample reads
// a fully settled instant on every zone count.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/time_types.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace espk {

struct SeriesPoint {
  SimTime at = 0;
  double value = 0.0;
};

// One sampled signal: a bounded ring of (sim time, value) points, oldest
// overwritten first. Window queries consider points with at in
// (now - window, now]; a rate query additionally uses the newest point at
// or before the window start as its baseline, so a 1 s rate over a counter
// sampled every 100 ms really spans 1 s of growth.
class TimeSeries {
 public:
  TimeSeries(std::string name, size_t capacity);

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  const std::deque<SeriesPoint>& points() const { return points_; }
  uint64_t appended() const { return appended_; }

  void Append(SimTime at, double value);

  std::optional<double> Latest() const;

  // Counter-style: value growth between the window baseline and the newest
  // in-window point, divided by the time between them, per second. Zero
  // with fewer than two usable points or a non-increasing clock.
  double WindowRatePerSec(SimTime now, SimDuration window) const;

  // Gauge-style aggregates over points inside the window. Zero (or the
  // given default) when the window is empty.
  double WindowMean(SimTime now, SimDuration window) const;
  double WindowMax(SimTime now, SimDuration window) const;
  double WindowMin(SimTime now, SimDuration window) const;

  // The last `count` points, oldest first — what the flight recorder dumps.
  std::vector<SeriesPoint> Tail(size_t count) const;

 private:
  std::string name_;
  size_t capacity_;
  std::deque<SeriesPoint> points_;
  uint64_t appended_ = 0;
};

struct SamplerOptions {
  // Tick period the owner drives SampleNow() at.
  SimDuration period = Milliseconds(100);
};

// Snapshots watched metrics into series whenever its owner calls
// SampleNow(); each series keeps its newest 600 points (60 s of history at
// the default period). Watch the signals after the system is assembled
// (metrics must already be registered); each tick samples every series and
// then notifies tick listeners (the SLO alert engine evaluates there).
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(Simulation* sim,
                             const SamplerOptions& options = {});

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Samples a counter's value or a gauge's reader as series `series_name`.
  // The metric may live in any registry — the system's or a station's — and
  // must outlive the sampler. Null (with an error log) if `metric` is null
  // or a histogram.
  TimeSeries* Watch(const std::string& series_name, const Metric* metric);

  // Samples a histogram percentile as series "<series_name>.p<q*100>", e.g.
  // "speaker.0.lateness_ms.p99". Null if `metric` is null or not a
  // histogram.
  TimeSeries* WatchPercentile(const std::string& series_name,
                              const Metric* metric, double q);

  // Samples an arbitrary reader under `series_name` — for signals that live
  // outside any metrics registry, like the sharded runtime's barrier-wait
  // reading from the ZoneCollector.
  TimeSeries* WatchReader(const std::string& series_name,
                          std::function<double()> read);

  // Null if nothing is watched under that series name.
  TimeSeries* FindSeries(const std::string& series_name);
  const TimeSeries* FindSeries(const std::string& series_name) const;

  const std::vector<std::unique_ptr<TimeSeries>>& series() const {
    return series_;
  }

  // Fired after every tick's sampling pass, in registration order.
  void AddTickListener(std::function<void(SimTime)> listener);

  // One sampling pass at the current sim time. The owner calls this every
  // period().
  void SampleNow();

  uint64_t ticks() const { return ticks_; }
  SimDuration period() const { return options_.period; }

 private:
  struct Source {
    std::function<double()> read;
    TimeSeries* series;
  };

  TimeSeries* AddSeries(const std::string& name, std::function<double()> read);

  Simulation* sim_;
  SamplerOptions options_;
  std::vector<std::unique_ptr<TimeSeries>> series_;
  std::map<std::string, TimeSeries*> by_name_;
  std::vector<Source> sources_;
  std::vector<std::function<void(SimTime)>> tick_listeners_;
  uint64_t ticks_ = 0;
};

}  // namespace espk

#endif  // SRC_OBS_TIMESERIES_H_
