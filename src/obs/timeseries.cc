#include "src/obs/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "src/base/logging.h"

namespace espk {

TimeSeries::TimeSeries(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity > 0 ? capacity : 1) {}

void TimeSeries::Append(SimTime at, double value) {
  if (points_.size() >= capacity_) {
    points_.pop_front();
  }
  points_.push_back(SeriesPoint{at, value});
  ++appended_;
}

std::optional<double> TimeSeries::Latest() const {
  if (points_.empty()) {
    return std::nullopt;
  }
  return points_.back().value;
}

double TimeSeries::WindowRatePerSec(SimTime now, SimDuration window) const {
  const SimTime start = now - window;
  // Baseline: the newest point at or before the window start; if history is
  // shorter than the window, the oldest point serves (a best-effort rate
  // over what we have).
  const SeriesPoint* baseline = nullptr;
  const SeriesPoint* newest = nullptr;
  for (const SeriesPoint& p : points_) {
    if (p.at > now) {
      break;
    }
    if (p.at <= start || baseline == nullptr) {
      baseline = &p;
    }
    newest = &p;
  }
  if (baseline == nullptr || newest == nullptr || newest->at <= baseline->at) {
    return 0.0;
  }
  return (newest->value - baseline->value) /
         ToSecondsF(newest->at - baseline->at);
}

double TimeSeries::WindowMean(SimTime now, SimDuration window) const {
  double sum = 0.0;
  int count = 0;
  for (const SeriesPoint& p : points_) {
    if (p.at > now - window && p.at <= now) {
      sum += p.value;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

double TimeSeries::WindowMax(SimTime now, SimDuration window) const {
  double best = 0.0;
  bool any = false;
  for (const SeriesPoint& p : points_) {
    if (p.at > now - window && p.at <= now) {
      best = any ? std::max(best, p.value) : p.value;
      any = true;
    }
  }
  return best;
}

double TimeSeries::WindowMin(SimTime now, SimDuration window) const {
  double best = 0.0;
  bool any = false;
  for (const SeriesPoint& p : points_) {
    if (p.at > now - window && p.at <= now) {
      best = any ? std::min(best, p.value) : p.value;
      any = true;
    }
  }
  return best;
}

std::vector<SeriesPoint> TimeSeries::Tail(size_t count) const {
  const size_t n = std::min(count, points_.size());
  return std::vector<SeriesPoint>(points_.end() - static_cast<long>(n),
                                  points_.end());
}

// ------------------------------------------------------ TimeSeriesSampler --

namespace {

// Points retained per series.
constexpr size_t kSeriesCapacity = 600;

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Simulation* sim,
                                     const SamplerOptions& options)
    : sim_(sim), options_(options) {}

TimeSeries* TimeSeriesSampler::AddSeries(const std::string& name,
                                         std::function<double()> read) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;  // Already watched; keep the original source.
  }
  series_.push_back(
      std::make_unique<TimeSeries>(name, kSeriesCapacity));
  TimeSeries* series = series_.back().get();
  by_name_[name] = series;
  sources_.push_back(Source{std::move(read), series});
  return series;
}

TimeSeries* TimeSeriesSampler::Watch(const std::string& series_name,
                                     const Metric* metric) {
  if (metric == nullptr) {
    ESPK_LOG(kError) << "sampler: no metric for series " << series_name;
    return nullptr;
  }
  switch (metric->kind()) {
    case Metric::Kind::kCounter: {
      const auto* counter = static_cast<const Counter*>(metric);
      return AddSeries(series_name, [counter] {
        return static_cast<double>(counter->value());
      });
    }
    case Metric::Kind::kGauge: {
      const auto* gauge = static_cast<const Gauge*>(metric);
      return AddSeries(series_name, [gauge] { return gauge->Value(); });
    }
    case Metric::Kind::kHistogram:
      ESPK_LOG(kError) << "sampler: " << metric->name()
                       << " is a histogram; use WatchPercentile";
      return nullptr;
  }
  return nullptr;
}

TimeSeries* TimeSeriesSampler::WatchPercentile(const std::string& series_name,
                                               const Metric* metric,
                                               double q) {
  if (metric == nullptr || metric->kind() != Metric::Kind::kHistogram) {
    ESPK_LOG(kError) << "sampler: no histogram for series " << series_name;
    return nullptr;
  }
  const auto* histogram = static_cast<const HistogramMetric*>(metric);
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".p%g", q * 100.0);
  return AddSeries(series_name + suffix, [histogram, q] {
    return histogram->histogram().count() > 0
               ? histogram->histogram().Percentile(q)
               : 0.0;
  });
}

TimeSeries* TimeSeriesSampler::WatchReader(const std::string& series_name,
                                           std::function<double()> read) {
  return AddSeries(series_name, std::move(read));
}

TimeSeries* TimeSeriesSampler::FindSeries(const std::string& series_name) {
  auto it = by_name_.find(series_name);
  return it == by_name_.end() ? nullptr : it->second;
}

const TimeSeries* TimeSeriesSampler::FindSeries(
    const std::string& series_name) const {
  auto it = by_name_.find(series_name);
  return it == by_name_.end() ? nullptr : it->second;
}

void TimeSeriesSampler::AddTickListener(
    std::function<void(SimTime)> listener) {
  tick_listeners_.push_back(std::move(listener));
}

void TimeSeriesSampler::SampleNow() {
  const SimTime now = sim_->now();
  for (const Source& source : sources_) {
    source.series->Append(now, source.read());
  }
  ++ticks_;
  for (const auto& listener : tick_listeners_) {
    listener(now);
  }
}

}  // namespace espk
