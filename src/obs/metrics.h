// Process-wide metrics registry (the observability layer the paper's whole
// evaluation leans on): named counters, gauges, and histograms that the hot
// paths update cheaply and that two exporters read — a Prometheus-style text
// exposition for benches and tests, and the SNMP MIB bridge in
// src/mgmt/metrics_mib.h so an NMS walk sees live system state (§5.3).
//
// Counters and histograms are owned by the registry and handed out as stable
// raw pointers; hot paths increment through the pointer with no lookup.
// Gauges are read-through callbacks, sampled at exposition time, so existing
// per-component stats structs can be exposed without migrating them.
//
// The registry is deliberately not a global singleton: each simulated system
// owns one, so tests that build several EthernetSpeakerSystems in one
// process keep their telemetry separate. Since the distributed telemetry
// plane, registries are also per *station* (every speaker, every
// rebroadcaster, the console): each metric is registered exactly once, on
// the registry of the station that owns it, under one name.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/time_types.h"

namespace espk {

class Simulation;

// One OpenMetrics exemplar: the last traced observation that landed in a
// histogram bucket. The trace_id resolves to a retained span tree in the
// span assembler, which is what turns "p99 is bad" into "THIS packet's
// tx-queue wait is why".
struct HistogramExemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
  SimTime at = 0;  // Sim clock, ns.
  bool valid = false;
};

class Metric {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  virtual ~Metric() = default;

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

  // Returns the metric to its freshly-registered state. Gauges (callbacks
  // over external state) are a no-op.
  virtual void Reset() {}

 protected:
  Metric(Kind kind, std::string name, std::string help)
      : kind_(kind), name_(std::move(name)), help_(std::move(help)) {}

 private:
  Kind kind_;
  std::string name_;
  std::string help_;
};

// Monotonic event count. Cheap enough for per-syscall hot paths.
class Counter final : public Metric {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() override { value_ = 0; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : Metric(Kind::kCounter, std::move(name), std::move(help)) {}

  uint64_t value_ = 0;
};

// Instantaneous value, computed by a callback at read time. The callback
// must stay valid for the registry's lifetime (in practice: components and
// registry share an owner, the system).
class Gauge final : public Metric {
 public:
  using Reader = std::function<double()>;

  double Value() const { return reader_ ? reader_() : 0.0; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help, Reader reader)
      : Metric(Kind::kGauge, std::move(name), std::move(help)),
        reader_(std::move(reader)) {}

  Reader reader_;
};

// Distribution: a fixed-bucket Histogram for quantiles plus RunningStats for
// exact count/sum/mean/min/max.
class HistogramMetric final : public Metric {
 public:
  void Observe(double x) {
    histogram_.Add(x);
    running_.Add(x);
  }
  // Observe() plus exemplar capture: the bucket the sample lands in
  // remembers this (value, trace_id, time) until a later traced sample
  // replaces it. Exemplar slots are lazily allocated, so histograms that
  // never see a traced observation render exactly as before.
  void ObserveExemplar(double x, uint64_t trace_id, SimTime at);
  bool has_exemplars() const { return !exemplars_.empty(); }
  // Slot layout when non-empty: [0] = underflow, [1..bucket_count] = the
  // regular buckets, [bucket_count+1] = overflow.
  const std::vector<HistogramExemplar>& exemplars() const {
    return exemplars_;
  }
  const Histogram& histogram() const { return histogram_; }
  const RunningStats& running() const { return running_; }
  void Reset() override {
    histogram_.Reset();
    running_.Reset();
    exemplars_.clear();
  }

 private:
  friend class MetricsRegistry;
  HistogramMetric(std::string name, std::string help, double lo, double hi,
                  int buckets)
      : Metric(Kind::kHistogram, std::move(name), std::move(help)),
        histogram_(lo, hi, buckets) {}

  Histogram histogram_;
  RunningStats running_;
  std::vector<HistogramExemplar> exemplars_;
};

class MetricsRegistry {
 public:
  // With a simulation attached, exposition lines carry sim-clock timestamps
  // (milliseconds since simulation start).
  explicit MetricsRegistry(Simulation* sim = nullptr) : sim_(sim) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-register: a second call with the same name and kind returns the
  // same metric (so independent call sites can share a counter). A name
  // already registered with a DIFFERENT kind returns nullptr — that is a
  // programming error the caller must handle.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Gauge::Reader reader,
                  const std::string& help = "");
  HistogramMetric* GetHistogram(const std::string& name, double lo, double hi,
                                int buckets, const std::string& help = "");

  // Null if nothing by that name is registered.
  const Metric* Find(const std::string& name) const;

  // Registration order — the order exporters emit and the MIB arcs follow.
  const std::vector<std::unique_ptr<Metric>>& entries() const {
    return owned_;
  }
  size_t size() const { return owned_.size(); }

  void ResetAll();

  // Prometheus-style text exposition: "# HELP"/"# TYPE" comments, metric
  // names prefixed "espk_" with dots flattened to underscores, histograms as
  // summaries with quantile labels. Safe against gauge readers that
  // re-enter the registry to register new metrics mid-dump.
  std::string TextExposition() const;

  Simulation* sim() const { return sim_; }

 private:
  Metric* FindMutable(const std::string& name);
  Metric* Adopt(std::unique_ptr<Metric> metric);

  Simulation* sim_;
  std::vector<std::unique_ptr<Metric>> owned_;
  std::map<std::string, Metric*> by_name_;
};

// "kernel.silence_bytes" -> "espk_kernel_silence_bytes".
std::string PrometheusName(const std::string& name);

// HELP text for the Prometheus text format: backslash and newline escaped
// as \\ and \n, so a multi-line help string cannot inject lines into the
// exposition.
std::string EscapeHelp(const std::string& help);

// TYPE name for a metric kind: "counter", "gauge" or "summary".
const char* PrometheusTypeName(Metric::Kind kind);

}  // namespace espk

#endif  // SRC_OBS_METRICS_H_
