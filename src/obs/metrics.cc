#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/base/logging.h"
#include "src/sim/simulation.h"

namespace espk {

namespace {

bool IsPromChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string HexTraceId(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

}  // namespace

void HistogramMetric::ObserveExemplar(double x, uint64_t trace_id,
                                      SimTime at) {
  Observe(x);
  if (exemplars_.empty()) {
    exemplars_.resize(static_cast<size_t>(histogram_.bucket_count()) + 2);
  }
  // BucketIndex is -1 for underflow; shift so slot 0 is the underflow slot.
  const size_t slot = static_cast<size_t>(histogram_.BucketIndex(x) + 1);
  exemplars_[slot] = HistogramExemplar{x, trace_id, at, true};
}

std::string PrometheusName(const std::string& name) {
  std::string out = "espk_";
  for (char c : name) {
    out.push_back(IsPromChar(c) ? c : '_');
  }
  return out;
}

std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* PrometheusTypeName(Metric::Kind kind) {
  switch (kind) {
    case Metric::Kind::kCounter:
      return "counter";
    case Metric::Kind::kGauge:
      return "gauge";
    case Metric::Kind::kHistogram:
      return "summary";
  }
  return "untyped";
}

Metric* MetricsRegistry::FindMutable(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Metric* MetricsRegistry::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Metric* MetricsRegistry::Adopt(std::unique_ptr<Metric> metric) {
  Metric* raw = metric.get();
  by_name_[raw->name()] = raw;
  owned_.push_back(std::move(metric));
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  if (Metric* existing = FindMutable(name)) {
    if (existing->kind() != Metric::Kind::kCounter) {
      ESPK_LOG(kError) << "metric " << name << " re-registered as counter";
      return nullptr;
    }
    return static_cast<Counter*>(existing);
  }
  return static_cast<Counter*>(
      Adopt(std::unique_ptr<Metric>(new Counter(name, help))));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Gauge::Reader reader,
                                 const std::string& help) {
  if (Metric* existing = FindMutable(name)) {
    if (existing->kind() != Metric::Kind::kGauge) {
      ESPK_LOG(kError) << "metric " << name << " re-registered as gauge";
      return nullptr;
    }
    return static_cast<Gauge*>(existing);
  }
  return static_cast<Gauge*>(Adopt(
      std::unique_ptr<Metric>(new Gauge(name, help, std::move(reader)))));
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               double lo, double hi,
                                               int buckets,
                                               const std::string& help) {
  if (Metric* existing = FindMutable(name)) {
    if (existing->kind() != Metric::Kind::kHistogram) {
      ESPK_LOG(kError) << "metric " << name << " re-registered as histogram";
      return nullptr;
    }
    return static_cast<HistogramMetric*>(existing);
  }
  return static_cast<HistogramMetric*>(Adopt(
      std::unique_ptr<Metric>(new HistogramMetric(name, help, lo, hi,
                                                  buckets))));
}

void MetricsRegistry::ResetAll() {
  for (auto& metric : owned_) {
    metric->Reset();
  }
}

std::string MetricsRegistry::TextExposition() const {
  std::ostringstream os;
  std::string stamp;
  if (sim_ != nullptr) {
    stamp = " " + std::to_string(sim_->now() / kMillisecond);
  }
  // Index loop, not iterators: a gauge reader may re-enter the registry and
  // register new metrics mid-dump, growing owned_.
  for (size_t i = 0; i < owned_.size(); ++i) {
    const Metric& m = *owned_[i];
    const std::string pname = PrometheusName(m.name());
    os << "# HELP " << pname << " "
       << EscapeHelp(m.help().empty() ? m.name() : m.help()) << "\n";
    os << "# TYPE " << pname << " " << PrometheusTypeName(m.kind()) << "\n";
    switch (m.kind()) {
      case Metric::Kind::kCounter:
        os << pname << " " << static_cast<const Counter&>(m).value() << stamp
           << "\n";
        break;
      case Metric::Kind::kGauge:
        os << pname << " " << static_cast<const Gauge&>(m).Value() << stamp
           << "\n";
        break;
      case Metric::Kind::kHistogram: {
        const auto& h = static_cast<const HistogramMetric&>(m);
        for (double q : {0.5, 0.9, 0.99}) {
          os << pname << "{quantile=\"" << q << "\"} "
             << h.histogram().Percentile(q) << stamp << "\n";
        }
        os << pname << "_sum " << h.running().sum() << stamp << "\n";
        os << pname << "_count " << h.running().count() << stamp << "\n";
        // OpenMetrics exemplars: only buckets that captured a traced
        // observation get a _bucket line, so histograms without exemplars
        // (and whole expositions with the span plane off) are byte-for-byte
        // what they were before exemplars existed.
        if (h.has_exemplars()) {
          const Histogram& hist = h.histogram();
          const auto& exemplars = h.exemplars();
          const double width =
              (hist.hi() - hist.lo()) / hist.bucket_count();
          int64_t cumulative = hist.underflow();
          for (size_t slot = 0; slot < exemplars.size(); ++slot) {
            if (slot > 0 && slot <= static_cast<size_t>(hist.bucket_count())) {
              cumulative += hist.bucket(static_cast<int>(slot) - 1);
            } else if (slot > 0) {
              cumulative = hist.count();  // +Inf bucket.
            }
            const HistogramExemplar& ex = exemplars[slot];
            if (!ex.valid) {
              continue;
            }
            os << pname << "_bucket{le=\"";
            if (slot == exemplars.size() - 1) {
              os << "+Inf";
            } else {
              os << hist.lo() + static_cast<double>(slot) * width;
            }
            os << "\"} " << cumulative << stamp << " # {trace_id=\""
               << HexTraceId(ex.trace_id) << "\"} " << ex.value << " "
               << ex.at / kMillisecond << "\n";
          }
        }
        break;
      }
    }
  }
  return os.str();
}

}  // namespace espk
