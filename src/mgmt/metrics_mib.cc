#include "src/mgmt/metrics_mib.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace espk {

namespace {

std::string FormatDouble(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

std::string Describe(const Metric& metric, const char* aspect) {
  std::string description = metric.name();
  description += " ";
  description += aspect;
  if (!metric.help().empty()) {
    description += " — ";
    description += metric.help();
  }
  return description;
}

void RegisterReadOnly(Mib* mib, const Oid& oid, std::string description,
                      std::function<std::string()> get) {
  MibVariable variable;
  variable.description = std::move(description);
  variable.get = std::move(get);
  mib->Register(oid, std::move(variable));
}

}  // namespace

size_t ExportMetricsToMib(const MetricsRegistry* registry, Mib* mib) {
  size_t registered = 0;
  const auto& entries = registry->entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const Metric* metric = entries[i].get();
    const uint32_t arc = static_cast<uint32_t>(i + 1);
    switch (metric->kind()) {
      case Metric::Kind::kCounter: {
        const auto* counter = static_cast<const Counter*>(metric);
        RegisterReadOnly(mib, EspkOid({9, arc, 1}),
                         Describe(*metric, "(counter)"), [counter] {
                           return std::to_string(counter->value());
                         });
        registered += 1;
        break;
      }
      case Metric::Kind::kGauge: {
        const auto* gauge = static_cast<const Gauge*>(metric);
        RegisterReadOnly(mib, EspkOid({9, arc, 1}),
                         Describe(*metric, "(gauge)"),
                         [gauge] { return FormatDouble(gauge->Value()); });
        registered += 1;
        break;
      }
      case Metric::Kind::kHistogram: {
        const auto* histogram = static_cast<const HistogramMetric*>(metric);
        RegisterReadOnly(mib, EspkOid({9, arc, 1}),
                         Describe(*metric, "count"), [histogram] {
                           return std::to_string(histogram->running().count());
                         });
        RegisterReadOnly(mib, EspkOid({9, arc, 2}),
                         Describe(*metric, "mean"), [histogram] {
                           return FormatDouble(histogram->running().mean());
                         });
        RegisterReadOnly(mib, EspkOid({9, arc, 3}),
                         Describe(*metric, "p50"), [histogram] {
                           return FormatDouble(
                               histogram->histogram().Percentile(0.5));
                         });
        RegisterReadOnly(mib, EspkOid({9, arc, 4}),
                         Describe(*metric, "p99"), [histogram] {
                           return FormatDouble(
                               histogram->histogram().Percentile(0.99));
                         });
        registered += 4;
        break;
      }
    }
  }
  return registered;
}

size_t ExportAlertsToMib(const AlertEngine* engine, Mib* mib) {
  size_t registered = 0;
  const auto& rules = engine->rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    const std::string name = rules[i].name;
    const double threshold = rules[i].threshold;
    const uint32_t arc = static_cast<uint32_t>(i + 1);
    RegisterReadOnly(mib, EspkOid({10, arc, 1}), "SLO rule name",
                     [name] { return name; });
    RegisterReadOnly(mib, EspkOid({10, arc, 2}),
                     name + " alert state", [engine, name] {
                       return std::string(
                           AlertStateName(engine->StateOf(name)));
                     });
    RegisterReadOnly(mib, EspkOid({10, arc, 3}),
                     name + " latest evaluated value", [engine, name] {
                       return FormatDouble(engine->ObservedOf(name));
                     });
    RegisterReadOnly(mib, EspkOid({10, arc, 4}), name + " threshold",
                     [threshold] { return FormatDouble(threshold); });
    RegisterReadOnly(mib, EspkOid({10, arc, 5}),
                     name + " fire+resolve transitions", [engine, name] {
                       return std::to_string(engine->TransitionsOf(name));
                     });
    registered += 5;
  }
  return registered;
}

}  // namespace espk
