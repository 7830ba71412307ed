#include "src/obs/federation/render.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "src/base/time_types.h"
#include "src/obs/federation/query.h"
#include "src/obs/metrics.h"

namespace espk {

namespace {

const char* KindName(Metric::Kind kind) {
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

std::string FormatValue(double v) {
  // ostream default formatting, matching MetricsRegistry::TextExposition.
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string FederatedExposition(const FleetStore& store) {
  std::ostringstream os;
  // First pass: one family per metric name, across stations. Maps keep both
  // family order and per-family station order sorted.
  struct Family {
    const MetricSample* exemplar = nullptr;
    std::map<std::string, const MetricSample*> by_station;
  };
  std::map<std::string, Family> families;
  store.ForEachLatest("*", "*",
                      [&families](const std::string& station,
                                  const MetricSample& sample) {
                        Family& family = families[sample.name];
                        if (family.exemplar == nullptr) {
                          family.exemplar = &sample;
                        }
                        family.by_station[station] = &sample;
                      });

  os << "# HELP espk_up station scrape health (1 = fresh, 0 = stale)\n";
  os << "# TYPE espk_up gauge\n";
  for (const std::string& station : store.Stations()) {
    os << "espk_up{station=\"" << station << "\"} "
       << (store.IsStale(station) ? 0 : 1) << "\n";
  }

  for (const auto& [name, family] : families) {
    const std::string pname = PrometheusName(name);
    const MetricSample& exemplar = *family.exemplar;
    os << "# HELP " << pname << " "
       << (exemplar.help.empty() ? name : exemplar.help) << "\n";
    os << "# TYPE " << pname << " " << KindName(exemplar.kind) << "\n";
    for (const auto& [station, sample] : family.by_station) {
      if (sample->kind == Metric::Kind::kHistogram) {
        for (double q : {0.5, 0.9, 0.99}) {
          os << pname << "{station=\"" << station << "\",quantile=\"" << q
             << "\"} " << FormatValue(sample->histogram.Percentile(q)) << "\n";
        }
        os << pname << "_sum{station=\"" << station << "\"} "
           << FormatValue(sample->histogram.sum) << "\n";
        os << pname << "_count{station=\"" << station << "\"} "
           << sample->histogram.count << "\n";
      } else {
        os << pname << "{station=\"" << station << "\"} "
           << FormatValue(sample->value) << "\n";
      }
    }
  }
  return os.str();
}

std::string RenderFleetDashboard(const FleetStore& store, SimTime now,
                                 const DashboardOptions& options) {
  std::ostringstream os;
  char line[192];
  std::snprintf(line, sizeof(line),
                "==== FLEET DASHBOARD @ %.3f s ====", ToSecondsF(now));
  os << line << "\n";
  std::snprintf(line, sizeof(line), "%-12s %-6s %10s %8s %8s", "station",
                "state", "age(ms)", "metrics", "ingests");
  os << line << "\n";
  for (const std::string& station : store.Stations()) {
    const FleetStore::StationRecord* record = store.FindStation(station);
    const int64_t age_ms =
        record->ingests == 0 ? -1 : (now - record->last_ingest_at) /
                                        kMillisecond;
    std::snprintf(line, sizeof(line), "%-12s %-6s %10lld %8zu %8llu",
                  station.c_str(), record->stale ? "STALE" : "UP",
                  static_cast<long long>(age_ms), record->metrics.size(),
                  static_cast<unsigned long long>(record->ingests));
    os << line << "\n";
  }
  for (const std::string& query : options.queries) {
    os << ">> " << query << "\n";
    Result<QueryOutput> output = RunQuery(store, query, now);
    if (!output.ok()) {
      os << "   error: " << output.status().ToString() << "\n";
      continue;
    }
    if (output->rows.empty()) {
      os << "   (no data)\n";
      continue;
    }
    for (const QueryRow& row : output->rows) {
      std::string label = row.station.empty() ? "(fleet)" : row.station;
      if (!row.metric.empty()) {
        label += " " + row.metric;
      }
      std::snprintf(line, sizeof(line), "   %-40s %s", label.c_str(),
                    FormatValue(row.value).c_str());
      os << line << "\n";
    }
  }
  const std::string runtime = RenderRuntimeSection(store);
  if (!runtime.empty()) {
    os << "## runtime\n" << runtime;
  }
  for (const DashboardOptions::Section& section : options.sections) {
    os << "## " << section.title << "\n";
    os << section.body;
    if (!section.body.empty() && section.body.back() != '\n') {
      os << "\n";
    }
  }
  return os.str();
}

std::string RenderRuntimeSection(const FleetStore& store) {
  std::ostringstream os;
  char line[192];
  bool any = false;
  for (const std::string& station : store.Stations()) {
    if (!GlobMatch("zone-*", station)) {
      continue;
    }
    if (!any) {
      std::snprintf(line, sizeof(line), "%-8s %8s %10s %10s %10s %9s %9s",
                    "zone", "epochs", "run_p50us", "run_p99us", "wait_p99us",
                    "drained", "inbox_hwm");
      os << line << "\n";
      any = true;
    }
    auto value = [&store, &station](const std::string& metric) {
      const MetricSample* sample = store.FindLatest(station, metric);
      return sample == nullptr ? 0.0 : sample->value;
    };
    auto quantile = [&store, &station](const std::string& metric, double q) {
      const MetricSample* sample = store.FindLatest(station, metric);
      return sample == nullptr ? 0.0 : sample->histogram.Percentile(q);
    };
    std::snprintf(line, sizeof(line),
                  "%-8s %8.0f %10.1f %10.1f %10.1f %9.0f %9.0f",
                  station.c_str(), value("runtime.epochs"),
                  quantile("runtime.epoch_run_us", 0.5),
                  quantile("runtime.epoch_run_us", 0.99),
                  quantile("runtime.barrier_wait_us", 0.99),
                  value("runtime.drained_messages"),
                  value("runtime.inbox_high_watermark"));
    os << line << "\n";
  }
  return os.str();
}

}  // namespace espk
