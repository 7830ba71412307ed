// Snapshot model of the distributed telemetry plane: what one station's
// registry looks like at one instant, in a form that travels over the
// management protocol. A scrape serializes the station's whole registry —
// counters and gauges as values, histograms with their full bucket layout so
// the collector can answer quantile() queries without the station — and the
// collector deserializes it back into samples it can store and aggregate.
//
// The wire format is the usual length-prefixed little-endian encoding
// (src/base/bytes); a serialized snapshot is deliberately allowed to exceed
// a single datagram, because the mgmt layer fragments it into chunks.
#ifndef SRC_OBS_FEDERATION_SAMPLE_H_
#define SRC_OBS_FEDERATION_SAMPLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/base/time_types.h"
#include "src/obs/metrics.h"

namespace espk {

// Histogram state captured at scrape time. Percentile() matches
// Histogram::Percentile on the originating station exactly.
struct HistogramSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<int64_t> buckets;
  int64_t underflow = 0;
  int64_t overflow = 0;
  int64_t count = 0;
  double sum = 0.0;
  // Sparse OpenMetrics exemplars: (slot, exemplar) pairs for buckets that
  // captured one. Slot layout matches HistogramMetric::exemplars(): 0 =
  // underflow, 1..n = buckets, n+1 = overflow. Empty when the station
  // never made a traced observation.
  std::vector<std::pair<uint32_t, HistogramExemplar>> exemplars;

  double Percentile(double q) const;
};

struct MetricSample {
  std::string name;
  std::string help;
  Metric::Kind kind = Metric::Kind::kCounter;
  double value = 0.0;           // Counter / gauge value at scrape time.
  HistogramSnapshot histogram;  // Populated for kHistogram only.
};

// Everything one scrape of one station yields.
struct StationSnapshot {
  std::string station;
  SimTime at = 0;  // Station-side sim time of the snapshot.
  std::vector<MetricSample> samples;
  // Opaque serialized SpanBatch (src/obs/spans) — the station's causal-span
  // buffer riding the same scrape. Empty when the span plane is off; the
  // snapshot layer does not interpret it, the span assembler does.
  Bytes spans;

  Bytes Serialize() const;
  static Result<StationSnapshot> Deserialize(const uint8_t* data, size_t size);
  static Result<StationSnapshot> Deserialize(const Bytes& wire) {
    return Deserialize(wire.data(), wire.size());
  }
};

// Snapshots every metric of `registry` as of `at`.
StationSnapshot SnapshotRegistry(const MetricsRegistry& registry,
                                 std::string station, SimTime at);

}  // namespace espk

#endif  // SRC_OBS_FEDERATION_SAMPLE_H_
