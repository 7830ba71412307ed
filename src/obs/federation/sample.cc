#include "src/obs/federation/sample.h"

namespace espk {

namespace {

// Caps on deserialized array lengths: a corrupt or hostile snapshot must not
// turn into a multi-gigabyte allocation. Far above anything real stations
// produce.
constexpr uint32_t kMaxSamples = 16 * 1024;
constexpr uint32_t kMaxBuckets = 64 * 1024;

}  // namespace

double HistogramSnapshot::Percentile(double q) const {
  return BucketedPercentile(lo, hi, buckets, underflow, count, q);
}

Bytes StationSnapshot::Serialize() const {
  ByteWriter w;
  w.WriteString(station);
  w.WriteI64(at);
  w.WriteU32(static_cast<uint32_t>(samples.size()));
  for (const MetricSample& sample : samples) {
    w.WriteString(sample.name);
    w.WriteString(sample.help);
    w.WriteU8(static_cast<uint8_t>(sample.kind));
    w.WriteF64(sample.value);
    if (sample.kind == Metric::Kind::kHistogram) {
      const HistogramSnapshot& h = sample.histogram;
      w.WriteF64(h.lo);
      w.WriteF64(h.hi);
      w.WriteU32(static_cast<uint32_t>(h.buckets.size()));
      for (int64_t bucket : h.buckets) {
        w.WriteI64(bucket);
      }
      w.WriteI64(h.underflow);
      w.WriteI64(h.overflow);
      w.WriteI64(h.count);
      w.WriteF64(h.sum);
      w.WriteU32(static_cast<uint32_t>(h.exemplars.size()));
      for (const auto& [slot, exemplar] : h.exemplars) {
        w.WriteU32(slot);
        w.WriteF64(exemplar.value);
        w.WriteU64(exemplar.trace_id);
        w.WriteI64(exemplar.at);
      }
    }
  }
  w.WriteLengthPrefixed(spans);
  return w.TakeBytes();
}

Result<StationSnapshot> StationSnapshot::Deserialize(const uint8_t* data,
                                                     size_t size) {
  ByteReader r(data, size);
  StationSnapshot snapshot;
  ESPK_ASSIGN_OR_RETURN(snapshot.station, r.ReadString());
  ESPK_ASSIGN_OR_RETURN(snapshot.at, r.ReadI64());
  uint32_t sample_count = 0;
  ESPK_ASSIGN_OR_RETURN(sample_count, r.ReadU32());
  if (sample_count > kMaxSamples) {
    return DataLossError("implausible snapshot sample count");
  }
  snapshot.samples.reserve(sample_count);
  for (uint32_t i = 0; i < sample_count; ++i) {
    MetricSample sample;
    ESPK_ASSIGN_OR_RETURN(sample.name, r.ReadString());
    ESPK_ASSIGN_OR_RETURN(sample.help, r.ReadString());
    uint8_t kind = 0;
    ESPK_ASSIGN_OR_RETURN(kind, r.ReadU8());
    if (kind > static_cast<uint8_t>(Metric::Kind::kHistogram)) {
      return DataLossError("bad metric kind in snapshot");
    }
    sample.kind = static_cast<Metric::Kind>(kind);
    ESPK_ASSIGN_OR_RETURN(sample.value, r.ReadF64());
    if (sample.kind == Metric::Kind::kHistogram) {
      HistogramSnapshot& h = sample.histogram;
      ESPK_ASSIGN_OR_RETURN(h.lo, r.ReadF64());
      ESPK_ASSIGN_OR_RETURN(h.hi, r.ReadF64());
      uint32_t bucket_count = 0;
      ESPK_ASSIGN_OR_RETURN(bucket_count, r.ReadU32());
      if (bucket_count > kMaxBuckets) {
        return DataLossError("implausible snapshot bucket count");
      }
      h.buckets.reserve(bucket_count);
      for (uint32_t b = 0; b < bucket_count; ++b) {
        int64_t bucket = 0;
        ESPK_ASSIGN_OR_RETURN(bucket, r.ReadI64());
        h.buckets.push_back(bucket);
      }
      ESPK_ASSIGN_OR_RETURN(h.underflow, r.ReadI64());
      ESPK_ASSIGN_OR_RETURN(h.overflow, r.ReadI64());
      ESPK_ASSIGN_OR_RETURN(h.count, r.ReadI64());
      ESPK_ASSIGN_OR_RETURN(h.sum, r.ReadF64());
      uint32_t exemplar_count = 0;
      ESPK_ASSIGN_OR_RETURN(exemplar_count, r.ReadU32());
      if (exemplar_count > bucket_count + 2) {
        return DataLossError("implausible snapshot exemplar count");
      }
      h.exemplars.reserve(exemplar_count);
      for (uint32_t e = 0; e < exemplar_count; ++e) {
        uint32_t slot = 0;
        HistogramExemplar exemplar;
        exemplar.valid = true;
        ESPK_ASSIGN_OR_RETURN(slot, r.ReadU32());
        ESPK_ASSIGN_OR_RETURN(exemplar.value, r.ReadF64());
        ESPK_ASSIGN_OR_RETURN(exemplar.trace_id, r.ReadU64());
        ESPK_ASSIGN_OR_RETURN(exemplar.at, r.ReadI64());
        h.exemplars.emplace_back(slot, exemplar);
      }
    }
    snapshot.samples.push_back(std::move(sample));
  }
  ESPK_ASSIGN_OR_RETURN(snapshot.spans, r.ReadLengthPrefixed());
  return snapshot;
}

StationSnapshot SnapshotRegistry(const MetricsRegistry& registry,
                                 std::string station, SimTime at) {
  StationSnapshot snapshot;
  snapshot.station = std::move(station);
  snapshot.at = at;
  snapshot.samples.reserve(registry.entries().size());
  for (const auto& metric : registry.entries()) {
    MetricSample sample;
    sample.name = metric->name();
    sample.help = metric->help();
    sample.kind = metric->kind();
    switch (metric->kind()) {
      case Metric::Kind::kCounter:
        sample.value = static_cast<double>(
            static_cast<const Counter*>(metric.get())->value());
        break;
      case Metric::Kind::kGauge:
        sample.value = static_cast<const Gauge*>(metric.get())->Value();
        break;
      case Metric::Kind::kHistogram: {
        const auto* hm = static_cast<const HistogramMetric*>(metric.get());
        const Histogram& hist = hm->histogram();
        HistogramSnapshot& h = sample.histogram;
        h.lo = hist.lo();
        h.hi = hist.hi();
        h.buckets = hist.buckets();
        h.underflow = hist.underflow();
        h.overflow = hist.overflow();
        h.count = hist.count();
        h.sum = hm->running().sum();
        sample.value = h.sum;
        const auto& exemplars = hm->exemplars();
        for (uint32_t slot = 0; slot < exemplars.size(); ++slot) {
          if (exemplars[slot].valid) {
            h.exemplars.emplace_back(slot, exemplars[slot]);
          }
        }
        break;
      }
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

}  // namespace espk
