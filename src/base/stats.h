// Streaming statistics helpers used by tests and the benchmark harness:
// RunningStats (Welford mean/variance, min/max) and a fixed-bucket Histogram
// with percentile queries.
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace espk {

class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  void Reset();

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Histogram over [lo, hi) with uniform buckets; out-of-range samples land in
// saturating under/overflow buckets and still count toward percentiles.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void Add(double x);

  // Bucket a sample would land in: -1 for underflow, bucket_count() for
  // overflow, else the bucket index — the same binning Add() uses.
  int BucketIndex(double x) const;

  int64_t count() const { return count_; }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }
  int64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  // Value at quantile q in [0,1], linearly interpolated within the bucket.
  // q=0 reports lo; q=1 reports the upper edge of the highest populated
  // bucket, or hi when samples overflowed.
  double Percentile(double q) const;

  void Reset();

  // One bar per line, for quick terminal inspection.
  std::string Render(int max_width = 50) const;

  // Snapshot of the full bucket layout, serializable for the telemetry
  // scrape plane; BucketedPercentile reproduces Percentile() bit-for-bit
  // on the far side.
  const std::vector<int64_t>& buckets() const { return buckets_; }

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<int64_t> buckets_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t count_ = 0;
};

// Percentile over an explicit uniform-bucket layout — the implementation
// behind Histogram::Percentile, shared with consumers of deserialized
// histogram snapshots (the fleet collector) so both sides agree exactly.
double BucketedPercentile(double lo, double hi,
                          const std::vector<int64_t>& buckets,
                          int64_t underflow, int64_t count, double q);

}  // namespace espk

#endif  // SRC_BASE_STATS_H_
