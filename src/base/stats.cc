#include "src/base/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace espk {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Reset() { *this = RunningStats(); }

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo),
      hi_(hi),
      bucket_width_((hi - lo) / buckets),
      buckets_(static_cast<size_t>(buckets), 0) {
  assert(hi > lo && buckets > 0);
}

void Histogram::Add(double x) {
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<size_t>((x - lo_) / bucket_width_);
  idx = std::min(idx, buckets_.size() - 1);
  ++buckets_[idx];
}

int Histogram::BucketIndex(double x) const {
  if (x < lo_) {
    return -1;
  }
  if (x >= hi_) {
    return bucket_count();
  }
  auto idx = static_cast<size_t>((x - lo_) / bucket_width_);
  idx = std::min(idx, buckets_.size() - 1);
  return static_cast<int>(idx);
}

double BucketedPercentile(double lo, double hi,
                          const std::vector<int64_t>& buckets,
                          int64_t underflow, int64_t count, double q) {
  assert(q >= 0.0 && q <= 1.0);
  if (count == 0 || buckets.empty()) {
    return lo;
  }
  const double bucket_width = (hi - lo) / static_cast<double>(buckets.size());
  double target = q * static_cast<double>(count);
  double seen = static_cast<double>(underflow);
  if (seen >= target) {
    return lo;
  }
  for (size_t i = 0; i < buckets.size(); ++i) {
    double next = seen + static_cast<double>(buckets[i]);
    if (next >= target && buckets[i] > 0) {
      double frac = (target - seen) / static_cast<double>(buckets[i]);
      return lo + (static_cast<double>(i) + frac) * bucket_width;
    }
    seen = next;
  }
  return hi;
}

double Histogram::Percentile(double q) const {
  return BucketedPercentile(lo_, hi_, buckets_, underflow_, count_, q);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
}

std::string Histogram::Render(int max_width) const {
  int64_t peak = 1;
  for (int64_t b : buckets_) {
    peak = std::max(peak, b);
  }
  std::ostringstream os;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    double lo = lo_ + static_cast<double>(i) * bucket_width_;
    auto width = static_cast<int>(buckets_[i] * max_width / peak);
    os << lo << "\t" << std::string(static_cast<size_t>(width), '#') << " "
       << buckets_[i] << "\n";
  }
  if (underflow_ > 0) {
    os << "(underflow " << underflow_ << ")\n";
  }
  if (overflow_ > 0) {
    os << "(overflow " << overflow_ << ")\n";
  }
  return os.str();
}

}  // namespace espk
