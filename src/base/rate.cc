#include "src/base/rate.h"

#include <algorithm>

namespace espk {

void RateMeter::Record(SimTime now, uint64_t bytes) {
  total_bytes_ += bytes;
  if (!started_) {
    first_ = now;
    started_ = true;
  }
  last_ = std::max(last_, now);
}

double RateMeter::average_bps() const {
  if (!started_ || last_ <= first_) {
    return 0.0;
  }
  return static_cast<double>(total_bytes_) * 8.0 / ToSecondsF(last_ - first_);
}

}  // namespace espk
