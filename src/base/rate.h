// Rate accounting: RateMeter turns byte counts into bits-per-second readings
// for the bandwidth experiments (C1, C6).
#ifndef SRC_BASE_RATE_H_
#define SRC_BASE_RATE_H_

#include <cstdint>

#include "src/base/time_types.h"

namespace espk {

// Accumulates byte counts over a window and reports average bits/second.
class RateMeter {
 public:
  void Record(SimTime now, uint64_t bytes);

  uint64_t total_bytes() const { return total_bytes_; }
  // Average over [first_record, last_record]; 0 if fewer than 2 records.
  double average_bps() const;

 private:
  uint64_t total_bytes_ = 0;
  SimTime first_ = 0;
  SimTime last_ = 0;
  bool started_ = false;
};

}  // namespace espk

#endif  // SRC_BASE_RATE_H_
