// Heap-allocation counter for the traced binary. espk_perfbench_traced links
// alloc_count_on.cc (a counting global operator new); espk_perfbench links
// alloc_count_off.cc, so the end-to-end run pays nothing for it.
#ifndef PERFBENCH_HARNESS_ALLOC_COUNT_H_
#define PERFBENCH_HARNESS_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// True when this binary counts allocations.
bool AllocCountEnabled();
// Allocations made by the process so far (0 when not counting).
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ALLOC_COUNT_H_
