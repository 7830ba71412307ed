#include "harness/alloc_count.h"

namespace perfbench {

bool AllocCountEnabled() { return false; }
uint64_t AllocCount() { return 0; }

}  // namespace perfbench
