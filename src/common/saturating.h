#ifndef DIGEST_COMMON_SATURATING_H_
#define DIGEST_COMMON_SATURATING_H_

#include <cstdint>

namespace digest {

/// a + b, pinned at UINT64_MAX instead of wrapping. For counters and
/// budgets that a saturated cost (BackoffCost, a +inf hop budget) can
/// reach: a total past the ceiling must stay there, not wrap to a small
/// number.
inline uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return UINT64_MAX;
  return sum;
}

}  // namespace digest

#endif  // DIGEST_COMMON_SATURATING_H_
