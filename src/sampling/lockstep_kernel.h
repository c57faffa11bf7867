#ifndef DIGEST_SAMPLING_LOCKSTEP_KERNEL_H_
#define DIGEST_SAMPLING_LOCKSTEP_KERNEL_H_

#include <span>

#include "net/overlay_snapshot.h"
#include "numeric/rng.h"
#include "sampling/random_walk.h"

namespace digest {

/// The AVX-512F kernel behind StepCleanWalks (sampling/random_walk.h):
/// steps `walks` in groups of kLockstepLanes, one vector per group and
/// two groups interleaved, bit-identical to RandomWalk::Advance's coin
/// loop walk by walk. `walks.size()` must be a multiple of
/// kLockstepLanes, every position live, and LockstepKernelRuns(overlay,
/// lazy_coin) true. Only this kernel is compiled for AVX-512F; nothing
/// else in the build is.
void StepLockstepGroups(const OverlaySnapshot& overlay, Rng::Coin lazy_coin,
                        std::span<CleanWalk> walks);

}  // namespace digest

#endif  // DIGEST_SAMPLING_LOCKSTEP_KERNEL_H_
