#ifndef DIGEST_NET_MESSAGE_METER_H_
#define DIGEST_NET_MESSAGE_METER_H_

#include <cstddef>
#include <cstdint>

#include "common/saturating.h"

namespace digest {

/// Communication-cost accounting (the efficiency metric of §VI-B3).
///
/// Every component that sends simulated messages charges them here, by
/// category, so benches can report both totals and breakdowns. One meter
/// instance is shared per experiment run.
///
/// Counts live in a single category-indexed array and Total() sums that
/// array, so a new category can never silently drift out of the total
/// (the bug class bench/regress comparisons would otherwise inherit).
///
/// Under fault injection (net/fault_plan.h) robustness categories join
/// the original five: retries (retransmissions after a lost message),
/// agent restarts (re-injecting a walk agent lost in transit), hedge
/// launches (redundant straggler-mitigation walks), and hedged
/// duplicates (the losing walk's delivery, suppressed at the query
/// node). Losses annotate sends that were already counted in another
/// category (the first transmission of a probe is charged as a probe
/// whether or not it arrives), so Total() deliberately excludes them —
/// including them would double-count bandwidth.
class MessageMeter {
 public:
  /// Send categories. Every value below kCount is summed by Total().
  enum class Category : size_t {
    kWalkHop = 0,
    kWeightProbe,
    kSampleTransfer,
    kRefresh,
    kPush,
    kRetry,
    kAgentRestart,
    kHedgeLaunch,
    kHedgedDuplicate,
    kCount,
  };
  static constexpr size_t kNumCategories = static_cast<size_t>(Category::kCount);

  /// Charges `n` messages to `c`. Saturates at UINT64_MAX.
  void Add(Category c, uint64_t n = 1) {
    uint64_t& slot = counts_[static_cast<size_t>(c)];
    slot = SatAdd(slot, n);
  }

  /// Count currently charged to `c`.
  uint64_t Count(Category c) const { return counts_[static_cast<size_t>(c)]; }

  /// One hop of a random-walk sampling agent (node-to-node forward).
  void AddWalkHop(uint64_t n = 1) { Add(Category::kWalkHop, n); }

  /// One neighbor-weight probe (node i asking neighbor j for w_j when
  /// computing Metropolis forwarding probabilities).
  void AddWeightProbe(uint64_t n = 1) { Add(Category::kWeightProbe, n); }

  /// Returning a sampled tuple from the sampled node to the query node.
  void AddSampleTransfer(uint64_t n = 1) { Add(Category::kSampleTransfer, n); }

  /// Re-evaluating a retained (repeated-sampling) sample at a known node.
  void AddRefresh(uint64_t n = 1) { Add(Category::kRefresh, n); }

  /// Push-based baseline traffic (tuples/updates pushed toward the
  /// querying node), in per-hop messages.
  void AddPush(uint64_t n = 1) { Add(Category::kPush, n); }

  /// Retransmission of a message whose previous attempt was lost.
  void AddRetry(uint64_t n = 1) { Add(Category::kRetry, n); }

  /// Re-injection of a walk agent lost in transit.
  void AddAgentRestart(uint64_t n = 1) { Add(Category::kAgentRestart, n); }

  /// Injection of a redundant (hedged) walk agent racing a straggler.
  void AddHedgeLaunch(uint64_t n = 1) { Add(Category::kHedgeLaunch, n); }

  /// Delivery from the losing walk of a hedged pair, suppressed as a
  /// duplicate at the query node (bandwidth was still spent).
  void AddHedgedDuplicate(uint64_t n = 1) {
    Add(Category::kHedgedDuplicate, n);
  }

  /// Annotates a transmission (already charged elsewhere) as lost.
  void AddLoss(uint64_t n = 1) { losses_ = SatAdd(losses_, n); }

  uint64_t walk_hops() const { return Count(Category::kWalkHop); }
  uint64_t weight_probes() const { return Count(Category::kWeightProbe); }
  uint64_t sample_transfers() const { return Count(Category::kSampleTransfer); }
  uint64_t refreshes() const { return Count(Category::kRefresh); }
  uint64_t pushes() const { return Count(Category::kPush); }
  uint64_t retries() const { return Count(Category::kRetry); }
  uint64_t agent_restarts() const { return Count(Category::kAgentRestart); }
  uint64_t hedge_launches() const { return Count(Category::kHedgeLaunch); }
  uint64_t hedged_duplicates() const {
    return Count(Category::kHedgedDuplicate);
  }
  uint64_t losses() const { return losses_; }

  /// Grand total over all send categories (losses excluded — they
  /// annotate sends already counted). Saturates at UINT64_MAX instead of
  /// wrapping. Because this loops over the same array Add() writes, the
  /// per-category counts always sum to Total() (up to saturation).
  uint64_t Total() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kNumCategories; ++i) {
      total = SatAdd(total, counts_[i]);
    }
    return total;
  }

  /// Messages attributable to fault recovery (the robustness overhead a
  /// bench reports next to the base cost).
  uint64_t FaultOverhead() const {
    uint64_t overhead = SatAdd(retries(), agent_restarts());
    overhead = SatAdd(overhead, hedge_launches());
    return SatAdd(overhead, hedged_duplicates());
  }

  /// Folds another meter's counts into this one (saturating per
  /// category, losses included). Saturating addition is commutative and
  /// associative — min(a+b, MAX) in any grouping — so merging per-walk
  /// meters in any order yields identical counts; the parallel executor
  /// still merges in walk-index order for uniformity with the other
  /// merge steps. Property-tested in message_meter_test.cc.
  void Merge(const MessageMeter& other) {
    for (size_t i = 0; i < kNumCategories; ++i) {
      counts_[i] = SatAdd(counts_[i], other.counts_[i]);
    }
    losses_ = SatAdd(losses_, other.losses_);
  }

  /// Resets all counters to zero.
  void Reset() { *this = MessageMeter(); }

  /// Checkpoint field list (common/checkpoint_codec.h): the engine
  /// checkpoint's "meter" section is a whole meter.
  template <class V>
  void Fields(V& v) {
    v("counts", counts_);
    v("losses", losses_);
  }

 private:
  uint64_t counts_[kNumCategories] = {};
  uint64_t losses_ = 0;
};

}  // namespace digest

#endif  // DIGEST_NET_MESSAGE_METER_H_
