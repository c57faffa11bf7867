// MessageMeter accounting invariants: per-category counts always sum to
// Total() (including at saturation), losses stay out of the total, and
// a checkpoint decode overwrites every count.
#include "net/message_meter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/checkpoint_codec.h"
#include "common/json.h"

namespace digest {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

uint64_t SumOfCategories(const MessageMeter& meter) {
  uint64_t sum = 0;
  bool saturated = false;
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    const uint64_t c =
        meter.Count(static_cast<MessageMeter::Category>(i));
    if (kMax - sum < c) saturated = true;
    sum = saturated ? kMax : sum + c;
  }
  return sum;
}

TEST(MessageMeterTest, EveryCategoryCountsTowardTotal) {
  MessageMeter meter;
  // Charge each category a distinct amount through the typed helpers so
  // a helper wired to the wrong slot shows up as a mismatch.
  meter.AddWalkHop(1);
  meter.AddWeightProbe(2);
  meter.AddSampleTransfer(3);
  meter.AddRefresh(4);
  meter.AddPush(5);
  meter.AddRetry(6);
  meter.AddAgentRestart(7);
  meter.AddHedgeLaunch(8);
  meter.AddHedgedDuplicate(9);
  EXPECT_EQ(meter.walk_hops(), 1u);
  EXPECT_EQ(meter.weight_probes(), 2u);
  EXPECT_EQ(meter.sample_transfers(), 3u);
  EXPECT_EQ(meter.refreshes(), 4u);
  EXPECT_EQ(meter.pushes(), 5u);
  EXPECT_EQ(meter.retries(), 6u);
  EXPECT_EQ(meter.agent_restarts(), 7u);
  EXPECT_EQ(meter.hedge_launches(), 8u);
  EXPECT_EQ(meter.hedged_duplicates(), 9u);
  EXPECT_EQ(meter.Total(), 45u);
  EXPECT_EQ(meter.Total(), SumOfCategories(meter));
  EXPECT_EQ(meter.FaultOverhead(), 6u + 7u + 8u + 9u);
}

TEST(MessageMeterTest, LossesAnnotateButDoNotCount) {
  MessageMeter meter;
  meter.AddWalkHop(10);
  meter.AddLoss(3);
  EXPECT_EQ(meter.losses(), 3u);
  EXPECT_EQ(meter.Total(), 10u);
}

TEST(MessageMeterTest, CategorySaturationPropagatesToTotal) {
  MessageMeter meter;
  meter.AddWalkHop(kMax - 1);
  meter.AddWalkHop(5);  // Saturates the category, not wraps.
  EXPECT_EQ(meter.walk_hops(), kMax);
  EXPECT_EQ(meter.Total(), kMax);
  // More traffic in another category cannot wrap the total either.
  meter.AddPush(12345);
  EXPECT_EQ(meter.Total(), kMax);
  EXPECT_EQ(meter.Total(), SumOfCategories(meter));
}

TEST(MessageMeterTest, TotalSaturatesAcrossCategories) {
  MessageMeter meter;
  meter.AddWalkHop(kMax / 2 + 1);
  meter.AddPush(kMax / 2 + 1);
  // Neither category is saturated, but their sum overflows.
  EXPECT_EQ(meter.Total(), kMax);
  EXPECT_EQ(meter.Total(), SumOfCategories(meter));
}

TEST(MessageMeterTest, ResetClearsEverything) {
  MessageMeter meter;
  meter.AddRetry(4);
  meter.AddLoss(2);
  meter.Reset();
  EXPECT_EQ(meter.Total(), 0u);
  EXPECT_EQ(meter.losses(), 0u);
}

TEST(MessageMeterTest, DecodeOverwritesExactly) {
  MessageMeter saved;
  saved.AddWalkHop(7);
  saved.AddHedgedDuplicate(2);
  saved.AddLoss(5);
  std::string encoded;
  ckpt::Encode(&encoded, saved);
  MessageMeter meter;
  meter.AddWalkHop(100);
  meter.AddRefresh(3);
  meter.AddLoss(1);
  ASSERT_TRUE(ckpt::Decode(json::Parse(encoded).value(), &meter).ok());
  EXPECT_EQ(meter.walk_hops(), 7u);
  EXPECT_EQ(meter.hedged_duplicates(), 2u);
  EXPECT_EQ(meter.losses(), 5u);
  EXPECT_EQ(meter.Total(), 9u);
}

// ---------------------------------------------------------------------
// Merge algebra. The parallel walk executor accumulates each walk's
// messages into a thread-local meter and folds them into the shared
// meter post-barrier with Merge; determinism of the fold requires Merge
// to be commutative and associative (including at saturation), which
// these property tests pin down.
// ---------------------------------------------------------------------

/// Deterministic pseudo-random meter: charges every category (and
/// losses) an amount derived from `seed`, occasionally near-saturated.
MessageMeter ArbitraryMeter(uint64_t seed) {
  MessageMeter meter;
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Roughly 1 in 8 slots sits within a few units of saturation so
    // merged sums routinely cross UINT64_MAX.
    const uint64_t amount = (x % 8 == 0) ? kMax - (x % 5) : x % 100000;
    meter.Add(static_cast<MessageMeter::Category>(i), amount);
  }
  x ^= x << 13;
  x ^= x >> 7;
  meter.AddLoss(x % 1000);
  return meter;
}

void ExpectMetersEqual(const MessageMeter& a, const MessageMeter& b) {
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    const auto c = static_cast<MessageMeter::Category>(i);
    EXPECT_EQ(a.Count(c), b.Count(c)) << "category " << i;
  }
  EXPECT_EQ(a.losses(), b.losses());
}

TEST(MessageMeterTest, MergeAddsEveryCategoryAndLosses) {
  MessageMeter a;
  a.AddWalkHop(3);
  a.AddLoss(1);
  MessageMeter b;
  b.AddWalkHop(4);
  b.AddWeightProbe(7);
  b.AddLoss(2);
  a.Merge(b);
  EXPECT_EQ(a.Count(MessageMeter::Category::kWalkHop), 7u);
  EXPECT_EQ(a.Count(MessageMeter::Category::kWeightProbe), 7u);
  EXPECT_EQ(a.losses(), 3u);
  // The merged-from meter is untouched.
  EXPECT_EQ(b.Count(MessageMeter::Category::kWalkHop), 4u);
}

TEST(MessageMeterTest, MergeIsCommutative) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    MessageMeter ab = ArbitraryMeter(seed);
    ab.Merge(ArbitraryMeter(seed + 1000));
    MessageMeter ba = ArbitraryMeter(seed + 1000);
    ba.Merge(ArbitraryMeter(seed));
    ExpectMetersEqual(ab, ba);
  }
}

TEST(MessageMeterTest, MergeIsAssociative) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    // (a + b) + c
    MessageMeter left = ArbitraryMeter(seed);
    left.Merge(ArbitraryMeter(seed + 1000));
    left.Merge(ArbitraryMeter(seed + 2000));
    // a + (b + c)
    MessageMeter bc = ArbitraryMeter(seed + 1000);
    bc.Merge(ArbitraryMeter(seed + 2000));
    MessageMeter right = ArbitraryMeter(seed);
    right.Merge(bc);
    ExpectMetersEqual(left, right);
  }
}

TEST(MessageMeterTest, MergeSaturatesPerCategory) {
  MessageMeter a;
  a.AddWalkHop(kMax - 1);
  MessageMeter b;
  b.AddWalkHop(5);
  b.AddRefresh(2);
  a.Merge(b);
  EXPECT_EQ(a.Count(MessageMeter::Category::kWalkHop), kMax);
  EXPECT_EQ(a.Count(MessageMeter::Category::kRefresh), 2u);
  // Saturation is absorbing: further merges keep the slot pinned while
  // other slots keep counting.
  a.Merge(b);
  EXPECT_EQ(a.Count(MessageMeter::Category::kWalkHop), kMax);
  EXPECT_EQ(a.Count(MessageMeter::Category::kRefresh), 4u);
}

TEST(MessageMeterTest, MergeOfEmptyMeterIsIdentity) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    MessageMeter a = ArbitraryMeter(seed);
    const MessageMeter before = a;
    a.Merge(MessageMeter());
    ExpectMetersEqual(a, before);
    // Empty + a == a as well.
    MessageMeter empty;
    empty.Merge(before);
    ExpectMetersEqual(empty, before);
  }
}

}  // namespace
}  // namespace digest
