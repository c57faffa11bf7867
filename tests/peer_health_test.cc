// Unit tests for the peer-health layer (src/net/peer_health): the
// phi-accrual suspicion model, the breaker state machine
// (closed -> open -> half-open, with flap accounting), the quarantine
// view and supervisor flip, the tracer purity contract, and the
// checkpoint state codec.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "common/checkpoint_codec.h"
#include "common/json.h"
#include "net/peer_health.h"
#include "obs/tracer.h"

namespace digest {
namespace {

// Folds `n` failures for `peer`, one outcome per fold (the granularity
// walks actually record at).
void FoldFailures(PeerHealthMonitor* monitor, NodeId peer, int n) {
  for (int i = 0; i < n; ++i) {
    WalkHealthBuffer buffer;
    buffer.RecordFailure(peer);
    monitor->FoldWalk(buffer);
  }
}

void FoldSuccesses(PeerHealthMonitor* monitor, NodeId peer, int n) {
  for (int i = 0; i < n; ++i) {
    WalkHealthBuffer buffer;
    buffer.RecordSuccess(peer);
    monitor->FoldWalk(buffer);
  }
}

// With the monitor's constants (initial interval 1, phi_open 2) a
// never-seen peer needs ceil(2 * ln 10) = 5 consecutive failures to
// cross the open threshold; the failure floor (3) is already met by
// then.
constexpr int kFailuresToOpen = 5;

TEST(PeerHealthTest, SuspicionAccruesAndLatchesOncePerExcursion) {
  PeerHealthMonitor monitor;
  monitor.set_now(0);

  // Two failures: phi = 2 / ln 10 < 1, below the suspect threshold.
  FoldFailures(&monitor, 7, 2);
  EXPECT_EQ(monitor.suspects(), 0u);
  // Third failure crosses phi_suspect = 1 — announced exactly once.
  FoldFailures(&monitor, 7, 1);
  EXPECT_EQ(monitor.suspects(), 1u);
  FoldFailures(&monitor, 7, 1);
  EXPECT_EQ(monitor.suspects(), 1u) << "suspect latched per excursion";

  // A delivery ends the excursion; the next sustained failure run is a
  // fresh suspicion.
  FoldSuccesses(&monitor, 7, 1);
  FoldFailures(&monitor, 7, 3);
  EXPECT_EQ(monitor.suspects(), 2u);

  EXPECT_EQ(monitor.outcomes_folded(), 8u);
  EXPECT_EQ(monitor.successes(), 1u);
  EXPECT_EQ(monitor.failures(), 7u);
  EXPECT_EQ(monitor.peers_tracked(), 1u);
}

TEST(PeerHealthTest, BreakerOpensOnSustainedFailureAndQuarantines) {
  PeerHealthMonitor monitor;
  monitor.set_now(0);

  FoldFailures(&monitor, 3, kFailuresToOpen - 1);
  EXPECT_EQ(monitor.StateOf(3), BreakerState::kClosed);
  EXPECT_EQ(monitor.quarantined(), 0u);
  FoldFailures(&monitor, 3, 1);
  EXPECT_EQ(monitor.StateOf(3), BreakerState::kOpen);
  EXPECT_EQ(monitor.opens(), 1u);
  EXPECT_EQ(monitor.quarantined(), 1u);

  const QuarantineView view = monitor.SnapshotView();
  EXPECT_TRUE(view.Any());
  EXPECT_EQ(view.count(), 1u);
  EXPECT_TRUE(view.Quarantined(3));
  EXPECT_FALSE(view.Quarantined(2));
  // Ids beyond the tracked range are never quarantined.
  EXPECT_FALSE(view.Quarantined(1000));

  // Never-seen peers answer closed.
  EXPECT_EQ(monitor.StateOf(999), BreakerState::kClosed);
}

TEST(PeerHealthTest, CooldownOpensTrialWindowAndSuccessesClose) {
  PeerHealthMonitor monitor;  // Cooldown 8, 2 successes close.
  monitor.set_now(0);
  FoldFailures(&monitor, 0, kFailuresToOpen);
  ASSERT_EQ(monitor.StateOf(0), BreakerState::kOpen);

  // The cooldown has not elapsed: still quarantined.
  monitor.set_now(7);
  EXPECT_EQ(monitor.StateOf(0), BreakerState::kOpen);
  // At open_until the breaker ages into its trial window; half-open
  // peers are routed again (not in the quarantine view).
  monitor.set_now(8);
  EXPECT_EQ(monitor.StateOf(0), BreakerState::kHalfOpen);
  EXPECT_FALSE(monitor.SnapshotView().Any());
  EXPECT_EQ(monitor.quarantined(), 0u);

  FoldSuccesses(&monitor, 0, 1);
  EXPECT_EQ(monitor.StateOf(0), BreakerState::kHalfOpen);
  FoldSuccesses(&monitor, 0, 1);
  EXPECT_EQ(monitor.StateOf(0), BreakerState::kClosed);
  EXPECT_EQ(monitor.closes(), 1u);
  EXPECT_EQ(monitor.reopens(), 0u);
  EXPECT_EQ(monitor.FlapRate(), 0.0);
}

TEST(PeerHealthTest, TrialFailureReopensAndCountsTowardFlapRate) {
  PeerHealthMonitor monitor;
  monitor.set_now(0);
  FoldFailures(&monitor, 5, kFailuresToOpen);
  ASSERT_EQ(monitor.StateOf(5), BreakerState::kOpen);
  monitor.set_now(8);
  ASSERT_EQ(monitor.StateOf(5), BreakerState::kHalfOpen);

  // One failed trial probe re-opens for a fresh cooldown.
  FoldFailures(&monitor, 5, 1);
  EXPECT_EQ(monitor.StateOf(5), BreakerState::kOpen);
  EXPECT_EQ(monitor.opens(), 1u);
  EXPECT_EQ(monitor.reopens(), 1u);
  EXPECT_DOUBLE_EQ(monitor.FlapRate(), 0.5);
  EXPECT_EQ(monitor.quarantined(), 1u);

  // The fresh cooldown runs from the re-open, not the original open.
  monitor.set_now(15);
  EXPECT_EQ(monitor.StateOf(5), BreakerState::kOpen);
  monitor.set_now(16);
  EXPECT_EQ(monitor.StateOf(5), BreakerState::kHalfOpen);
}

TEST(PeerHealthTest, AblatedMonitorScoresButNeverOpens) {
  PeerHealthMonitor monitor(/*breakers_enabled=*/false);
  monitor.set_now(0);

  FoldFailures(&monitor, 2, 50);
  // Suspicion stays live (the ablation is observable)...
  EXPECT_EQ(monitor.suspects(), 1u);
  EXPECT_EQ(monitor.failures(), 50u);
  // ...but routing is untouched: no breaker ever opens.
  EXPECT_EQ(monitor.opens(), 0u);
  EXPECT_EQ(monitor.breaker_transitions(), 0u);
  EXPECT_EQ(monitor.quarantined(), 0u);
  EXPECT_EQ(monitor.StateOf(2), BreakerState::kClosed);
  EXPECT_FALSE(monitor.SnapshotView().Any());

  // And the supervisor flip never latches either.
  monitor.FinishBatch(2);
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());
}

TEST(PeerHealthTest, QuarantineFractionLatchesOneSupervisorFlip) {
  PeerHealthMonitor monitor;  // Degrade fraction 0.5.
  monitor.set_now(0);
  FoldFailures(&monitor, 0, kFailuresToOpen);
  ASSERT_EQ(monitor.quarantined(), 1u);

  // 1 of 4 routed peers: below the threshold, no flip.
  monitor.FinishBatch(4);
  EXPECT_DOUBLE_EQ(monitor.QuarantineFraction(), 0.25);
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());

  // 1 of 2: at the threshold — exactly one flip, latched across
  // further batches at the same fraction.
  monitor.FinishBatch(2);
  EXPECT_TRUE(monitor.TakePendingQuarantineFlip());
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());
  monitor.FinishBatch(2);
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());

  // Healing clears the latch; a fresh crossing flips again.
  monitor.set_now(8);
  FoldSuccesses(&monitor, 0, 2);
  ASSERT_EQ(monitor.quarantined(), 0u);
  monitor.FinishBatch(2);
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());
  monitor.set_now(9);
  FoldFailures(&monitor, 0, kFailuresToOpen);
  monitor.FinishBatch(2);
  EXPECT_TRUE(monitor.TakePendingQuarantineFlip());
  EXPECT_FALSE(monitor.TakePendingQuarantineFlip());
}

TEST(PeerHealthTest, QuarantineSinceReadStampsOccasionsOnce) {
  PeerHealthMonitor monitor;
  monitor.set_now(0);
  monitor.FinishBatch(10);
  EXPECT_FALSE(monitor.TakeQuarantineSinceLastRead());

  FoldFailures(&monitor, 1, kFailuresToOpen);
  monitor.FinishBatch(10);
  EXPECT_TRUE(monitor.TakeQuarantineSinceLastRead());
  // The flag clears on read and only re-arms at the next quarantined
  // batch.
  EXPECT_FALSE(monitor.TakeQuarantineSinceLastRead());
  monitor.FinishBatch(10);
  EXPECT_TRUE(monitor.TakeQuarantineSinceLastRead());
}

TEST(PeerHealthTest, TracerIsPureObservationAndEmitsTheEventStream) {
  obs::MemoryTracer tracer;
  PeerHealthMonitor traced;
  traced.SetTracer(&tracer);
  PeerHealthMonitor silent;

  for (PeerHealthMonitor* m : {&traced, &silent}) {
    m->set_now(0);
    FoldFailures(m, 4, kFailuresToOpen);
    m->set_now(8);
    FoldFailures(m, 4, 1);  // Trial failure: re-open.
    m->set_now(16);
    FoldSuccesses(m, 4, 2);  // Trial successes: close.
    m->FinishBatch(20);
  }

  // Attaching a tracer never changes the health state.
  EXPECT_EQ(traced.SummaryJson(), silent.SummaryJson());

  size_t suspect_events = 0;
  std::vector<std::pair<std::string, std::string>> transitions;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (const auto* s =
            std::get_if<obs::PeerSuspectEvent>(&event.payload)) {
      ++suspect_events;
      EXPECT_EQ(s->peer, 4u);
      EXPECT_GE(s->phi, 1.0);
    } else if (const auto* b = std::get_if<obs::BreakerTransitionEvent>(
                   &event.payload)) {
      EXPECT_EQ(b->peer, 4u);
      transitions.emplace_back(b->from, b->to);
    }
  }
  EXPECT_EQ(suspect_events, traced.suspects());
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"closed", "open"},       {"open", "half_open"},
      {"half_open", "open"},    {"open", "half_open"},
      {"half_open", "closed"},
  };
  EXPECT_EQ(transitions, expected);
  EXPECT_EQ(traced.breaker_transitions(), expected.size());
}

// Drives a monitor into a state exercising every PeerState field: one
// open peer, one half-open peer mid-trial, one closed peer with EWMA
// history, plus a pending supervisor flip.
void DriveRichState(PeerHealthMonitor* monitor) {
  monitor->set_now(0);
  FoldSuccesses(monitor, 0, 1);
  monitor->set_now(3);
  FoldSuccesses(monitor, 0, 1);  // Closed, with an interval estimate.
  FoldFailures(monitor, 1, kFailuresToOpen);  // Opens; cooldown to 11.
  FoldFailures(monitor, 2, kFailuresToOpen);
  monitor->set_now(11);  // Ages BOTH breakers into half-open...
  FoldSuccesses(monitor, 2, 1);  // ...peer 2 one trial success in,
  FoldFailures(monitor, 1, 1);   // ...peer 1 re-opened (cooldown to 19).
  monitor->FinishBatch(2);       // 1 of 2 quarantined: flip pending.
}

TEST(PeerHealthTest, StateCodecRoundTripsByteIdentically) {
  PeerHealthMonitor original;
  DriveRichState(&original);

  const PeerHealthMonitor::State state = original.SaveState();
  std::string encoded;
  ckpt::Encode(&encoded, state);
  const Result<json::Value> doc = json::Parse(encoded);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  PeerHealthMonitor::State decoded;
  const Status read = ckpt::Decode(*doc, &decoded);
  ASSERT_TRUE(read.ok()) << read.message();

  PeerHealthMonitor restored;
  restored.RestoreState(decoded);

  // Re-encoding the restored state is byte-identical, and so is the
  // summary the bench gates byte-compare.
  std::string re_encoded;
  ckpt::Encode(&re_encoded, restored.SaveState());
  EXPECT_EQ(encoded, re_encoded);
  EXPECT_EQ(original.SummaryJson(), restored.SummaryJson());
  EXPECT_EQ(restored.StateOf(1), BreakerState::kOpen);
  EXPECT_EQ(restored.StateOf(2), BreakerState::kHalfOpen);
  EXPECT_EQ(restored.quarantined(), original.quarantined());

  // The restored monitor CONTINUES identically: same clock advances,
  // same outcomes, same resulting state — the checkpoint/restore
  // bit-identity the engine test relies on, at monitor granularity.
  for (PeerHealthMonitor* m : {&original, &restored}) {
    m->set_now(19);  // Ages peer 1 (re-opened at t=11) to half-open.
    FoldSuccesses(m, 1, 2);
    FoldFailures(m, 0, 2);
    m->FinishBatch(3);
  }
  EXPECT_EQ(original.SummaryJson(), restored.SummaryJson());
  EXPECT_EQ(original.TakePendingQuarantineFlip(),
            restored.TakePendingQuarantineFlip());
  std::string a, b;
  ckpt::Encode(&a, original.SaveState());
  ckpt::Encode(&b, restored.SaveState());
  EXPECT_EQ(a, b);
}

TEST(PeerHealthTest, ParseStateJsonValidatesBeforeReturning) {
  PeerHealthMonitor monitor;
  DriveRichState(&monitor);
  std::string encoded;
  ckpt::Encode(&encoded, monitor.SaveState());

  {  // A breaker ladder index outside [0, 2] is rejected.
    std::string bad = encoded;
    const size_t pos = bad.find("\"breaker\":");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 12, "\"breaker\":7,");
    const Result<json::Value> doc = json::Parse(bad);
    ASSERT_TRUE(doc.ok());
    PeerHealthMonitor::State decoded;
    EXPECT_FALSE(ckpt::Decode(*doc, &decoded).ok());
  }
  {  // A missing counter is rejected (parse-all-then-install: the
     // engine installs nothing on failure).
    std::string bad = encoded;
    const size_t pos = bad.find("\"batches\":");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 10, "\"botches\":");
    const Result<json::Value> doc = json::Parse(bad);
    ASSERT_TRUE(doc.ok());
    PeerHealthMonitor::State decoded;
    EXPECT_FALSE(ckpt::Decode(*doc, &decoded).ok());
  }
}

TEST(PeerHealthTest, ResetClearsStateButKeepsConfigAndTracer) {
  for (const bool breakers : {true, false}) {
    obs::MemoryTracer tracer;
    PeerHealthMonitor monitor(breakers);
    monitor.SetTracer(&tracer);
    DriveRichState(&monitor);
    ASSERT_GT(monitor.outcomes_folded(), 0u);

    monitor.Reset();
    EXPECT_EQ(monitor.outcomes_folded(), 0u);
    EXPECT_EQ(monitor.quarantined(), 0u);
    EXPECT_EQ(monitor.batches(), 0u);
    EXPECT_EQ(monitor.peers_tracked(), 0u);
    EXPECT_FALSE(monitor.TakePendingQuarantineFlip());

    // The tracer and the breaker dial survived the reset: new suspicion
    // still emits, and a breaker opens exactly when breakers are on.
    tracer.Clear();
    monitor.set_now(0);
    FoldFailures(&monitor, 0, kFailuresToOpen);
    EXPECT_FALSE(tracer.events().empty());
    EXPECT_EQ(monitor.StateOf(0),
              breakers ? BreakerState::kOpen : BreakerState::kClosed);
  }
}

}  // namespace
}  // namespace digest
