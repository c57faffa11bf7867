// Session-health state machine: transition rules, streak thresholds,
// trace emission, registry export, and checkpoint round-trip.
#include "core/supervisor.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace {

using Outcome = SnapshotOutcome;

TEST(SupervisorTest, StartsHealthyAndStaysHealthyOnSuccess) {
  SessionSupervisor sup;
  EXPECT_EQ(sup.health(), SessionHealth::kHealthy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sup.RecordOutcome(Outcome::kMetContract),
              SessionHealth::kHealthy);
  }
  EXPECT_EQ(sup.transitions(), 0u);
  EXPECT_EQ(sup.outcome_count(Outcome::kMetContract), 5u);
}

TEST(SupervisorTest, AnyFailureDegradesAndOneSuccessHeals) {
  for (Outcome failure :
       {Outcome::kWidenedCi, Outcome::kPartial, Outcome::kTimeout}) {
    SessionSupervisor sup;
    EXPECT_EQ(sup.RecordOutcome(failure), SessionHealth::kDegraded);
    // Shallow degradation heals on a single contract-meeting snapshot.
    EXPECT_EQ(sup.RecordOutcome(Outcome::kMetContract),
              SessionHealth::kHealthy);
  }
}

TEST(SupervisorTest, FailureStreakReachesStale) {
  SessionSupervisor sup;  // Stale after a 3-failure streak.
  EXPECT_EQ(sup.RecordOutcome(Outcome::kTimeout), SessionHealth::kDegraded);
  EXPECT_EQ(sup.RecordOutcome(Outcome::kTimeout), SessionHealth::kDegraded);
  EXPECT_EQ(sup.RecordOutcome(Outcome::kTimeout), SessionHealth::kStale);
  // Further failures keep it stale.
  EXPECT_EQ(sup.RecordOutcome(Outcome::kWidenedCi), SessionHealth::kStale);
}

TEST(SupervisorTest, RecoveryRequiresSuccessStreak) {
  SessionSupervisor sup;  // Healthy again after a 2-success streak.
  sup.RecordOutcome(Outcome::kTimeout);
  sup.RecordOutcome(Outcome::kTimeout);
  sup.RecordOutcome(Outcome::kTimeout);
  ASSERT_EQ(sup.health(), SessionHealth::kStale);
  // First success: probation, not trust.
  EXPECT_EQ(sup.RecordOutcome(Outcome::kMetContract),
            SessionHealth::kRecovering);
  // Relapse during probation drops straight back to stale.
  EXPECT_EQ(sup.RecordOutcome(Outcome::kPartial), SessionHealth::kStale);
  // A full success streak climbs out.
  EXPECT_EQ(sup.RecordOutcome(Outcome::kMetContract),
            SessionHealth::kRecovering);
  EXPECT_EQ(sup.RecordOutcome(Outcome::kMetContract),
            SessionHealth::kHealthy);
}

TEST(SupervisorTest, EmitsSupervisorStateEventsOnTransitionsOnly) {
  obs::MemoryTracer tracer;
  SessionSupervisor sup;
  sup.SetTracer(&tracer);
  sup.RecordOutcome(Outcome::kMetContract);  // No transition, no event.
  sup.RecordOutcome(Outcome::kTimeout);      // HEALTHY -> DEGRADED.
  sup.RecordOutcome(Outcome::kTimeout);      // No transition yet.
  ASSERT_EQ(tracer.events().size(), 1u);
  const auto* ev = std::get_if<obs::SupervisorStateEvent>(
      &tracer.events()[0].payload);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->from, "healthy");
  EXPECT_EQ(ev->to, "degraded");
  EXPECT_EQ(ev->outcome, "timeout");
  EXPECT_EQ(ev->consecutive, 1u);
}

TEST(SupervisorTest, ExportsOutcomeAndTransitionCounters) {
  SessionSupervisor sup;
  sup.RecordOutcome(Outcome::kMetContract);
  sup.RecordOutcome(Outcome::kTimeout);    // healthy -> degraded
  sup.RecordOutcome(Outcome::kMetContract);  // degraded -> healthy
  obs::Registry registry;
  sup.ExportToRegistry(&registry);
  EXPECT_EQ(registry
                .GetCounter("supervisor.outcomes",
                            {{"outcome", "met_contract"}})
                ->value(),
            2u);
  EXPECT_EQ(registry
                .GetCounter("supervisor.outcomes", {{"outcome", "timeout"}})
                ->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("supervisor.transitions",
                            {{"from", "healthy"}, {"to", "degraded"}})
                ->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("supervisor.transitions",
                            {{"from", "degraded"}, {"to", "healthy"}})
                ->value(),
            1u);
  EXPECT_EQ(registry.GetGauge("supervisor.state")->value(), 0.0);
}

TEST(SupervisorTest, SaveRestoreRoundTripsTheMachine) {
  SessionSupervisor sup;
  sup.RecordOutcome(Outcome::kTimeout);
  sup.RecordOutcome(Outcome::kTimeout);
  sup.RecordOutcome(Outcome::kPartial);
  ASSERT_EQ(sup.health(), SessionHealth::kStale);
  const SessionSupervisor::State saved = sup.SaveState();

  SessionSupervisor restored;
  restored.RestoreState(saved);
  EXPECT_EQ(restored.health(), SessionHealth::kStale);
  EXPECT_EQ(restored.consecutive_failures(), sup.consecutive_failures());
  EXPECT_EQ(restored.outcome_count(Outcome::kPartial), 1u);
  EXPECT_EQ(restored.transitions(), sup.transitions());
  // The restored machine continues exactly where the original would:
  // both see the same next transition.
  EXPECT_EQ(restored.RecordOutcome(Outcome::kMetContract),
            sup.RecordOutcome(Outcome::kMetContract));
}

TEST(SupervisorTest, NamesAreStable) {
  EXPECT_STREQ(SessionHealthName(SessionHealth::kHealthy), "healthy");
  EXPECT_STREQ(SessionHealthName(SessionHealth::kDegraded), "degraded");
  EXPECT_STREQ(SessionHealthName(SessionHealth::kStale), "stale");
  EXPECT_STREQ(SessionHealthName(SessionHealth::kRecovering), "recovering");
  EXPECT_STREQ(SnapshotOutcomeName(Outcome::kMetContract), "met_contract");
  EXPECT_STREQ(SnapshotOutcomeName(Outcome::kWidenedCi), "widened_ci");
  EXPECT_STREQ(SnapshotOutcomeName(Outcome::kPartial), "partial");
  EXPECT_STREQ(SnapshotOutcomeName(Outcome::kTimeout), "timeout");
}

}  // namespace
}  // namespace digest
