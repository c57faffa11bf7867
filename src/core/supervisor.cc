#include "core/supervisor.h"

namespace digest {
namespace {

// Consecutive failures, while already DEGRADED, that make a session
// STALE; and consecutive contract-meeting outcomes that climb from
// RECOVERING back to HEALTHY.
constexpr uint64_t kStaleThreshold = 3;
constexpr uint64_t kRecoverySuccesses = 2;

}  // namespace

const char* SessionHealthName(SessionHealth health) {
  switch (health) {
    case SessionHealth::kHealthy:
      return "healthy";
    case SessionHealth::kDegraded:
      return "degraded";
    case SessionHealth::kStale:
      return "stale";
    case SessionHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

const char* SnapshotOutcomeName(SnapshotOutcome outcome) {
  switch (outcome) {
    case SnapshotOutcome::kMetContract:
      return "met_contract";
    case SnapshotOutcome::kWidenedCi:
      return "widened_ci";
    case SnapshotOutcome::kPartial:
      return "partial";
    case SnapshotOutcome::kTimeout:
      return "timeout";
  }
  return "unknown";
}

void SessionSupervisor::Transition(SessionHealth to, SnapshotOutcome outcome,
                                   uint64_t consecutive) {
  TransitionNamed(to, SnapshotOutcomeName(outcome), consecutive);
}

void SessionSupervisor::TransitionNamed(SessionHealth to,
                                        const char* outcome_name,
                                        uint64_t consecutive) {
  const SessionHealth from = state_.health;
  if (from == to) return;
  state_.health = to;
  ++state_.transitions;
  ++state_.transition_counts[static_cast<size_t>(from)]
                            [static_cast<size_t>(to)];
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::SupervisorStateEvent{SessionHealthName(from),
                                            SessionHealthName(to),
                                            outcome_name, consecutive});
  }
}

SessionHealth SessionSupervisor::RecordAuditBreach() {
  if (state_.health != SessionHealth::kHealthy) return state_.health;
  state_.consecutive_failures = 1;
  state_.consecutive_successes = 0;
  TransitionNamed(SessionHealth::kDegraded, "audit_breach", 1);
  return state_.health;
}

SessionHealth SessionSupervisor::RecordQuarantineBreach() {
  if (state_.health != SessionHealth::kHealthy) return state_.health;
  state_.consecutive_failures = 1;
  state_.consecutive_successes = 0;
  TransitionNamed(SessionHealth::kDegraded, "peer_quarantine", 1);
  return state_.health;
}

SessionHealth SessionSupervisor::RecordOutcome(SnapshotOutcome outcome) {
  ++state_.outcome_counts[static_cast<size_t>(outcome)];
  uint64_t& failures = state_.consecutive_failures;
  uint64_t& successes = state_.consecutive_successes;
  const bool success = outcome == SnapshotOutcome::kMetContract;
  if (success) {
    ++successes;
    failures = 0;
  } else {
    ++failures;
    successes = 0;
  }

  switch (state_.health) {
    case SessionHealth::kHealthy:
      if (!success) Transition(SessionHealth::kDegraded, outcome, failures);
      break;
    case SessionHealth::kDegraded:
      if (success) {
        // Shallow degradation heals on a single contract-meeting
        // snapshot; the RECOVERING probation only applies after STALE.
        Transition(SessionHealth::kHealthy, outcome, successes);
      } else if (failures >= kStaleThreshold) {
        Transition(SessionHealth::kStale, outcome, failures);
      }
      break;
    case SessionHealth::kStale:
      // A STALE session entered on a failure, so this success is the
      // first of its streak: probation, not trust.
      if (success) Transition(SessionHealth::kRecovering, outcome, successes);
      break;
    case SessionHealth::kRecovering:
      if (success) {
        if (successes >= kRecoverySuccesses) {
          Transition(SessionHealth::kHealthy, outcome, successes);
        }
      } else {
        Transition(SessionHealth::kStale, outcome, failures);
      }
      break;
  }
  return state_.health;
}

void SessionSupervisor::ExportToRegistry(obs::Registry* registry) const {
  if (registry == nullptr) return;
  for (size_t i = 0; i < kNumSnapshotOutcomes; ++i) {
    const uint64_t count = state_.outcome_counts[i];
    if (count == 0) continue;
    registry
        ->GetCounter("supervisor.outcomes",
                     {{"outcome", SnapshotOutcomeName(
                                      static_cast<SnapshotOutcome>(i))}})
        ->Increment(count);
  }
  for (size_t from = 0; from < kNumSessionHealthStates; ++from) {
    for (size_t to = 0; to < kNumSessionHealthStates; ++to) {
      const uint64_t count = state_.transition_counts[from][to];
      if (count == 0) continue;
      registry
          ->GetCounter(
              "supervisor.transitions",
              {{"from", SessionHealthName(static_cast<SessionHealth>(from))},
               {"to", SessionHealthName(static_cast<SessionHealth>(to))}})
          ->Increment(count);
    }
  }
  registry->GetGauge("supervisor.state")
      ->Set(static_cast<double>(static_cast<int>(state_.health)));
}

}  // namespace digest
