#ifndef DIGEST_CORE_SUPERVISOR_H_
#define DIGEST_CORE_SUPERVISOR_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {

/// Health of one continuous-query session, as judged from the stream of
/// snapshot outcomes. The states form the ladder
///
///   HEALTHY → DEGRADED → STALE → RECOVERING → HEALTHY
///
/// driven only by consecutive outcomes — no wall clock, no randomness —
/// so the machine is a pure fold over the outcome sequence and cannot
/// perturb a run's determinism.
enum class SessionHealth {
  kHealthy = 0,     ///< Last snapshot met the (ε, p) contract.
  kDegraded = 1,    ///< Recent snapshot(s) fell back or answered partially.
  kStale = 2,       ///< A failure streak long enough that the reported
                    ///< value should be treated as stale.
  kRecovering = 3,  ///< Contract-meeting snapshots are arriving again but
                    ///< the streak is not yet long enough to trust.
};

/// How one snapshot occasion ended, from the engine's point of view.
enum class SnapshotOutcome {
  kMetContract = 0,  ///< Fresh estimate within the (ε, p) contract.
  kWidenedCi = 1,    ///< Fallback answer with an honestly widened CI
                     ///< (retained-pool or held-result path).
  kPartial = 2,      ///< Deadline-budgeted early finalization from the
                     ///< samples collected before the budget ran out.
  kTimeout = 3,      ///< The occasion produced no usable estimate at all.
};

/// Stable lower-snake name (used in trace events and metric labels).
const char* SessionHealthName(SessionHealth health);
const char* SnapshotOutcomeName(SnapshotOutcome outcome);

constexpr size_t kNumSessionHealthStates = 4;
constexpr size_t kNumSnapshotOutcomes = 4;

/// Per-query-session supervisor: folds snapshot outcomes into a health
/// state machine and exposes the result through the tracer (one
/// SupervisorStateEvent per transition) and the metrics registry.
///
/// Transition rules (deterministic; `failure` = any outcome other than
/// kMetContract):
///
///   HEALTHY    --failure-->                DEGRADED
///   DEGRADED   --success-->                HEALTHY
///   DEGRADED   --failure streak >= 3-->    STALE
///   STALE      --success-->                RECOVERING
///   RECOVERING --success streak >= 2-->    HEALTHY
///   RECOVERING --failure-->                STALE
///
/// The supervisor never influences engine decisions — it is a pure
/// observer, so attaching or detaching its tracer/registry cannot change
/// estimates, meter counts, or RNG streams.
class SessionSupervisor {
 public:
  /// Attaches (or detaches, with nullptr) the trace sink for transition
  /// events. Not owned; must outlive the supervisor.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Folds one snapshot outcome into the machine; returns the health
  /// after the fold. Emits a SupervisorStateEvent iff the state changed.
  SessionHealth RecordOutcome(SnapshotOutcome outcome);

  /// Forced degradation on a sustained precision-audit drift breach (the
  /// engine drains PrecisionAuditor::TakePendingBreachFlip at the top of
  /// each tick). Only acts from HEALTHY — a session that is already
  /// degraded/stale carries strictly worse news than the breach — and
  /// emits a SupervisorStateEvent with outcome name "audit_breach".
  SessionHealth RecordAuditBreach();

  /// Forced degradation when the peer-health monitor reports the
  /// quarantine fraction crossed its threshold (the engine drains
  /// PeerHealthMonitor::TakePendingQuarantineFlip each tick, one tick
  /// behind the crossing — the same lag discipline as the audit
  /// breach). Only acts from HEALTHY; emits a SupervisorStateEvent with
  /// outcome name "peer_quarantine".
  SessionHealth RecordQuarantineBreach();

  SessionHealth health() const { return state_.health; }
  size_t consecutive_failures() const { return state_.consecutive_failures; }
  size_t consecutive_successes() const {
    return state_.consecutive_successes;
  }
  uint64_t transitions() const { return state_.transitions; }
  uint64_t outcome_count(SnapshotOutcome outcome) const {
    return state_.outcome_counts[static_cast<size_t>(outcome)];
  }

  /// Dumps cumulative outcome/transition counters and the current state
  /// into `registry` (counter supervisor.outcomes{outcome=...}, counter
  /// supervisor.transitions{from=...,to=...}, gauge supervisor.state).
  /// Call once at end of run, like the other registry bridges.
  void ExportToRegistry(obs::Registry* registry) const;

  /// The machine's state, which is also the engine checkpoint's
  /// "supervisor" section.
  struct State {
    SessionHealth health = SessionHealth::kHealthy;
    uint64_t consecutive_failures = 0;
    uint64_t consecutive_successes = 0;
    uint64_t transitions = 0;
    uint64_t outcome_counts[kNumSnapshotOutcomes] = {0, 0, 0, 0};
    uint64_t transition_counts[kNumSessionHealthStates]
                              [kNumSessionHealthStates] = {};

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("health", health, kNumSessionHealthStates);
      v("consecutive_failures", consecutive_failures);
      v("consecutive_successes", consecutive_successes);
      v("transitions", transitions);
      v("outcome_counts", outcome_counts);
      v("transition_counts", transition_counts);
    }
  };
  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

 private:
  void Transition(SessionHealth to, SnapshotOutcome outcome,
                  uint64_t consecutive);
  void TransitionNamed(SessionHealth to, const char* outcome_name,
                       uint64_t consecutive);

  obs::Tracer* tracer_ = nullptr;
  State state_;
};

}  // namespace digest

#endif  // DIGEST_CORE_SUPERVISOR_H_
