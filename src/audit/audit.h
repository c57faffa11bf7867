#ifndef DIGEST_AUDIT_AUDIT_H_
#define DIGEST_AUDIT_AUDIT_H_

// Continuous precision auditing for one continuous-query session: the
// runtime layer that *verifies* the paper's fixed-precision promise
// instead of assuming it. Per snapshot occasion the auditor records a
// CoverageRecord (estimate, reported CI, oracle truth when the driver
// has one, hit/miss, sample cost, fault/degradation state); per run it
// maintains rolling (ε, p) empirical coverage, δ-compliance of
// extrapolated (skipped-tick) answers, an error-budget burn meter over
// the allowed 1 − p miss budget, and EWMA/CUSUM drift detectors on the
// signed estimation error and on message-cost-per-snapshot.
//
// Attribution is structural, not heuristic: every miss is tagged with
// the dominant cause using state the subsystems already expose
// (degraded/partial/timeout flags from the estimator and engine, the
// skip path from the PRED scheduler) — see MissCause.
//
// Determinism contract, same discipline as the profiler and tracer:
//  - the auditor consumes no RNG and reads no wall clock; every
//    readout is a pure fold over the observation sequence;
//  - a null auditor pointer is the fast path — no audit code runs and
//    the run is bit-identical to a pre-audit build (test-enforced);
//  - an attached auditor observes but never steers: estimates, meter
//    counts, and RNG streams are unchanged. The single intentional
//    exception is the supervisor flip: a sustained drift breach asks
//    the engine (via TakePendingBreachFlip) to degrade the session
//    health machine, which is itself a pure observer.
//
// The auditor has no core/ dependency (health rides as the ladder
// index, the contract as three doubles), so audit sits between obs and
// core in the link DAG: digest_audit -> digest_obs/digest_common, and
// digest_core -> digest_audit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace audit {

/// Dominant structural cause of one coverage miss. Precedence for
/// snapshot occasions (worst subsystem state wins): hedge_timeout >
/// retained_pool > partial_snapshot > peer_quarantine > poor_mixing >
/// variance_undershoot; misses on skipped (extrapolated/held) ticks are
/// always pred_residual.
enum class MissCause {
  kNone = 0,                 ///< The occasion hit (or is unresolved).
  kVarianceUndershoot = 1,   ///< Healthy fresh snapshot whose variance
                             ///< estimate undershot: truth outside ±ε.
  kPredResidual = 2,         ///< Extrapolated answer on a skipped tick
                             ///< drifted past the widened δ contract.
  kPartialSnapshot = 3,      ///< Deadline-budgeted early finalization.
  kRetainedPoolFallback = 4, ///< Degraded retained-pool answer.
  kHedgeTimeout = 5,         ///< The occasion produced nothing; the
                             ///< engine held the result under a
                             ///< doubling interval.
  kPoorMixing = 6,           ///< Would-be variance_undershoot whose
                             ///< occasion coincided with a sampler
                             ///< stationary-gap breach (src/diag): the
                             ///< walks had not mixed, so the sample was
                             ///< not weight-proportional and the
                             ///< variance estimate is untrustworthy.
  kPeerQuarantine = 7,       ///< The batches feeding this occasion
                             ///< routed around quarantined peers
                             ///< (src/net/peer_health): coverage of the
                             ///< quarantined nodes' values was traded
                             ///< for reachability, so the sample frame
                             ///< excluded part of the population.
};

constexpr size_t kNumMissCauses = 8;

/// Stable lower-snake name (trace events, metric labels, bench extras).
const char* MissCauseName(MissCause cause);

/// What the engine observed at one snapshot occasion (the audit-facing
/// slice of EngineTickResult + SnapshotEstimate, kept core-free).
struct SnapshotObservation {
  int64_t tick = 0;
  double estimate = 0.0;      ///< Reported value after this occasion.
  double ci_halfwidth = 0.0;  ///< Reported (possibly widened) CI.
  bool degraded = false;
  bool partial = false;
  uint64_t total_samples = 0;
  uint64_t fresh_samples = 0;
  uint64_t retained_samples = 0;
  uint64_t message_cost = 0;  ///< Meter delta attributable to the tick.
  int health = 0;             ///< SessionHealth ladder index after fold.
  /// The sampler diagnostics declared a stationary-gap breach for a
  /// batch feeding this occasion (SamplerDiag::TakeBreachSinceLastRead;
  /// always false when --diag is off).
  bool mixing_breach = false;
  /// A batch feeding this occasion routed against a non-empty
  /// quarantine set (PeerHealthMonitor::TakeQuarantineSinceLastRead;
  /// always false when no monitor is attached).
  bool quarantine = false;
};

/// One ledger row: a snapshot occasion, resolved against the oracle
/// when the driver supplied truth for its tick.
struct CoverageRecord {
  int64_t tick = 0;
  double estimate = 0.0;
  double ci_halfwidth = 0.0;
  double truth = 0.0;
  bool has_truth = false;
  bool hit = false;  ///< |estimate − truth| ≤ ci_halfwidth.
  MissCause cause = MissCause::kNone;
  bool degraded = false;
  bool partial = false;
  bool timeout = false;  ///< Held-result path (occasion yielded nothing).
  bool mixing_breach = false;  ///< Sampler stationary gap out of tolerance.
  bool quarantine = false;     ///< Sampled while peers were quarantined.
  int health = 0;
  uint64_t total_samples = 0;
  uint64_t fresh_samples = 0;
  uint64_t retained_samples = 0;
  uint64_t message_cost = 0;

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("tick", tick);
    v("estimate", estimate);
    v("ci_halfwidth", ci_halfwidth);
    v("truth", truth);
    v("has_truth", has_truth);
    v("hit", hit);
    v("cause", cause, kNumMissCauses);
    v("degraded", degraded);
    v("partial", partial);
    v("timeout", timeout);
    v("mixing_breach", mixing_breach);
    v("quarantine", quarantine);
    v("health", health);
    v("total_samples", total_samples);
    v("fresh_samples", fresh_samples);
    v("retained_samples", retained_samples);
    v("message_cost", message_cost);
  }
};

/// EWMA + two-sided CUSUM over one scalar stream. Plain serializable
/// state; the fold lives in PrecisionAuditor.
struct DriftDetector {
  double ewma = 0.0;
  bool initialized = false;
  double cusum_pos = 0.0;
  double cusum_neg = 0.0;
  uint64_t breaches = 0;  ///< Resolutions that ended in breach.
  uint64_t streak = 0;    ///< Consecutive in-breach resolutions.

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("ewma", ewma);
    v("initialized", initialized);
    v("cusum_pos", cusum_pos);
    v("cusum_neg", cusum_neg);
    v("breaches", breaches);
    v("streak", streak);
  }
};

/// The per-session precision audit ledger. Wiring (mirrors the
/// profiler):
///  - the engine holds a non-owning pointer (DigestEngineOptions::
///    auditor) and feeds RecordSnapshot/RecordTimeout/RecordSkip from
///    its tick paths, draining TakePendingBreachFlip into the
///    supervisor at the top of each tick;
///  - the driver (experiment runner or bench scenario) brackets each
///    run with BeginRun/FinalizeRun and resolves ticks against its
///    oracle via RecordTruth(t, truth) after each Tick.
class PrecisionAuditor {
 public:
  PrecisionAuditor();

  /// Attaches (or detaches, with nullptr) the trace sink for audit_*
  /// events. Not owned; must outlive the auditor.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the precision contract the session runs under. Called by
  /// the engine at Create; ε must be > 0 and p in (0, 1) (the spec the
  /// engine validated).
  void AttachContract(double delta, double epsilon, double confidence);

  /// Resets all per-run rolling state (ledger, coverage, detectors,
  /// pending flips) and labels the run. Cross-run summaries accumulated
  /// by FinalizeRun survive.
  void BeginRun(const std::string& label);

  // --- Engine-side observations (one per tick, at most) ---

  /// A snapshot occasion completed (fresh, degraded, or partial).
  void RecordSnapshot(const SnapshotObservation& observation);

  /// The occasion produced nothing; the engine held `held_value` under
  /// a doubled interval.
  void RecordTimeout(int64_t tick, double held_value, double ci_halfwidth,
                     uint64_t message_cost, int health);

  /// The scheduler skipped this tick; `reported` is the held or
  /// extrapolated answer shown under `ci_halfwidth`.
  void RecordSkip(int64_t tick, double reported, double ci_halfwidth);

  /// True once per sustained drift breach since the last call: the
  /// engine drains this at the top of each Tick and degrades the
  /// supervisor for each true return.
  bool TakePendingBreachFlip();

  // --- Driver-side resolution ---

  /// Resolves the pending observation for `tick` against the oracle
  /// value. Unmatched ticks are counted and ignored.
  void RecordTruth(int64_t tick, double truth);

  /// Closes the run: flushes any unresolved observation to the ledger,
  /// emits one audit_slo trace event, and appends the run's Summary to
  /// completed_runs().
  void FinalizeRun();

  /// End-of-run SLO verdict (pure readout; FinalizeRun not required).
  struct Summary {
    std::string label;
    double p = 0.0;
    double epsilon = 0.0;
    double delta = 0.0;
    uint64_t occasions = 0;  ///< Snapshot occasions resolved vs oracle.
    uint64_t hits = 0;
    uint64_t misses = 0;
    double coverage = 1.0;
    /// Binomial-stderr gate: p − 2·sqrt(p(1 − p)/occasions). Empirical
    /// coverage below this floor fails the CI audit gate.
    double coverage_floor = 0.0;
    bool coverage_ok = true;
    uint64_t delta_ticks = 0;  ///< Skipped ticks resolved vs oracle.
    uint64_t delta_misses = 0;
    double delta_compliance = 1.0;
    double budget_burn = 0.0;       ///< miss_rate / (1 − p).
    double budget_remaining = 1.0;  ///< max(0, 1 − burn).
    uint64_t ledger_records = 0;    ///< Includes truth-less occasions.
    uint64_t cause_counts[kNumMissCauses] = {};
    uint64_t error_breaches = 0;
    uint64_t cost_breaches = 0;
    uint64_t supervisor_flips = 0;
    double p50_abs_error_eps = 0.0;  ///< Median |error|/ε (hist est.).
    double p90_abs_error_eps = 0.0;
    double p90_snapshot_cost = 0.0;  ///< Messages per occasion (hist est.).
  };
  Summary Summarize() const;

  /// Summarize() as one stable JSON object (%.17g doubles, fixed key
  /// order) — spliced into bench extras and compared byte-for-byte by
  /// the repeat-stability and thread-invariance gates.
  std::string SummaryJson() const;

  /// Runs closed by FinalizeRun since construction, in order.
  const std::vector<Summary>& completed_runs() const {
    return completed_runs_;
  }

  /// Dumps rolling coverage/budget/attribution/drift instruments into
  /// `registry` under the audit.* namespace, labelled with the run.
  /// Null registry is a no-op.
  void ExportToRegistry(obs::Registry* registry) const;

  /// The run's ledger so far (snapshot occasions only; skipped ticks
  /// fold into the δ-compliance counters).
  const std::vector<CoverageRecord>& records() const { return state_.records; }

  /// The auditor's per-run state, which is also the engine checkpoint's
  /// "audit" section (digest-checkpoint-v2 and later). completed_runs()
  /// is session-, not run-state, and deliberately stays out.
  struct State {
    std::string run_label;
    std::vector<CoverageRecord> records;
    bool pending_snapshot = false;
    CoverageRecord pending_record;
    bool pending_skip = false;
    int64_t skip_tick = 0;
    double skip_reported = 0.0;
    double skip_ci = 0.0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t delta_ticks = 0;
    uint64_t delta_misses = 0;
    uint64_t unmatched_truths = 0;
    uint64_t cause_counts[kNumMissCauses] = {};
    DriftDetector error_detector;
    DriftDetector cost_detector;
    uint64_t supervisor_flips = 0;
    uint64_t pending_flips = 0;

    /// Checkpoint field list (common/checkpoint_codec.h). The pending
    /// record and skip fields ride only while pending.
    template <class V>
    void Fields(V& v) {
      v("run_label", run_label);
      v("hits", hits);
      v("misses", misses);
      v("delta_ticks", delta_ticks);
      v("delta_misses", delta_misses);
      v("unmatched_truths", unmatched_truths);
      v("cause_counts", cause_counts);
      v("error_detector", error_detector);
      v("cost_detector", cost_detector);
      v("supervisor_flips", supervisor_flips);
      v("pending_flips", pending_flips);
      v("pending_snapshot", pending_snapshot);
      v.Optional("pending_record", pending_snapshot, pending_record);
      v("pending_skip", pending_skip);
      v.Optional("skip_tick", pending_skip, skip_tick);
      v.Optional("skip_reported", pending_skip, skip_reported);
      v.Optional("skip_ci", pending_skip, skip_ci);
      v("records", records);
    }
  };
  State SaveState() const { return state_; }
  /// Installs `state`, rebuilding the quantile histograms by replaying
  /// the ledger. The contract (AttachContract) is configuration, not
  /// state, matching the checkpoint discipline.
  void RestoreState(const State& state);

 private:
  void FlushPending();
  void ResolveSnapshot(double truth);
  void ResolveSkip(double truth);
  /// Folds one standardized observation into `detector`, emitting
  /// audit_drift on breach and requesting a supervisor flip when the
  /// breach streak reaches patience. Returns true on breach.
  bool UpdateDetector(DriftDetector* detector, const char* name,
                      double value, double ewma_next);
  void RebuildHistograms();

  obs::Tracer* tracer_ = nullptr;
  double delta_ = 0.0;
  double epsilon_ = 1.0;
  double confidence_ = 0.95;
  State state_;  ///< The run's ledger, counters and detectors.

  obs::Histogram abs_error_hist_;  ///< |error|/ε of resolved occasions.
  obs::Histogram cost_hist_;       ///< Message cost per occasion.

  std::vector<Summary> completed_runs_;
};

/// Aligned per-run SLO table over `runs` (the completed_runs() of one
/// or more auditors) — the end-of-bench human-facing readout.
std::string RenderSloTable(const std::vector<PrecisionAuditor::Summary>& runs);

}  // namespace audit
}  // namespace digest

#endif  // DIGEST_AUDIT_AUDIT_H_
