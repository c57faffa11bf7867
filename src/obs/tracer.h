#ifndef DIGEST_OBS_TRACER_H_
#define DIGEST_OBS_TRACER_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace digest {
namespace obs {

// Typed trace records for the engine's and sampler's load-bearing
// decisions (the span-style tracing approximate engines use to attribute
// error and cost to pipeline stages). Every record is stamped with the
// *simulated* time and a monotone sequence number — never wall clock —
// so traces are bit-reproducible across runs with the same seed.

/// Start of a logical run (one engine/experiment). Exporters map each
/// run to its own process so several runs coexist in one trace file.
struct RunBeginEvent {
  std::string label;
};

/// One engine tick (emitted once per Tick, after the tick's work). The
/// Chrome exporter renders these as the engine-tick spans under which
/// same-tick walk events nest.
struct TickEvent {
  bool snapshot_executed = false;
  bool degraded = false;
  bool result_updated = false;
  double reported = 0.0;
  double ci_halfwidth = 0.0;
};

/// PRED's gap choice: the fitted polynomial order, the chosen gap, and
/// the drift the fit predicts at the scheduled tick (§IV-A, Eq. 4).
struct GapPredictedEvent {
  int64_t gap = 0;
  int64_t next_tick = 0;
  int64_t poly_order = 0;
  double predicted_drift = 0.0;
  bool strict = false;
};

/// A sampling occasion ran (fresh or degraded-fallback).
struct SnapshotEvent {
  double value = 0.0;
  double ci_halfwidth = 0.0;
  uint64_t total_samples = 0;
  uint64_t fresh_samples = 0;
  uint64_t retained_samples = 0;
  bool degraded = false;
};

/// A tick the scheduler skipped (held/extrapolated result).
struct SnapshotSkippedEvent {
  int64_t next_snapshot_tick = 0;
};

/// The estimator's sample-budget plan for one occasion: RPT (repeated)
/// vs INDEP, with the running correlation ρ̂ driving the RPT split.
struct SampleBudgetEvent {
  bool repeated = false;
  double rho_hat = 0.0;
  double sigma_hat = 0.0;
  uint64_t planned_total = 0;
  uint64_t planned_retained = 0;
};

/// The engine widened the reported confidence interval (consecutive
/// failed snapshots under faults).
struct CiWidenedEvent {
  double from = 0.0;
  double to = 0.0;
};

/// Transition into a degraded answer: retained-pool fallback
/// (retained_pool = true) or holding the previous result (false).
struct DegradedFallbackEvent {
  bool retained_pool = false;
};

/// A batch of walk agents launched by the sampling operator.
struct WalkBatchEvent {
  uint64_t agents = 0;
  uint64_t warm = 0;
  uint64_t cold_steps = 0;
  uint64_t warm_steps = 0;
  uint64_t budget = 0;  ///< Attempt budget (0 = no fault plan).
};

/// Batch completion summary (telemetry totals for the batch).
struct WalkBatchDoneEvent {
  uint64_t samples = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t losses = 0;
  uint64_t drops = 0;
  uint64_t stalled_steps = 0;
  uint64_t hedges = 0;      ///< Redundant walks launched this batch.
  uint64_t hedge_wins = 0;  ///< Hedges that delivered before the primary.
};

/// The batch's pooled hop budget ran out: the sampling call times out
/// and the engine degrades.
struct HopBudgetExhaustedEvent {
  uint64_t attempts = 0;
  uint64_t budget = 0;
};

/// A walk agent was lost in transit and re-injected at the origin.
struct AgentRestartEvent {
  uint64_t agent_index = 0;
};

/// The fault plan lost one message transmission on edge (from, to).
struct FaultLossEvent {
  uint64_t from = 0;
  uint64_t to = 0;
};

/// Walk steps frozen on blackholed (stalled) hosts during one batch.
struct FaultStallEvent {
  uint64_t stalled_steps = 0;
};

/// Session-supervisor health transition (core/supervisor.h): the state
/// machine moved from `from` to `to` because snapshot outcome `outcome`
/// was recorded. States and outcomes are stable lower-snake strings
/// (healthy/degraded/stale/recovering; met_contract/widened_ci/partial/
/// timeout).
struct SupervisorStateEvent {
  std::string from;
  std::string to;
  std::string outcome;
  uint64_t consecutive = 0;  ///< Streak length that drove the transition.
};

/// A snapshot finalized early: its message/step budget ran out, so the
/// estimator answered from the samples it had (honestly widened CI)
/// instead of stalling the PRED timeline.
struct PartialSnapshotEvent {
  uint64_t collected = 0;  ///< Fresh samples actually obtained.
  uint64_t planned = 0;    ///< Fresh samples the plan called for.
  double ci_halfwidth = 0.0;
};

/// A redundant (hedged) walk launched against a straggling agent: the
/// agent had spent `attempts` budget units, past the deterministic
/// straggler threshold derived from completed-walk statistics.
struct WalkHedgedEvent {
  uint64_t agent_index = 0;
  uint64_t attempts = 0;
  uint64_t threshold = 0;
};

/// Engine session state serialized to a versioned checkpoint blob.
struct CheckpointEvent {
  uint64_t bytes = 0;
  int64_t last_tick = 0;
};

/// Engine session state restored from a checkpoint blob.
struct RestoreEvent {
  uint64_t bytes = 0;
  int64_t last_tick = 0;
};

/// The precision auditor resolved one snapshot occasion against the
/// workload oracle: did the reported interval cover the truth, and if
/// not, which structural cause dominated (audit taxonomy; see
/// src/audit/audit.h). `occasions`/`misses` are the rolling per-run
/// counts after this resolution.
struct AuditCoverageEvent {
  double estimate = 0.0;
  double truth = 0.0;
  double ci_halfwidth = 0.0;
  bool hit = false;
  std::string cause;  ///< "none" on hits; a MissCauseName otherwise.
  uint64_t occasions = 0;
  uint64_t misses = 0;
};

/// The (1 − p) miss budget burned some more: emitted when a resolved
/// occasion missed, carrying the burn fraction and remaining headroom.
struct AuditBudgetEvent {
  double burn = 0.0;       ///< miss_rate / (1 − p); > 1 = SLO blown.
  double remaining = 0.0;  ///< max(0, 1 − burn).
  uint64_t occasions = 0;
  uint64_t misses = 0;
};

/// An audit drift detector (EWMA + two-sided CUSUM) is in breach after
/// this update. `flip` marks the update whose sustained-breach streak
/// reached patience and requested the supervisor degradation.
struct AuditDriftEvent {
  std::string detector;  ///< "signed_error" or "message_cost".
  double ewma = 0.0;
  double cusum_pos = 0.0;
  double cusum_neg = 0.0;
  double threshold = 0.0;
  uint64_t streak = 0;
  bool flip = false;
};

/// End-of-run SLO verdict for one continuous query: empirical (ε, p)
/// coverage vs the binomial-stderr floor, δ-compliance of extrapolated
/// (skipped-tick) answers, and the error-budget burn.
struct AuditSloEvent {
  std::string label;  ///< Run label (matches the run_begin label).
  double p = 0.0;
  double epsilon = 0.0;
  double delta = 0.0;
  uint64_t occasions = 0;  ///< Occasions resolved against the oracle.
  uint64_t hits = 0;
  uint64_t misses = 0;
  double coverage = 0.0;
  double coverage_floor = 0.0;  ///< p − 2·sqrt(p(1−p)/occasions).
  bool coverage_ok = false;
  uint64_t delta_ticks = 0;  ///< Skipped ticks resolved vs the oracle.
  uint64_t delta_misses = 0;
  double delta_compliance = 0.0;
  double budget_burn = 0.0;
  double budget_remaining = 0.0;
};

/// Per-batch walk-mixing verdict from the sampler diagnostics
/// (src/diag): pooled lag-1 autocorrelation of the weight series
/// w(visited node), total effective sample size across the batch's
/// walks, and the cross-walk Gelman–Rubin R̂ scoring burn-in adequacy.
struct WalkMixingEvent {
  uint64_t walks = 0;  ///< Delivered walks folded into the batch.
  uint64_t steps = 0;  ///< Walk steps recorded (live + dead visits).
  double lag1_autocorr = 0.0;
  double ess = 0.0;
  double rhat = 0.0;
};

/// Gap between the batch's empirical visit histogram and the
/// degree-corrected stationary target π(v) = w(v)/Σw over the *current*
/// live membership — joins/leaves rebase the target, and visits to
/// departed peers are pruned (`dropped_dead_visits`). `breach` marks a
/// total-variation distance past the configured tolerance; the auditor
/// re-attributes coinciding variance_undershoot misses to poor_mixing.
struct StationaryGapEvent {
  double tv_distance = 0.0;
  double chi_square = 0.0;
  uint64_t live_peers = 0;
  uint64_t visits = 0;  ///< Visits to still-live peers.
  uint64_t dropped_dead_visits = 0;
  bool breach = false;
};

/// Per-peer/per-link message-load accounting for one batch (weight
/// probes + accepted hops). `hot` flags the max-load peer when it
/// carries more than twice the mean per-peer load (diag.cc's
/// kHotPeerFactor).
struct PeerLoadEvent {
  uint64_t peers = 0;  ///< Peers that carried at least one message.
  uint64_t links = 0;  ///< Distinct links that carried messages.
  uint64_t hot_peer = 0;  ///< Max-load peer id (smallest id on ties).
  uint64_t max_load = 0;
  double mean_load = 0.0;
  bool hot = false;
};

/// Metropolis acceptance rate over one batch's proposals.
struct AcceptanceRateEvent {
  uint64_t proposals = 0;
  uint64_t accepted = 0;
  double rate = 0.0;
};

/// A peer's phi-accrual suspicion level crossed the suspect threshold
/// (src/net/peer_health.h). Emitted once per suspicion excursion — the
/// latch re-arms when the peer next delivers — so flapping peers are
/// visible without flooding the trace.
struct PeerSuspectEvent {
  uint64_t peer = 0;
  double phi = 0.0;          ///< Suspicion level at the crossing.
  uint64_t failures = 0;     ///< Consecutive failures at the crossing.
};

/// A per-peer circuit breaker changed state. States are stable
/// lower-snake strings: closed / open / half_open.
struct BreakerTransitionEvent {
  uint64_t peer = 0;
  std::string from;
  std::string to;
  double phi = 0.0;  ///< Suspicion level that drove the transition.
};

/// A correlated partition episode began: the fault plan splits the
/// overlay into `components` components for `length` ticks (membership
/// is a pure hash of (seed, episode, node); cross-component messages
/// are lost deterministically).
struct PartitionBeginEvent {
  uint64_t episode = 0;
  uint64_t components = 0;
  int64_t length = 0;
};

/// The partition episode healed: cross-component edges carry again.
struct PartitionEndEvent {
  uint64_t episode = 0;
};

/// The node-level scheduler coalesced a tick's snapshot demands: `queries`
/// continuous queries were due on the same tick and consumed one shared
/// walk batch instead of each paying for its own. `shared_samples` is the
/// size of the tick-scoped shared pool after all consumers ran;
/// `consumed_samples` sums every query's draws from it (>= shared_samples
/// whenever prefixes overlap across queries).
struct SnapshotCoalescedEvent {
  uint64_t queries = 0;
  uint64_t shared_samples = 0;
  uint64_t consumed_samples = 0;
};

using EventPayload =
    std::variant<RunBeginEvent, TickEvent, GapPredictedEvent, SnapshotEvent,
                 SnapshotSkippedEvent, SampleBudgetEvent, CiWidenedEvent,
                 DegradedFallbackEvent, WalkBatchEvent, WalkBatchDoneEvent,
                 HopBudgetExhaustedEvent, AgentRestartEvent, FaultLossEvent,
                 FaultStallEvent, SupervisorStateEvent, PartialSnapshotEvent,
                 WalkHedgedEvent, CheckpointEvent, RestoreEvent,
                 AuditCoverageEvent, AuditBudgetEvent, AuditDriftEvent,
                 AuditSloEvent, WalkMixingEvent, StationaryGapEvent,
                 PeerLoadEvent, AcceptanceRateEvent, PeerSuspectEvent,
                 BreakerTransitionEvent, PartitionBeginEvent,
                 PartitionEndEvent, SnapshotCoalescedEvent>;

/// Stable lower-snake-case name of a payload's event type (the `event`
/// field of the JSONL schema; see docs/OBSERVABILITY.md).
const char* EventName(const EventPayload& payload);

/// One emitted record: payload plus the deterministic stamps.
struct TraceEvent {
  uint64_t seq = 0;       ///< Monotone per tracer, from 0.
  int64_t sim_time = 0;   ///< Simulated tick at emission (tracer clock).
  /// Deterministic execution lane of the event, or -1 for none. The
  /// sampling operator stamps each walk-scoped event with its
  /// WALK index — never an OS thread id, which would vary run-to-run
  /// and with the thread count. Lanes are therefore part of the
  /// bit-reproducible trace: the same trace is produced at any
  /// num_threads (test-enforced by parallel_determinism_test). Real
  /// thread attribution lives only on the wall-clock prof layer.
  int64_t lane = -1;
  EventPayload payload;
};

/// Structured event sink. Components hold a `Tracer*` that may be null
/// (the fast path: no tracing code runs at all); a non-null tracer whose
/// enabled() is false drops events before payload recording (NullTracer).
///
/// The tracer carries the simulated clock: the engine (or experiment
/// driver) calls set_now(t) once per tick and every component's Emit is
/// stamped with that time, so lower layers need no clock plumbing.
class Tracer {
 public:
  virtual ~Tracer() = default;

  /// False selects the null fast path: Emit drops the event unrecorded.
  virtual bool enabled() const = 0;

  /// Records `payload` stamped (seq, now). No-op when !enabled().
  void Emit(EventPayload payload) {
    if (!enabled()) return;
    Record(TraceEvent{seq_++, now_, /*lane=*/-1, std::move(payload)});
  }

  /// Records `payload` on a deterministic execution lane (>= 0): the
  /// walk index a buffered event belonged to. Same stamping as Emit.
  void EmitLane(EventPayload payload, int64_t lane) {
    if (!enabled()) return;
    Record(TraceEvent{seq_++, now_, lane, std::move(payload)});
  }

  /// Advances the simulated clock used to stamp events.
  void set_now(int64_t t) { now_ = t; }
  int64_t now() const { return now_; }

  /// Events recorded so far (the next seq to be assigned).
  uint64_t events_emitted() const { return seq_; }

 protected:
  virtual void Record(TraceEvent event) = 0;

 private:
  uint64_t seq_ = 0;
  int64_t now_ = 0;
};

/// Accepts and discards everything; attaching it is behaviorally
/// identical to passing a null tracer pointer.
class NullTracer : public Tracer {
 public:
  bool enabled() const override { return false; }

 protected:
  void Record(TraceEvent) override {}
};

/// Collects events in memory for the exporters and tests.
class MemoryTracer : public Tracer {
 public:
  bool enabled() const override { return true; }
  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 protected:
  void Record(TraceEvent event) override {
    events_.push_back(std::move(event));
  }

 private:
  std::vector<TraceEvent> events_;
};

/// Collects bare payloads for deferred re-emission through another
/// tracer. The parallel walk executor hands each in-flight walk one of
/// these (events buffer thread-locally, unstamped), then re-emits the
/// payloads through the main tracer in walk-index order after the merge
/// barrier — so the final stamped stream is independent of scheduling.
class BufferTracer : public Tracer {
 public:
  bool enabled() const override { return true; }
  std::vector<EventPayload>& payloads() { return payloads_; }
  const std::vector<EventPayload>& payloads() const { return payloads_; }

 protected:
  void Record(TraceEvent event) override {
    payloads_.push_back(std::move(event.payload));
  }

 private:
  std::vector<EventPayload> payloads_;
};

/// Forwards every event to a parent tracer stamped with a fixed lane.
/// The multi-query node hands each engine one of these over the node's
/// real tracer, so per-query event streams interleave into one ordered
/// trace yet stay separable by lane (= QueryId). seq/sim_time come from
/// the parent — the engine's set_now on this wrapper moves only the
/// wrapper's own (unread) clock, while the node drives the parent clock
/// once per tick.
class LaneTracer : public Tracer {
 public:
  LaneTracer(Tracer* parent, int64_t lane) : parent_(parent), lane_(lane) {}

  bool enabled() const override {
    return parent_ != nullptr && parent_->enabled();
  }
  int64_t lane() const { return lane_; }

 protected:
  void Record(TraceEvent event) override {
    parent_->EmitLane(std::move(event.payload), lane_);
  }

 private:
  Tracer* parent_;
  int64_t lane_;
};

/// True when `tracer` is non-null and recording — guard for emission
/// sites whose payload is costly to assemble.
inline bool Tracing(const Tracer* tracer) {
  return tracer != nullptr && tracer->enabled();
}

}  // namespace obs
}  // namespace digest

#endif  // DIGEST_OBS_TRACER_H_
