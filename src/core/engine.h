#ifndef DIGEST_CORE_ENGINE_H_
#define DIGEST_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/extrapolator.h"
#include "core/query_spec.h"
#include "core/supervisor.h"
#include "db/size_oracle.h"
#include "core/snapshot_estimator.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "numeric/rng.h"
#include "obs/instruments.h"
#include "sampling/sampling_operator.h"
#include "sampling/size_estimator.h"
#include "sampling/tuple_sampler.h"

namespace digest {

/// Snapshot scheduling policy: ALL executes a snapshot query at every
/// tick; PRED uses the extrapolation algorithm (§IV-A) to skip ticks the
/// aggregate cannot have drifted δ in.
enum class SchedulerKind { kAll, kPred };

/// Snapshot evaluation policy: classical independent sampling (INDEP,
/// §IV-B1) or repeated sampling with regression estimation (RPT,
/// §IV-B2).
enum class EstimatorKind { kIndependent, kRepeated };

/// Where fresh samples come from: the distributed two-stage MCMC sampler
/// (the system under study) or a centralized exact sampler (fast oracle
/// for tests and sample-count-only experiments).
enum class SamplerKind { kTwoStageMcmc, kExactCentral };

/// Where the relation cardinality N (needed by SUM/COUNT) comes from:
/// a ground-truth oracle (simulation default) or the fully distributed
/// collision-based random-walk estimator (see sampling/size_estimator.h).
enum class SizeOracleKind { kExact, kSampled };

/// How X̂[t] is presented between sampling occasions (§II: "X̂[t] can be
/// estimated without update/re-evaluation, e.g., by holding or
/// interpolation"). kHold repeats X̂[t_u]; kExtrapolate evaluates the
/// fitted Taylor polynomial at t (costs nothing — the fit exists for
/// scheduling anyway). Presentation only: update semantics (δ) and all
/// efficiency counters are identical in both modes.
enum class ReportMode { kHold, kExtrapolate };

/// Full engine configuration. Digest proper is {kPred, kRepeated,
/// kTwoStageMcmc}; the paper's comparison grid varies the first two.
/// The optional instruments (`options.tracer` ... `options.health`)
/// come from the obs::Instruments base.
struct DigestEngineOptions : obs::Instruments {
  SchedulerKind scheduler = SchedulerKind::kPred;
  EstimatorKind estimator = EstimatorKind::kRepeated;
  SamplerKind sampler = SamplerKind::kTwoStageMcmc;
  SizeOracleKind size_oracle = SizeOracleKind::kExact;
  ReportMode report_mode = ReportMode::kHold;
  ExtrapolatorOptions extrapolator;
  EstimatorOptions estimator_options;
  SamplingOperatorOptions sampling_options;
  SizeEstimatorOptions size_estimator_options;  ///< For kSampled oracle.

  /// How PRED measures the predicted δ-drift (Eq. 4).
  ///
  /// false (paper-faithful default): drift is measured from the fitted
  /// value at the most recent snapshot — the paper's idealized reading,
  /// which assumes each predicted crossing materializes. Cheapest, but
  /// when the aggregate hovers near the threshold (or the fit flattens
  /// under estimate noise), detection of a crossing can lag by several
  /// prediction gaps.
  ///
  /// true (strict): drift is measured from the *running result* X̂[t_u],
  /// so drift accumulated across non-updating snapshots counts toward δ,
  /// and after a snapshot that did not confirm a crossing the next gap
  /// never exceeds the previous one. Tighter resolution at the cost of
  /// more snapshots near crossings. See DESIGN.md (ablations) and
  /// bench_fig4a --strict.
  bool strict_resolution = false;

  /// Optional fault-injection plan (not owned; must outlive the engine).
  /// Wired, with the engine's tracer, into the sampling operators the
  /// engine creates, so walks run under the plan's message loss /
  /// stalls / drops and the engine degrades gracefully when sampling
  /// times out. Callers passing a shared operator via
  /// CreateWithOperator attach the plan (and its tracer) to that
  /// operator themselves, as DigestNode does.
  FaultPlan* fault_plan = nullptr;
};

/// What one engine tick did.
struct EngineTickResult {
  bool snapshot_executed = false;  ///< A sampling occasion ran this tick.
  bool result_updated = false;     ///< The reported result moved (Δ ≥ δ).
  double reported_value = 0.0;     ///< Current running result X̂[t].
  bool has_result = false;         ///< False until the first snapshot.
  /// True when this tick's answer is degraded: fresh sampling timed out
  /// under faults and the engine fell back to retained samples (or, as
  /// a last resort, held the previous result).
  bool degraded = false;
  /// True when this tick's snapshot was finalized early against its
  /// message/step budget (deadline-budgeted partial snapshot): the
  /// estimate is fresh but from fewer samples, under an honestly wider
  /// interval, and still feeds the PRED timeline.
  bool partial = false;
  /// Half-width of the reported confidence interval in query units.
  /// ε on healthy ticks (the contract); wider on degraded ticks, and
  /// growing while consecutive snapshots keep failing.
  double ci_halfwidth = 0.0;
};

/// Cumulative efficiency counters (the paper's metrics).
struct EngineStats {
  size_t ticks = 0;
  size_t snapshots = 0;        ///< Snapshot queries executed (Fig. 4-a).
  size_t result_updates = 0;   ///< Times the reported result changed.
  size_t total_samples = 0;    ///< Retained + fresh (Fig. 4-b, 5-a).
  size_t fresh_samples = 0;    ///< Network-drawn samples.
  size_t retained_samples = 0; ///< Re-evaluated in place.
  size_t degraded_ticks = 0;   ///< Ticks answered via degraded fallback.
  size_t partial_snapshots = 0;  ///< Snapshots finalized early on budget.

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("ticks", ticks);
    v("snapshots", snapshots);
    v("result_updates", result_updates);
    v("total_samples", total_samples);
    v("fresh_samples", fresh_samples);
    v("retained_samples", retained_samples);
    v("degraded_ticks", degraded_ticks);
    v("partial_snapshots", partial_snapshots);
  }
};

/// Publishes cumulative EngineStats counters into `registry` under the
/// `engine.*` namespace (engine.ticks, engine.snapshots, ...), tagged
/// with an optional `run` label. Counters are monotone, so the bridge
/// *sets* each counter to the stats value via delta — call it once per
/// run (or repeatedly with growing stats). Null registry is a no-op.
void ExportToRegistry(const EngineStats& stats, obs::Registry* registry,
                      const std::string& run_label = "");

/// The Digest query-answering engine (paper §III): one instance runs at
/// the querying node and drives one continuous aggregate query over the
/// simulated P2P database, producing the running estimate X̂[t] with the
/// (δ, ε, p) precision contract.
///
/// Call Tick(t) once per simulated time unit with strictly increasing t.
/// The engine decides internally whether the tick is a sampling occasion
/// (per the scheduler) and whether the result updates (per δ).
class DigestEngine {
 public:
  /// Builds an engine for `spec` issued at `querying_node`. The graph
  /// and database must outlive the engine. `meter` may be null.
  static Result<std::unique_ptr<DigestEngine>> Create(
      const Graph* graph, const P2PDatabase* db, ContinuousQuerySpec spec,
      NodeId querying_node, Rng rng, MessageMeter* meter,
      DigestEngineOptions options = {});

  /// Like Create, but sampling through `shared_operator` (not owned;
  /// must be configured with the content-size weight and outlive the
  /// engine). This is how one node runs several continuous queries over
  /// a single sampling operator whose warm agents they all reuse (the
  /// per-node architecture of §III; see DigestNode). Only meaningful
  /// with SamplerKind::kTwoStageMcmc.
  ///
  /// `shared_source` (may be null; not owned, must outlive the engine)
  /// replaces the engine's own TwoStageTupleSampler: every fresh sample
  /// is drawn through it. It is the node's coalescing source (see
  /// core/query_scheduler.h), which wraps the shared operator's
  /// sampler, so it requires `shared_operator`, and the checkpoint blob
  /// then carries no sampler stream: the caller persists it.
  static Result<std::unique_ptr<DigestEngine>> CreateWithOperator(
      const Graph* graph, const P2PDatabase* db, ContinuousQuerySpec spec,
      NodeId querying_node, Rng rng, MessageMeter* meter,
      SamplingOperator* shared_operator, SampleSource* shared_source,
      DigestEngineOptions options = {});

  /// Advances the continuous query to tick `t` (strictly increasing).
  Result<EngineTickResult> Tick(int64_t t);

  /// Current running result; meaningful once has_result().
  double reported_value() const { return session_.reported_value; }

  /// True after the first completed snapshot.
  bool has_result() const { return session_.has_result; }

  /// True when Tick(t) would open a sampling occasion: the engine has
  /// no result yet, or the (PRED/ALL) schedule is due at `t`. Pure
  /// peek — no state moves. The node-level scheduler uses this to
  /// batch same-tick snapshot demands before any engine ticks.
  bool WouldSnapshotAt(int64_t t) const {
    return !session_.has_result || t >= session_.next_snapshot_tick;
  }

  /// Cumulative counters.
  const EngineStats& stats() const { return stats_; }

  /// The engine's configuration.
  const DigestEngineOptions& options() const { return options_; }

  /// The precision/query spec under execution.
  const ContinuousQuerySpec& spec() const { return spec_; }

  /// The repeated-sampling correlation estimate ρ̂ (0 when running the
  /// independent estimator).
  double correlation_estimate() const;

  /// Forward regression (§VIII extension): a retrospectively improved
  /// estimate of the previous sampling occasion's aggregate, in query
  /// units. Fails for independent-estimator engines and before the
  /// second occasion.
  Result<double> AdjustedPreviousResult() const;

  /// The session-health supervisor (pure observer over snapshot
  /// outcomes; see core/supervisor.h).
  const SessionSupervisor& supervisor() const { return supervisor_; }
  SessionHealth health() const { return supervisor_.health(); }

  /// Serializes the full session recovery state — engine scalars and
  /// stats, the PRED history window, the supervisor machine, estimator
  /// cross-occasion state (retained pool, regression recursion), every
  /// owned RNG stream position, and the meter's counters — into a
  /// versioned JSON blob ("digest-checkpoint-v3"). The optional
  /// sections "meter", "audit" (v2) and "health" (v3) are present iff a
  /// meter, an auditor and a peer-health monitor are attached; Restore
  /// requires the same presence. Emits one CheckpointEvent when
  /// tracing. Engines sampling through a *shared* operator
  /// (CreateWithOperator) record that the operator was external; its
  /// warm agents and stream are the caller's to preserve.
  Result<std::string> Checkpoint() const;

  /// Restores a checkpoint produced by an engine of identical
  /// construction (same graph, database, spec, options, and seed). After
  /// Restore the engine replays the exact tick/draw sequence the
  /// checkpointing engine would have produced uninterrupted — bit
  /// identical estimates, meter counts, and trace (modulo the
  /// checkpoint/restore events themselves). Version or shape mismatches
  /// fail with InvalidArgument and leave the engine untouched; partial
  /// application is impossible because all state is parsed before any is
  /// installed. Emits one RestoreEvent when tracing.
  Status Restore(std::string_view blob);

  /// Restore's decode-only first step: decodes `blob` and checks it
  /// against this engine's construction, installing nothing. Returns
  /// what Restore would fail with, or OK when Restore would succeed —
  /// so a caller restoring several engines together (DigestNode) can
  /// check every blob before it changes any engine.
  Status CheckCheckpoint(std::string_view blob) const;

 private:
  DigestEngine(const Graph* graph, const P2PDatabase* db,
               ContinuousQuerySpec spec, NodeId querying_node,
               MessageMeter* meter, DigestEngineOptions options);

  /// The checkpoint blob's sections (engine_checkpoint.cc).
  struct CheckpointBlob;

  /// Decodes `text` into `b` (laid out for this engine) and checks its
  /// topology; shared by Restore and CheckCheckpoint.
  Status DecodeCheckpoint(std::string_view text, CheckpointBlob* b) const;

  /// The session's scalars between ticks; also the checkpoint's
  /// "engine" section.
  struct Session {
    double reported_value = 0.0;
    double last_ci_halfwidth = 0.0;  ///< Reported CI; widens while degraded.
    bool has_result = false;
    int64_t next_snapshot_tick = INT64_MIN;
    int64_t last_tick = INT64_MIN;
    int64_t last_gap = 1;  ///< Gap that led to the current snapshot.

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("reported_value", reported_value);
      v("last_ci_halfwidth", last_ci_halfwidth);
      v("has_result", has_result);
      v("next_snapshot_tick", next_snapshot_tick);
      v("last_tick", last_tick);
      v("last_gap", last_gap);
    }
  };

  const Graph* graph_;
  const P2PDatabase* db_;
  ContinuousQuerySpec spec_;
  NodeId querying_node_;
  MessageMeter* meter_;
  DigestEngineOptions options_;

  // Owned plumbing, wired up in Create.
  std::unique_ptr<SamplingOperator> sampling_operator_;
  std::unique_ptr<SamplingOperator> uniform_operator_;  // Size estimation.
  std::unique_ptr<TwoStageTupleSampler> two_stage_sampler_;
  std::unique_ptr<ExactTupleSampler> exact_sampler_;
  std::unique_ptr<ExactSizeOracle> exact_oracle_;
  std::unique_ptr<CollisionSizeEstimator> sampled_oracle_;
  std::unique_ptr<SnapshotEstimator> estimator_;
  Extrapolator extrapolator_;
  SessionSupervisor supervisor_;
  bool shared_operator_ = false;  // Sampling through a caller-owned op.

  EngineStats stats_;
  Session session_;
};

}  // namespace digest

#endif  // DIGEST_CORE_ENGINE_H_
