#ifndef DIGEST_CORE_SNAPSHOT_ESTIMATOR_H_
#define DIGEST_CORE_SNAPSHOT_ESTIMATOR_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/query_spec.h"
#include "db/size_oracle.h"
#include "db/p2p_database.h"
#include "net/message_meter.h"
#include "numeric/rng.h"
#include "numeric/stats.h"
#include "sampling/tuple_sampler.h"

namespace digest {
namespace obs {
class Tracer;
}  // namespace obs

/// How the per-occasion sample size is derived from (ε, p).
enum class SampleSizePolicy {
  /// Eq. 6's CLT size n = (z·σ̂/ε)², iterated from a pilot (the paper's
  /// method). Needs a variance estimate; asymptotic guarantee.
  kClt,
  /// Distribution-free Hoeffding bound n = ln(2/(1−p))·range²/(2ε²)
  /// (the style of guarantee snapshot-query systems like Arai et al.
  /// use). Needs EstimatorOptions::value_range; typically much more
  /// conservative than the CLT size but exact at any n. Supported by
  /// the independent estimator only.
  kHoeffding,
};

/// Tuning knobs shared by the snapshot estimators.
struct EstimatorOptions {
  size_t pilot_samples = 30;   ///< Minimum/pilot sample-set size.
  size_t max_samples = 200000; ///< Hard cap per sampling occasion.
  SampleSizePolicy sample_size_policy = SampleSizePolicy::kClt;
  /// Width of the attribute's support, required by kHoeffding (e.g.,
  /// 150 for temperatures confined to [-50, 100] °F).
  double value_range = 0.0;
  /// Deadline-budgeted snapshots: when fresh sampling times out against
  /// the hop budget mid-occasion, finalize the estimate from the samples
  /// collected so far (honestly wider CI, SnapshotEstimate::partial set)
  /// instead of failing with kUnavailable. Off by default: the classic
  /// timeout → degraded-fallback path is preserved unless a caller opts
  /// in. With no fault plan no timeout ever fires, so enabling this
  /// leaves fault-free runs bit-identical.
  bool allow_partial = false;
};

/// Outcome of one sampling occasion (one snapshot-query evaluation).
struct SnapshotEstimate {
  double value = 0.0;            ///< Aggregate result in query units.
  double mean_estimate = 0.0;    ///< Per-tuple mean estimate Ŷ.
  double sigma = 0.0;            ///< Estimated per-tuple stddev σ̂.
  double variance_of_mean = 0.0; ///< Estimated var(Ŷ).
  size_t total_samples = 0;      ///< Retained + fresh this occasion.
  size_t fresh_samples = 0;      ///< Newly drawn from the network.
  size_t retained_samples = 0;   ///< Revisited from the last occasion.
  /// Samples that contributed to the estimate. Equal to total_samples
  /// except for AVG queries with a WHERE clause, where drawn samples
  /// failing the predicate cost traffic but do not contribute.
  size_t contributing_samples = 0;
  /// Half-width of the reported confidence interval in query units
  /// (z·√var, scaled by N for SUM/COUNT; ε for MEDIAN's rank bound).
  /// On healthy occasions this is at most ≈ ε by construction; degraded
  /// occasions report the honest, wider interval.
  double ci_halfwidth = 0.0;
  /// True when the estimate came from the degraded fallback path
  /// (retained samples only, no fresh network draws).
  bool degraded = false;
  /// True when the occasion was finalized early because the sampling hop
  /// budget ran out (EstimatorOptions::allow_partial): the estimate uses
  /// only the samples collected before the deadline, and ci_halfwidth is
  /// the honest (wider) interval of that smaller set.
  bool partial = false;
};

/// The repeated-sampling estimator's cross-occasion state: the retained
/// pool (parallel refs and the values they had when last seen), the
/// regression recursion scalars, and the forward-regression pair data.
/// All empty or zero before the first occasion, and for INDEP.
struct RetainedState {
  std::vector<TupleRef> retained_refs;
  std::vector<double> retained_ys;
  double prev_mean_estimate = 0.0;
  double prev_variance = 0.0;
  double rho_hat = 0.0;
  double sigma_hat = 0.0;
  uint64_t occasion = 0;
  // The retained pairs of the most recent occasion, plus the
  // occasions' estimates on both sides of the pair.
  std::vector<double> last_pair_y1;
  std::vector<double> last_pair_y2;
  double before_update_mean = 0.0;  ///< Ŷ_{k−1}.
  double before_update_var = 0.0;   ///< var(Ŷ_{k−1}).
  double after_update_mean = 0.0;   ///< Ŷ_k.
  double after_update_var = 0.0;    ///< var(Ŷ_k).

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("retained_refs", retained_refs);
    v("retained_ys", retained_ys);
    v("prev_mean_estimate", prev_mean_estimate);
    v("prev_variance", prev_variance);
    v("rho_hat", rho_hat);
    v("sigma_hat", sigma_hat);
    v("occasion", occasion);
    v("last_pair_y1", last_pair_y1);
    v("last_pair_y2", last_pair_y2);
    v("before_update_mean", before_update_mean);
    v("before_update_var", before_update_var);
    v("after_update_mean", after_update_mean);
    v("after_update_var", after_update_var);
    v.Check([&] { return retained_refs.size() == retained_ys.size(); },
            "retained refs/ys length mismatch");
  }
};

/// Serializable cross-occasion estimator state, for the engine
/// checkpoint (core/engine_checkpoint.cc). One struct covers both
/// estimators: INDEP populates only the RNG streams. Restoring this into
/// a freshly constructed estimator of the same kind and configuration
/// replays the exact draw sequence an uninterrupted run would have made.
struct EstimatorState {
  Rng::State rng;        ///< Top-level stream (RPT's retained shuffle).
  Rng::State indep_rng;  ///< Wrapped/primary independent stream.
  RetainedState retained;

  /// Checkpoint field list (common/checkpoint_codec.h). The retained
  /// state's fields sit at this level, after the streams.
  template <class V>
  void Fields(V& v) {
    v("rng", rng);
    v("indep_rng", indep_rng);
    retained.Fields(v);
  }
};

/// A snapshot-query evaluator: called once per sampling occasion by the
/// engine, returns the estimate meeting the (ε, p) confidence contract.
class SnapshotEstimator {
 public:
  virtual ~SnapshotEstimator() = default;

  /// Evaluates the snapshot query at the current database state.
  virtual Result<SnapshotEstimate> Evaluate(NodeId origin) = 0;

  /// Degraded fallback when Evaluate could not complete (e.g. the
  /// sampling hop budget timed out under faults): produce a best-effort
  /// estimate from state that needs no fresh network samples, with an
  /// honestly widened confidence interval. Default: no fallback exists
  /// (kUnavailable); the repeated-sampling estimator falls back to its
  /// retained pool.
  virtual Result<SnapshotEstimate> EvaluateDegraded(NodeId origin) {
    (void)origin;
    return Status::Unavailable("estimator has no degraded fallback");
  }

  /// Forgets cross-occasion state (a fresh continuous query).
  virtual void Reset() = 0;

  /// Checkpoint/restore of all cross-occasion state, RNG streams
  /// included. Restore assumes an estimator of the same kind and
  /// configuration (the checkpoint blob carries no config).
  virtual EstimatorState SaveState() const = 0;
  virtual void RestoreState(const EstimatorState& state) = 0;

  /// Attaches (or, with nullptr, detaches) the event sink; not owned.
  /// Each occasion emits one SampleBudgetEvent (RPT's retained/fresh
  /// split with ρ̂, or INDEP's CLT size). Pure observation.
  virtual void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 protected:
  obs::Tracer* tracer_ = nullptr;
};

/// Classical independent sampling (paper §IV-B1): every occasion draws a
/// fresh uniform sample set sized by the CLT formula
/// n = (σ̂ · z_p / ε)² (Eq. 6), iterating pilot → re-estimate σ̂ → top-up.
class IndependentEstimator : public SnapshotEstimator {
 public:
  /// The expression inside `spec.query` is bound against `db->schema()`
  /// on first use. `size_oracle` may be null for AVG queries; SUM/COUNT
  /// fail without one. `meter` may be null.
  IndependentEstimator(const ContinuousQuerySpec& spec, const P2PDatabase* db,
                       SampleSource* source, SizeOracle* size_oracle,
                       MessageMeter* meter, Rng rng,
                       EstimatorOptions options = {});

  Result<SnapshotEstimate> Evaluate(NodeId origin) override;
  void Reset() override {}

  EstimatorState SaveState() const override;
  void RestoreState(const EstimatorState& state) override;

 private:
  friend class RepeatedSamplingEstimator;

  /// The fresh samples an occasion has drawn so far.
  struct FreshDraws {
    std::vector<TupleRef> refs;  ///< Contributing samples only.
    std::vector<double> ys;      ///< Their contributions, in draw order.
    /// The caller's running statistics: whatever it seeded (RPT: the
    /// refreshed retained values), then each of `ys` as it is drawn.
    RunningStats stats;
    size_t drawn = 0;            ///< Every sample drawn, contributing or not.
    bool partial = false;        ///< The hop budget cut the occasion short.
    size_t planned = 0;          ///< Contributing count wanted at the cut.
  };

  /// The one fresh-draw loop of both estimators: draws from the source
  /// until `count` more *contributing* samples are in `fresh`, each
  /// folded into `fresh->stats` as it lands (for a predicated AVG,
  /// non-qualifying draws cost traffic but are skipped).
  /// It alone decides what a hop-budget cut means: kUnavailable before
  /// any cut sample is evaluated, or, under allow_partial, the samples
  /// that completed with `fresh->partial` set and no further draws.
  Status DrawContributing(NodeId origin, size_t count, FreshDraws* fresh);

  /// ε expressed in per-tuple-mean units (divides by N for SUM).
  Result<double> MeanEpsilon() const;

  /// Scales a mean estimate into query units (multiplies by N for SUM).
  Result<double> ScaleToQueryUnits(double mean) const;

  /// Maps a sampled tuple to its contribution to the per-tuple mean:
  /// - AVG: y for qualifying tuples, nullopt (skip) otherwise — the
  ///   conditional mean over the qualifying subpopulation.
  /// - SUM: y·I(qualifies); COUNT: I(qualifies) — unconditional means
  ///   scaled by N at the end, so the predicate needs no conditioning.
  Result<std::optional<double>> ContributionValue(const Tuple& tuple) const;

  ContinuousQuerySpec spec_;
  const P2PDatabase* db_;
  SampleSource* source_;
  SizeOracle* size_oracle_;
  MessageMeter* meter_;
  Rng rng_;
  EstimatorOptions options_;
  Expression bound_expression_;
  Predicate bound_where_;
  double z_ = 0.0;  // Two-sided normal quantile for the confidence level.
  bool initialized_ = false;
  // The most recent occasion's contributing samples, exposed to a
  // wrapping RepeatedSamplingEstimator so occasion 1 can seed the
  // retained pool. Refs only: a drawn tuple is borrowed for the call
  // that drew it, never kept past it.
  std::vector<TupleRef> last_refs_;
  std::vector<double> last_ys_;

  Status EnsureInitialized();
  Result<double> YValue(const Tuple& tuple) const {
    return bound_expression_.Evaluate(tuple);
  }
};

/// Repeated sampling with regression estimation (paper §IV-B2).
///
/// Across occasions the estimator retains part of the previous sample
/// set (optimal fraction g_opt = n / (1 + √(1−ρ̂²)), Eq. 9), re-evaluates
/// the retained tuples in place (cheap), regresses current on previous
/// values, and combines the regression estimate with the fresh-sample
/// estimate weighted inversely by variance (Eq. 7). The occasion-k
/// recursion follows Cochran's sampling-on-successive-occasions scheme:
/// the regression leans on the previous occasion's *combined* estimate,
/// whose variance enters the retained-portion variance.
class RepeatedSamplingEstimator : public SnapshotEstimator {
 public:
  RepeatedSamplingEstimator(const ContinuousQuerySpec& spec,
                            const P2PDatabase* db, SampleSource* source,
                            SizeOracle* size_oracle, MessageMeter* meter,
                            Rng rng, EstimatorOptions options = {});

  Result<SnapshotEstimate> Evaluate(NodeId origin) override;

  /// Degraded occasion (graceful degradation under faults): re-evaluate
  /// the retained pool in place — direct contacts, no walks — and
  /// report its mean with a confidence interval widened twofold for the
  /// drift since the pool was drawn. The refreshed values roll
  /// into the retained pool so the next healthy occasion's regression
  /// stays coherent. Fails before the first occasion or when fewer than
  /// two retained tuples are still reachable.
  Result<SnapshotEstimate> EvaluateDegraded(NodeId origin) override;

  void Reset() override;

  EstimatorState SaveState() const override;
  void RestoreState(const EstimatorState& state) override;

  /// Also attaches it to the wrapped estimator of the first occasion.
  void SetTracer(obs::Tracer* tracer) override {
    SnapshotEstimator::SetTracer(tracer);
    independent_.SetTracer(tracer);
  }

  /// Current smoothed estimate of the inter-occasion correlation ρ̂.
  double correlation_estimate() const { return state_.rho_hat; }

  /// Forward regression (the paper's §VIII extension): a retrospectively
  /// improved estimate of the *previous* occasion's result, in query
  /// units. Where reverse regression uses occasion k−1 to sharpen
  /// occasion k, this regresses the retained pairs the other way
  /// (y_{k−1} on y_k) and combines with the previous occasion's original
  /// estimate by inverse variance — occasion k's information flows
  /// backward, "adjusting the previous result". Fails before the second
  /// occasion or when the last occasion had too few retained pairs.
  Result<double> AdjustedPreviousEstimate() const;

 private:
  /// First occasion: plain independent sampling, then memorize the set.
  Result<SnapshotEstimate> EvaluateFirstOccasion(NodeId origin);

  IndependentEstimator independent_;  // Reused for occasion 1 & fallbacks.
  const P2PDatabase* db_;
  MessageMeter* meter_;
  Rng rng_;
  EstimatorOptions options_;
  RetainedState state_;
};

}  // namespace digest

#endif  // DIGEST_CORE_SNAPSHOT_ESTIMATOR_H_
