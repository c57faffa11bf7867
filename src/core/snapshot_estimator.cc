#include "core/snapshot_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/sampling_plan.h"
#include "numeric/normal.h"
#include "numeric/stats.h"
#include "obs/tracer.h"

namespace digest {
namespace {

// Sample-size iteration rounds per occasion: INDEP's pilot → re-size
// rounds, RPT's estimate → top-up rounds.
constexpr size_t kMaxSizingRounds = 8;
// EWMA weight of the newest correlation measurement in the running ρ̂.
constexpr double kCorrelationSmoothing = 0.5;
// Multiplier of a degraded estimate's confidence half-width: the
// retained pool is a stale sample of the population, so its nominal CLT
// interval is honest only after widening for the unmodeled drift since
// it was drawn.
constexpr double kDegradedWidening = 2.0;
// Contributing samples a partial finalization needs; below this the
// occasion still fails with kUnavailable (an estimate from fewer points
// has no usable variance).
constexpr size_t kMinPartialSamples = 8;
// Draw rounds one DrawContributing call may take before it gives up on
// a predicate too selective to fill its count.
constexpr size_t kMaxDrawRounds = 200;

// ceil of a positive double into size_t with sane bounds.
size_t CeilToCount(double x, size_t lo, size_t hi) {
  if (!(x > 0.0)) return lo;
  const double c = std::ceil(x);
  if (c >= static_cast<double>(hi)) return hi;
  return std::max(lo, static_cast<size_t>(c));
}

}  // namespace

IndependentEstimator::IndependentEstimator(const ContinuousQuerySpec& spec,
                                           const P2PDatabase* db,
                                           SampleSource* source,
                                           SizeOracle* size_oracle,
                                           MessageMeter* meter, Rng rng,
                                           EstimatorOptions options)
    : spec_(spec),
      db_(db),
      source_(source),
      size_oracle_(size_oracle),
      meter_(meter),
      rng_(rng),
      options_(options),
      bound_expression_(spec.query.expression),
      bound_where_(spec.query.where) {}

Status IndependentEstimator::EnsureInitialized() {
  if (initialized_) return Status::OK();
  DIGEST_RETURN_IF_ERROR(spec_.precision.Validate());
  DIGEST_RETURN_IF_ERROR(bound_expression_.Bind(db_->schema()));
  DIGEST_RETURN_IF_ERROR(bound_where_.Bind(db_->schema()));
  DIGEST_ASSIGN_OR_RETURN(z_, TwoSidedZ(spec_.precision.confidence));
  if (options_.pilot_samples < 2) {
    return Status::InvalidArgument("pilot sample size must be >= 2");
  }
  initialized_ = true;
  return Status::OK();
}

Result<double> IndependentEstimator::MeanEpsilon() const {
  switch (spec_.query.op) {
    case AggregateOp::kAvg:
      return spec_.precision.epsilon;
    case AggregateOp::kMedian:
      // For quantile queries ε is a *rank* tolerance: the returned value
      // lies between the (½−ε)- and (½+ε)-quantiles w.p. ≥ p.
      if (!(spec_.precision.epsilon < 0.5)) {
        return Status::InvalidArgument(
            "MEDIAN interprets epsilon as a rank tolerance in (0, 0.5)");
      }
      return spec_.precision.epsilon;
    case AggregateOp::kSum:
    case AggregateOp::kCount: {
      if (size_oracle_ == nullptr) {
        return Status::FailedPrecondition(
            "SUM/COUNT queries require a SizeOracle");
      }
      // The SUM estimate is N·Ŷ, so a query-unit tolerance of ε means a
      // per-tuple-mean tolerance of ε/N.
      Result<double> n = size_oracle_->EstimateRelationSize();
      if (!n.ok()) return n.status();
      if (*n <= 0.0) {
        return Status::FailedPrecondition("relation size estimate is zero");
      }
      return spec_.precision.epsilon / *n;
    }
  }
  return Status::Internal("unhandled aggregate op");
}

Result<double> IndependentEstimator::ScaleToQueryUnits(double mean) const {
  switch (spec_.query.op) {
    case AggregateOp::kAvg:
    case AggregateOp::kMedian:
      return mean;
    case AggregateOp::kSum:
    case AggregateOp::kCount: {
      if (size_oracle_ == nullptr) {
        return Status::FailedPrecondition(
            "SUM/COUNT queries require a SizeOracle");
      }
      Result<double> n = size_oracle_->EstimateRelationSize();
      if (!n.ok()) return n.status();
      return *n * mean;
    }
  }
  return Status::Internal("unhandled aggregate op");
}

Result<std::optional<double>> IndependentEstimator::ContributionValue(
    const Tuple& tuple) const {
  DIGEST_ASSIGN_OR_RETURN(bool qualifies, bound_where_.Evaluate(tuple));
  switch (spec_.query.op) {
    case AggregateOp::kAvg:
    case AggregateOp::kMedian: {
      // Conditional statistic over the qualifying subpopulation.
      if (!qualifies) return std::optional<double>();
      Result<double> y = YValue(tuple);
      if (!y.ok()) return y.status();
      return std::optional<double>(*y);
    }
    case AggregateOp::kSum: {
      if (!qualifies) return std::optional<double>(0.0);
      Result<double> y = YValue(tuple);
      if (!y.ok()) return y.status();
      return std::optional<double>(*y);
    }
    case AggregateOp::kCount:
      return std::optional<double>(qualifies ? 1.0 : 0.0);
  }
  return Status::Internal("unhandled aggregate op");
}

Status IndependentEstimator::DrawContributing(NodeId origin, size_t count,
                                              FreshDraws* fresh) {
  // The same draws whether or not partial snapshots are allowed, so the
  // two modes are bit-equal whenever no cut happens.
  for (size_t round = 0; count > 0 && !fresh->partial; ++round) {
    if (round == kMaxDrawRounds) {
      return Status::Unavailable(
          "predicate selectivity too low: could not collect the "
          "required qualifying samples");
    }
    DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch batch,
                            source_->DrawFresh(origin, count));
    if (batch.timed_out && !options_.allow_partial) {
      return Status::Unavailable(
          "sampling hop budget exhausted before the batch completed");
    }
    fresh->drawn += batch.samples.size();
    for (const TupleSample& s : batch.samples) {
      DIGEST_ASSIGN_OR_RETURN(std::optional<double> y,
                              ContributionValue(*s.tuple));
      if (!y.has_value()) continue;
      fresh->ys.push_back(*y);
      fresh->stats.Add(*y);
      fresh->refs.push_back(s.ref);
      --count;
    }
    if (batch.timed_out) {
      fresh->partial = true;
      fresh->planned = fresh->ys.size() + count;
    }
  }
  return Status::OK();
}

Result<SnapshotEstimate> IndependentEstimator::Evaluate(NodeId origin) {
  DIGEST_RETURN_IF_ERROR(EnsureInitialized());
  DIGEST_ASSIGN_OR_RETURN(double eps_mean, MeanEpsilon());

  FreshDraws fresh;
  const std::vector<double>& ys = fresh.ys;
  // The sizing rounds read the statistics of all values drawn so far.
  const RunningStats& stats = fresh.stats;

  if (spec_.query.op == AggregateOp::kMedian) {
    // Quantile estimation by order statistics: the empirical CDF at any
    // point is within ε of the true CDF w.p. ≥ p after
    // n = ln(2/(1−p))/(2ε²) samples (Hoeffding/DKW), so the sample
    // median sits between the true (½±ε)-quantiles.
    DIGEST_ASSIGN_OR_RETURN(
        size_t needed,
        HoeffdingSampleSize(1.0, eps_mean, spec_.precision.confidence));
    needed = std::min(std::max(needed, options_.pilot_samples),
                      options_.max_samples);
    DIGEST_RETURN_IF_ERROR(DrawContributing(origin, needed, &fresh));
  } else if (options_.sample_size_policy == SampleSizePolicy::kHoeffding) {
    // One-shot distribution-free size; no pilot iteration needed.
    DIGEST_ASSIGN_OR_RETURN(
        size_t needed,
        HoeffdingSampleSize(options_.value_range, eps_mean,
                            spec_.precision.confidence));
    needed = std::min(std::max(needed, options_.pilot_samples),
                      options_.max_samples);
    DIGEST_RETURN_IF_ERROR(DrawContributing(origin, needed, &fresh));
  } else {
    DIGEST_RETURN_IF_ERROR(
        DrawContributing(origin, options_.pilot_samples, &fresh));
    for (size_t round = 0; round < kMaxSizingRounds && !fresh.partial;
         ++round) {
      const double sigma = stats.SampleStdDev();
      if (sigma == 0.0) break;  // Degenerate population: any n suffices.
      // Eq. 6: n = (z_p σ̂ / ε)².
      DIGEST_ASSIGN_OR_RETURN(size_t clt,
                              CltSampleSize(sigma, eps_mean, z_));
      const size_t needed =
          std::min(std::max(clt, options_.pilot_samples),
                   options_.max_samples);
      if (ys.size() >= needed) break;
      DIGEST_RETURN_IF_ERROR(
          DrawContributing(origin, needed - ys.size(), &fresh));
    }
  }

  if (fresh.partial && ys.size() < kMinPartialSamples) {
    // Too little arrived before the deadline to finalize honestly; let
    // the engine's degraded-fallback path take over.
    return Status::Unavailable(
        "hop budget exhausted before the minimum partial sample count");
  }

  SnapshotEstimate est;
  if (spec_.query.op == AggregateOp::kMedian) {
    // Sample lower median of the qualifying draws.
    std::vector<double> sorted = ys;
    const size_t mid = (sorted.size() - 1) / 2;
    std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
    est.mean_estimate = sorted[mid];
  } else {
    // CheckedMean: an occasion that somehow collected zero qualifying
    // samples must fail loudly, not report a silent 0.0 aggregate.
    DIGEST_ASSIGN_OR_RETURN(est.mean_estimate, stats.CheckedMean());
  }
  est.sigma = stats.SampleStdDev();
  est.variance_of_mean =
      stats.SampleVariance() / static_cast<double>(std::max<size_t>(1,
                                                   stats.count()));
  est.total_samples = fresh.drawn;
  est.fresh_samples = fresh.drawn;
  est.retained_samples = 0;
  est.contributing_samples = ys.size();
  est.partial = fresh.partial;
  DIGEST_ASSIGN_OR_RETURN(est.value, ScaleToQueryUnits(est.mean_estimate));
  if (spec_.query.op == AggregateOp::kMedian) {
    if (fresh.partial) {
      // Invert the DKW bound at the realized sample count: the honest
      // rank tolerance of the smaller set, wider than ε.
      est.ci_halfwidth =
          std::sqrt(std::log(2.0 / (1.0 - spec_.precision.confidence)) /
                    (2.0 * static_cast<double>(ys.size())));
    } else {
      // The DKW bound delivers the rank-tolerance contract directly.
      est.ci_halfwidth = spec_.precision.epsilon;
    }
  } else {
    DIGEST_ASSIGN_OR_RETURN(
        est.ci_halfwidth,
        ScaleToQueryUnits(z_ * std::sqrt(est.variance_of_mean)));
  }
  // Hand the drawn set to a wrapping repeated-sampling estimator.
  last_refs_ = std::move(fresh.refs);
  last_ys_ = std::move(fresh.ys);
  if (obs::Tracing(tracer_)) {
    // INDEP sizes iteratively from the pilot, so the realized draw count
    // *is* the budget the CLT formula settled on.
    tracer_->Emit(obs::SampleBudgetEvent{
        /*repeated=*/false, /*rho_hat=*/0.0, est.sigma,
        static_cast<uint64_t>(fresh.drawn), /*planned_retained=*/0});
    if (fresh.partial) {
      tracer_->Emit(obs::PartialSnapshotEvent{
          static_cast<uint64_t>(est.contributing_samples),
          static_cast<uint64_t>(fresh.planned), est.ci_halfwidth});
    }
  }
  return est;
}

RepeatedSamplingEstimator::RepeatedSamplingEstimator(
    const ContinuousQuerySpec& spec, const P2PDatabase* db,
    SampleSource* source, SizeOracle* size_oracle, MessageMeter* meter,
    Rng rng, EstimatorOptions options)
    : independent_(spec, db, source, size_oracle, meter, rng.Fork(), options),
      db_(db),
      meter_(meter),
      rng_(rng),
      options_(options) {}

void RepeatedSamplingEstimator::Reset() { state_ = RetainedState(); }

Result<double> RepeatedSamplingEstimator::AdjustedPreviousEstimate() const {
  const std::vector<double>& y1 = state_.last_pair_y1;
  const std::vector<double>& y2 = state_.last_pair_y2;
  if (state_.occasion < 2 || y1.size() < 3) {
    return Status::FailedPrecondition(
        "forward regression needs a completed occasion with at least 3 "
        "retained pairs");
  }
  // Regress the previous occasion's values on the current ones — the
  // mirror image of Table 1's reverse regression.
  DIGEST_ASSIGN_OR_RETURN(PairedMoments moments,
                          ComputePairedMoments(y1, y2));
  DIGEST_ASSIGN_OR_RETURN(LinearFit fit, moments.RegressXOnY());
  DIGEST_ASSIGN_OR_RETURN(double rho, moments.Correlation());
  const double rho2 = std::min(rho * rho, 0.9801);
  const double g = static_cast<double>(y1.size());
  const double sigma_sq = state_.sigma_hat * state_.sigma_hat;
  const double y_back = moments.mean_x +
                        fit.slope * (state_.after_update_mean - moments.mean_y);
  const double var_back =
      sigma_sq * (1.0 - rho2) / g + rho2 * state_.after_update_var;
  // Inverse-variance combination with the original occasion-(k−1)
  // estimate.
  const double before_mean = state_.before_update_mean;
  const double before_var = state_.before_update_var;
  const double w_orig = before_var > 0.0 ? 1.0 / before_var : 0.0;
  const double w_back = var_back > 0.0 ? 1.0 / var_back : 0.0;
  double adjusted_mean;
  if (w_orig + w_back <= 0.0) {
    adjusted_mean = before_mean;
  } else {
    adjusted_mean =
        (w_orig * before_mean + w_back * y_back) / (w_orig + w_back);
  }
  return independent_.ScaleToQueryUnits(adjusted_mean);
}

Result<SnapshotEstimate> RepeatedSamplingEstimator::EvaluateFirstOccasion(
    NodeId origin) {
  DIGEST_ASSIGN_OR_RETURN(SnapshotEstimate est,
                          independent_.Evaluate(origin));
  state_.retained_refs = independent_.last_refs_;
  state_.retained_ys = independent_.last_ys_;
  state_.prev_mean_estimate = est.mean_estimate;
  state_.prev_variance = est.variance_of_mean;
  state_.sigma_hat = est.sigma;
  state_.occasion = 1;
  return est;
}

Result<SnapshotEstimate> RepeatedSamplingEstimator::Evaluate(NodeId origin) {
  DIGEST_RETURN_IF_ERROR(independent_.EnsureInitialized());
  if (options_.sample_size_policy == SampleSizePolicy::kHoeffding) {
    return Status::InvalidArgument(
        "repeated sampling plans via the CLT; use the independent "
        "estimator for the Hoeffding policy");
  }
  if (independent_.spec_.query.op == AggregateOp::kMedian) {
    // Regression estimation targets means; quantile snapshots always go
    // through independent sampling (every occasion is a fresh draw).
    return independent_.Evaluate(origin);
  }
  std::vector<TupleRef>& pool_refs = state_.retained_refs;
  std::vector<double>& pool_ys = state_.retained_ys;
  if (state_.occasion == 0 || pool_refs.size() < 4 ||
      state_.sigma_hat == 0.0) {
    return EvaluateFirstOccasion(origin);
  }
  const double z = independent_.z_;
  DIGEST_ASSIGN_OR_RETURN(double eps_mean, independent_.MeanEpsilon());

  // Plan the occasion from the running (σ̂, ρ̂): Eq. 10 for the total,
  // Eq. 9 (erratum-corrected; see sampling_plan.h and EXPERIMENTS.md)
  // for the retained/fresh split.
  DIGEST_ASSIGN_OR_RETURN(
      RepeatedSamplingPlan plan,
      PlanRepeatedOccasion(state_.sigma_hat, state_.rho_hat, eps_mean, z));
  const size_t n_target = std::min(
      std::max(plan.total, options_.pilot_samples), options_.max_samples);
  size_t g_target = static_cast<size_t>(
      static_cast<double>(n_target) * static_cast<double>(plan.retained) /
      static_cast<double>(std::max<size_t>(plan.total, 1)));
  g_target = std::min(g_target, pool_refs.size());
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::SampleBudgetEvent{
        /*repeated=*/true, state_.rho_hat, state_.sigma_hat,
        static_cast<uint64_t>(n_target), static_cast<uint64_t>(g_target)});
  }

  // Revisit retained samples: shuffle the previous set and re-evaluate
  // tuples in place. Deleted tuples / departed nodes are skipped and
  // implicitly replaced by fresh samples (§IV-B2).
  for (size_t i = pool_refs.size(); i > 1; --i) {
    const size_t j = rng_.NextIndex(i);
    std::swap(pool_refs[i - 1], pool_refs[j]);
    std::swap(pool_ys[i - 1], pool_ys[j]);
  }
  std::vector<double> y1g, y2g;
  std::vector<TupleRef> refs_g;  // The refreshed samples' refs.
  y1g.reserve(g_target);
  y2g.reserve(g_target);
  refs_g.reserve(g_target);
  for (size_t i = 0; i < pool_refs.size() && y1g.size() < g_target; ++i) {
    if (meter_ != nullptr) meter_->AddRefresh();
    const Tuple* tuple = db_->FindTuple(pool_refs[i]);
    if (tuple == nullptr) continue;  // Deleted or node left: replaced.
    Result<std::optional<double>> y2 =
        independent_.ContributionValue(*tuple);
    if (!y2.ok() || !y2->has_value()) {
      // For a predicated AVG a tuple that stopped qualifying leaves the
      // qualifying subpopulation — same treatment as a deletion.
      continue;
    }
    y1g.push_back(pool_ys[i]);
    y2g.push_back(**y2);
    refs_g.push_back(pool_refs[i]);
  }
  const size_t g = y1g.size();

  // The retained pairs are fixed once refreshed, so their regression
  // slope, correlation and means hold across the top-up rounds below:
  // one fused pass takes them all. The pooled stats start from its
  // Welford pass over y2g, and the draws fold each fresh value in as it
  // lands, in draw order, so every round sees exactly the statistics a
  // full pass over y2g and yf would.
  IndependentEstimator::FreshDraws fresh;
  RunningStats& all = fresh.stats;
  bool regression_ok = false;
  double b = 0.0;
  double rho_regression = 0.0;
  double ybar1g = 0.0;
  double ybar2g = 0.0;
  if (Result<PairedMoments> moments = ComputePairedMoments(y1g, y2g);
      moments.ok()) {
    all = moments->y;
    ybar1g = moments->mean_x;
    ybar2g = moments->mean_y;
    if (g >= 3) {
      Result<LinearFit> fit = moments->RegressYOnX();
      Result<double> rho = moments->Correlation();
      regression_ok = fit.ok() && rho.ok();
      if (regression_ok) {
        b = fit->slope;
        rho_regression = *rho;
      }
    }
  } else {
    for (double y : y2g) all.Add(y);  // g < 2.
  }

  const std::vector<double>& yf = fresh.ys;
  const size_t f_initial =
      n_target > g ? n_target - g : std::max<size_t>(1, n_target / 4);
  DIGEST_RETURN_IF_ERROR(independent_.DrawContributing(origin, f_initial,
                                                       &fresh));
  if (fresh.partial && g + yf.size() < kMinPartialSamples) {
    // Too little material before the deadline; the engine's degraded
    // fallback (retained pool refresh) is the honest answer instead.
    return Status::Unavailable(
        "hop budget exhausted before the minimum partial sample count");
  }
  double sum_f = 0.0;  // Σ yf in draw order, the sum Mean(yf) takes.
  size_t folded = 0;   // Leading yf values already in sum_f.

  // Estimate, then top-up fresh samples until the combined variance meets
  // the contract (or caps are hit).
  double combined = 0.0;
  double combined_var = 0.0;
  double sigma2 = 0.0;
  double rho_sample = state_.rho_hat;
  const double needed_var = (eps_mean / z) * (eps_mean / z);
  for (size_t round = 0;; ++round) {
    const size_t f = yf.size();
    for (; folded < f; ++folded) sum_f += yf[folded];
    sigma2 = all.SampleStdDev();
    const double sigma2_sq = sigma2 * sigma2;

    if (!regression_ok || f == 0) {
      // Degenerate occasion: fall back to the plain mean of everything.
      combined = all.Mean();
      combined_var =
          all.SampleVariance() / static_cast<double>(std::max<size_t>(1,
                                                     all.count()));
      rho_sample = state_.rho_hat;
    } else {
      rho_sample = rho_regression;
      const double ybar2f = sum_f / static_cast<double>(f);
      const double rho_s2 = std::min(rho_sample * rho_sample, 0.9801);
      // Table 1 (recursive form): the regression estimate leans on the
      // previous occasion's combined estimate and inherits its variance.
      const double y_reg =
          ybar2g + b * (state_.prev_mean_estimate - ybar1g);
      const double var_f = sigma2_sq / static_cast<double>(f);
      const double var_g = sigma2_sq * (1.0 - rho_s2) / static_cast<double>(g)
                           + rho_s2 * state_.prev_variance;
      if (sigma2_sq == 0.0) {
        combined = ybar2f;
        combined_var = 0.0;
      } else {
        const double wf = var_f > 0.0 ? 1.0 / var_f : 0.0;
        const double wg = var_g > 0.0 ? 1.0 / var_g : 0.0;
        if (wf + wg <= 0.0) {
          combined = all.Mean();
          combined_var = 0.0;
        } else {
          combined = (wf * ybar2f + wg * y_reg) / (wf + wg);
          combined_var = 1.0 / (wf + wg);
        }
      }
    }
    const size_t total = g + yf.size();
    if (fresh.partial || combined_var <= needed_var ||
        round + 1 >= kMaxSizingRounds ||
        total >= options_.max_samples || sigma2 == 0.0) {
      break;
    }
    // Solve for the fresh count that brings the combined variance to the
    // contract: 1/var_total = 1/var_g + f/σ², so
    // f_req = σ²·(1/needed_var − 1/var_g).
    const double rho_s2 = std::min(rho_sample * rho_sample, 0.9801);
    const double var_g = sigma2 * sigma2 * (1.0 - rho_s2) /
                             static_cast<double>(std::max<size_t>(1, g)) +
                         rho_s2 * state_.prev_variance;
    double inv_var_g = var_g > 0.0 ? 1.0 / var_g : 0.0;
    double f_req = sigma2 * sigma2 * (1.0 / needed_var - inv_var_g);
    size_t f_want = CeilToCount(f_req, yf.size() + 1,
                                options_.max_samples - g);
    DIGEST_RETURN_IF_ERROR(independent_.DrawContributing(
        origin, f_want - yf.size(), &fresh));
  }

  // Memorize this occasion for the next one: the refreshed samples at
  // their current values, then the fresh ones.
  pool_refs = std::move(refs_g);
  pool_refs.insert(pool_refs.end(), fresh.refs.begin(), fresh.refs.end());
  pool_ys.assign(y2g.begin(), y2g.end());
  pool_ys.insert(pool_ys.end(), yf.begin(), yf.end());
  // Keep the pair data for forward regression, then roll the recursion.
  state_.last_pair_y1 = std::move(y1g);
  state_.last_pair_y2 = std::move(y2g);
  state_.before_update_mean = state_.prev_mean_estimate;
  state_.before_update_var = state_.prev_variance;
  state_.after_update_mean = combined;
  state_.after_update_var = combined_var;
  state_.prev_mean_estimate = combined;
  state_.prev_variance = combined_var;
  state_.sigma_hat = sigma2;
  state_.rho_hat = (1.0 - kCorrelationSmoothing) * state_.rho_hat +
                   kCorrelationSmoothing * rho_sample;
  ++state_.occasion;

  SnapshotEstimate est;
  est.mean_estimate = combined;
  est.sigma = sigma2;
  est.variance_of_mean = combined_var;
  est.total_samples = g + fresh.drawn;
  est.fresh_samples = fresh.drawn;
  est.retained_samples = g;
  est.contributing_samples = g + yf.size();
  est.partial = fresh.partial;
  DIGEST_ASSIGN_OR_RETURN(est.value,
                          independent_.ScaleToQueryUnits(combined));
  DIGEST_ASSIGN_OR_RETURN(
      est.ci_halfwidth,
      independent_.ScaleToQueryUnits(z * std::sqrt(combined_var)));
  if (fresh.partial && obs::Tracing(tracer_)) {
    tracer_->Emit(obs::PartialSnapshotEvent{
        static_cast<uint64_t>(yf.size()),
        static_cast<uint64_t>(fresh.planned), est.ci_halfwidth});
  }
  return est;
}

Result<SnapshotEstimate> RepeatedSamplingEstimator::EvaluateDegraded(
    NodeId origin) {
  (void)origin;  // Refreshes are direct contacts; no walks originate.
  DIGEST_RETURN_IF_ERROR(independent_.EnsureInitialized());
  const std::vector<TupleRef>& pool = state_.retained_refs;
  if (state_.occasion == 0 || pool.empty()) {
    return Status::Unavailable(
        "degraded evaluation needs a completed occasion with retained "
        "samples");
  }
  // Re-evaluate the retained pool in place. Deleted tuples, departed
  // nodes, and tuples that left the qualifying subpopulation drop out.
  std::vector<TupleRef> survivors;
  std::vector<double> survivor_ys;
  survivors.reserve(pool.size());
  survivor_ys.reserve(pool.size());
  RunningStats stats;
  for (const TupleRef& ref : pool) {
    if (meter_ != nullptr) meter_->AddRefresh();
    const Tuple* tuple = db_->FindTuple(ref);
    if (tuple == nullptr) continue;
    Result<std::optional<double>> y = independent_.ContributionValue(*tuple);
    if (!y.ok() || !y->has_value()) continue;
    survivors.push_back(ref);
    survivor_ys.push_back(**y);
    stats.Add(**y);
  }
  if (stats.count() < 2) {
    return Status::Unavailable(
        "retained pool no longer reachable; cannot degrade");
  }
  const double mean = stats.Mean();
  const double var =
      stats.SampleVariance() / static_cast<double>(stats.count());
  SnapshotEstimate est;
  est.mean_estimate = mean;
  est.sigma = stats.SampleStdDev();
  est.variance_of_mean = var;
  est.total_samples = survivors.size();
  est.fresh_samples = 0;
  est.retained_samples = survivors.size();
  est.contributing_samples = survivors.size();
  est.degraded = true;
  DIGEST_ASSIGN_OR_RETURN(est.value, independent_.ScaleToQueryUnits(mean));
  // The retained pool is smaller than a planned occasion and stale as a
  // sample of the *current* population: report the honest CLT interval
  // widened by the configured factor.
  DIGEST_ASSIGN_OR_RETURN(
      est.ci_halfwidth,
      independent_.ScaleToQueryUnits(kDegradedWidening * independent_.z_ *
                                     std::sqrt(var)));
  // Roll the refreshed values forward so the next healthy occasion's
  // regression pairs against up-to-date retained values.
  state_.retained_refs = std::move(survivors);
  state_.retained_ys = std::move(survivor_ys);
  state_.prev_mean_estimate = mean;
  state_.prev_variance = var;
  state_.sigma_hat = est.sigma;
  return est;
}

EstimatorState IndependentEstimator::SaveState() const {
  EstimatorState s;
  s.rng = rng_.SaveState();
  s.indep_rng = rng_.SaveState();
  return s;
}

void IndependentEstimator::RestoreState(const EstimatorState& state) {
  rng_.RestoreState(state.indep_rng);
}

EstimatorState RepeatedSamplingEstimator::SaveState() const {
  return {rng_.SaveState(), independent_.rng_.SaveState(), state_};
}

void RepeatedSamplingEstimator::RestoreState(const EstimatorState& state) {
  rng_.RestoreState(state.rng);
  independent_.rng_.RestoreState(state.indep_rng);
  state_ = state.retained;
}

}  // namespace digest
