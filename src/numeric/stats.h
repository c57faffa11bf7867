#ifndef DIGEST_NUMERIC_STATS_H_
#define DIGEST_NUMERIC_STATS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace digest {

/// Single-pass running moments (Welford's algorithm).
///
/// Numerically stable accumulation of count, mean, and variance; used by
/// the estimators to avoid a second pass over sample sets.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);

  /// Number of observations added.
  size_t count() const { return count_; }

  /// Sample mean; 0 when empty. Callers that cannot prove the
  /// accumulator is non-empty should use CheckedMean() instead — an
  /// empty accumulator's 0.0 is indistinguishable from a genuine zero
  /// mean and can mask use-before-add bugs (estimator warm-up paths).
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Sample mean, or FailedPrecondition when no observation was added.
  Result<double> CheckedMean() const {
    if (count_ == 0) {
      return Status::FailedPrecondition(
          "RunningStats::CheckedMean on an empty accumulator");
    }
    return mean_;
  }

  /// Population variance (divide by n); 0 when fewer than 1 observation.
  double PopulationVariance() const;

  /// Sample variance (divide by n-1); 0 when fewer than 2 observations.
  double SampleVariance() const;

  /// sqrt(SampleVariance()).
  double SampleStdDev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of `xs`; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population variance (divide by n) of `xs`.
double PopulationVariance(const std::vector<double>& xs);

/// Sample variance (divide by n-1) of `xs`; 0 when size < 2.
double SampleVariance(const std::vector<double>& xs);

/// Sample covariance of paired `xs`, `ys` (divide by n-1).
/// Fails if the sizes differ or size < 2.
Result<double> SampleCovariance(const std::vector<double>& xs,
                                const std::vector<double>& ys);

/// Pearson correlation coefficient of paired `xs`, `ys` in [-1, 1].
/// Fails if sizes differ, size < 2, or either series is constant.
Result<double> PearsonCorrelation(const std::vector<double>& xs,
                                  const std::vector<double>& ys);

/// Lag-`lag` autocorrelation of the series `xs` (biased estimator,
/// normalized by the overall variance). Fails if xs.size() <= lag or the
/// series is constant.
Result<double> Autocorrelation(const std::vector<double>& xs, size_t lag);

/// Simple linear regression of y on x: returns {intercept, slope}.
/// Fails on mismatched sizes, size < 2, or constant x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
};
Result<LinearFit> SimpleLinearRegression(const std::vector<double>& xs,
                                         const std::vector<double>& ys);

/// Every moment of a paired series (x, y) that a regression estimate
/// reads, from two passes instead of one per helper. Each is bit-equal
/// to what the one-series helpers return on the same series: `x` and
/// `y` are RunningStats fed xs and ys in order, `mean_x` and `mean_y`
/// are Mean(xs) and Mean(ys), and sxx, syy, sxy are the centred sums
/// Σ(x−x̄)², Σ(y−ȳ)², Σ(x−x̄)(y−ȳ) that SimpleLinearRegression and
/// SampleCovariance take term for term.
struct PairedMoments {
  RunningStats x;
  RunningStats y;
  double mean_x = 0.0;
  double mean_y = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;

  /// SimpleLinearRegression(xs, ys): fails on constant x.
  Result<LinearFit> RegressYOnX() const;

  /// SimpleLinearRegression(ys, xs): fails on constant y.
  Result<LinearFit> RegressXOnY() const;

  /// PearsonCorrelation(xs, ys): fails when either series is constant.
  Result<double> Correlation() const;
};

/// The two passes over paired `xs`, `ys`: Welford and the plain sums,
/// then the centred sums. Fails if the sizes differ or size < 2.
Result<PairedMoments> ComputePairedMoments(const std::vector<double>& xs,
                                           const std::vector<double>& ys);

}  // namespace digest

#endif  // DIGEST_NUMERIC_STATS_H_
