#include "numeric/stats.h"

#include <cmath>

namespace digest {

namespace {

// The regression's last step, on centred sums already taken.
Result<LinearFit> FitFromSums(double mx, double my, double sxx, double sxy) {
  if (sxx <= 0.0) {
    return Status::NumericError("regression undefined for constant x");
  }
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

// The correlation's last step, on a covariance and two variances.
Result<double> CorrelationFrom(double cov, double vx, double vy) {
  if (vx <= 0.0 || vy <= 0.0) {
    return Status::NumericError("correlation undefined for constant series");
  }
  double rho = cov / std::sqrt(vx * vy);
  // Clamp tiny floating-point excursions outside [-1, 1].
  if (rho > 1.0) rho = 1.0;
  if (rho < -1.0) rho = -1.0;
  return rho;
}

}  // namespace

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
}

double RunningStats::PopulationVariance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::SampleVariance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::SampleStdDev() const {
  return std::sqrt(SampleVariance());
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double PopulationVariance(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.Add(x);
  return s.PopulationVariance();
}

double SampleVariance(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.Add(x);
  return s.SampleVariance();
}

Result<double> SampleCovariance(const std::vector<double>& xs,
                                const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("covariance requires equal-length series");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("covariance requires at least 2 points");
  }
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double acc = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    acc += (xs[i] - mx) * (ys[i] - my);
  }
  return acc / static_cast<double>(xs.size() - 1);
}

Result<double> PearsonCorrelation(const std::vector<double>& xs,
                                  const std::vector<double>& ys) {
  DIGEST_ASSIGN_OR_RETURN(double cov, SampleCovariance(xs, ys));
  return CorrelationFrom(cov, SampleVariance(xs), SampleVariance(ys));
}

Result<double> Autocorrelation(const std::vector<double>& xs, size_t lag) {
  if (xs.size() <= lag) {
    return Status::InvalidArgument("series shorter than requested lag");
  }
  const double m = Mean(xs);
  double denom = 0.0;
  for (double x : xs) denom += (x - m) * (x - m);
  if (denom <= 0.0) {
    return Status::NumericError(
        "autocorrelation undefined for constant series");
  }
  double num = 0.0;
  for (size_t i = 0; i + lag < xs.size(); ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  return num / denom;
}

Result<LinearFit> SimpleLinearRegression(const std::vector<double>& xs,
                                         const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("regression requires equal-length series");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("regression requires at least 2 points");
  }
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
  }
  return FitFromSums(mx, my, sxx, sxy);
}

Result<LinearFit> PairedMoments::RegressYOnX() const {
  return FitFromSums(mean_x, mean_y, sxx, sxy);
}

Result<LinearFit> PairedMoments::RegressXOnY() const {
  // IEEE products commute exactly, so sxy is also Σ(y−ȳ)(x−x̄).
  return FitFromSums(mean_y, mean_x, syy, sxy);
}

Result<double> PairedMoments::Correlation() const {
  // SampleCovariance's sum is sxy term for term.
  return CorrelationFrom(sxy / static_cast<double>(x.count() - 1),
                         x.SampleVariance(), y.SampleVariance());
}

Result<PairedMoments> ComputePairedMoments(const std::vector<double>& xs,
                                           const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument(
        "paired moments require equal-length series");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("paired moments require at least 2 points");
  }
  const size_t n = xs.size();
  PairedMoments m;
  // Pass 1: the two Welford chains are independent, so their divisions
  // overlap; the sums are Mean's, in its order.
  double sum_x = 0.0;
  double sum_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    m.x.Add(xs[i]);
    m.y.Add(ys[i]);
    sum_x += xs[i];
    sum_y += ys[i];
  }
  m.mean_x = sum_x / static_cast<double>(n);
  m.mean_y = sum_y / static_cast<double>(n);
  // Pass 2: the centred sums.
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - m.mean_x;
    const double dy = ys[i] - m.mean_y;
    m.sxx += dx * dx;
    m.syy += dy * dy;
    m.sxy += dx * dy;
  }
  return m;
}

}  // namespace digest
