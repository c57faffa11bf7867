#include "core/extrapolator.h"

#include <cmath>
#include <vector>

#include "numeric/levmar.h"

namespace digest {

Extrapolator::Extrapolator(ExtrapolatorOptions options) : options_(options) {
  if (options_.history_points < 2) options_.history_points = 2;
  if (options_.max_skip < 1) options_.max_skip = 1;
}

Status Extrapolator::AddObservation(int64_t t, double x) {
  std::vector<int64_t>& ticks = state_.ticks;
  std::vector<double>& values = state_.values;
  if (!ticks.empty() && t <= ticks.back()) {
    return Status::InvalidArgument(
        "observations must have strictly increasing ticks");
  }
  ticks.push_back(t);
  values.push_back(x);
  fit_.reset();
  // One extra point beyond k is kept for the remainder estimate.
  const size_t keep = options_.history_points + 1;
  if (ticks.size() > keep) {
    ticks.erase(ticks.begin(), ticks.end() - keep);
    values.erase(values.begin(), values.end() - keep);
  }
  return Status::OK();
}

const Result<Extrapolator::Fit>& Extrapolator::FitHistory() const {
  if (!fit_.has_value()) fit_.emplace(ComputeFit());
  return *fit_;
}

Result<Extrapolator::Fit> Extrapolator::ComputeFit() const {
  const size_t k = options_.history_points;
  const size_t n = state_.ticks.size();
  if (n < k) {
    return Status::FailedPrecondition("extrapolator is still bootstrapping");
  }
  const int64_t t_last = state_.ticks.back();
  // The window in the shifted variable s = t − t_last (so s ≤ 0 and
  // extrapolation evaluates at s > 0). The fit uses the most recent k
  // points.
  std::vector<double> all_xs;
  all_xs.reserve(n);
  for (int64_t t : state_.ticks) {
    all_xs.push_back(static_cast<double>(t - t_last));
  }
  const std::vector<double> xs(all_xs.end() - k, all_xs.end());
  const std::vector<double> ys(state_.values.end() - k, state_.values.end());
  const size_t degree = k - 1;
  // The paper fits the Taylor polynomial with Levenberg–Marquardt. Seed
  // LM from the constant term to keep iterations short.
  std::vector<double> initial(degree + 1, 0.0);
  initial[0] = ys.back();
  auto model = [](double x, const std::vector<double>& params) {
    double acc = 0.0;
    for (size_t i = params.size(); i-- > 0;) acc = acc * x + params[i];
    return acc;
  };
  DIGEST_ASSIGN_OR_RETURN(LevMarResult lm,
                          FitModelLevMar(model, xs, ys, initial));
  Fit fit;
  fit.poly = Polynomial(lm.parameters);
  // Lagrange-remainder constant |f⁽ᵏ⁾(ξ)/k!| (Eq. 2/3): the order-k
  // divided difference needs k+1 points; with only k available, fall
  // back to the magnitude of the highest fitted coefficient (the
  // order-(k−1) derivative scale) as a conservative proxy.
  if (n >= k + 1) {
    DIGEST_ASSIGN_OR_RETURN(std::vector<double> dd,
                            DividedDifferences(all_xs, state_.values));
    fit.remainder_c = std::fabs(dd.back());
  } else {
    fit.remainder_c = std::fabs(fit.poly.coefficients().back());
  }
  return fit;
}

Result<int64_t> Extrapolator::PredictNextSnapshotTime(
    double delta, double reference) const {
  if (delta < 0.0) {
    return Status::InvalidArgument("delta must be >= 0");
  }
  if (state_.ticks.empty()) {
    return Status::FailedPrecondition("no observations yet");
  }
  const int64_t t_last = state_.ticks.back();
  if (!Bootstrapped() || delta == 0.0) {
    // Bootstrap period (or exact resolution): continuous querying.
    return t_last + 1;
  }
  const Result<Fit>& fitted = FitHistory();
  if (!fitted.ok()) return fitted.status();
  const Fit& fit = *fitted;
  const double k = static_cast<double>(options_.history_points);
  for (int64_t s = 1; s <= options_.max_skip; ++s) {
    const double sd = static_cast<double>(s);
    const double drift = std::fabs(fit.poly.Evaluate(sd) - reference);
    const double remainder = fit.remainder_c * std::pow(sd, k);
    if (drift + remainder > delta) {
      return t_last + s;
    }
  }
  return t_last + options_.max_skip;
}

Result<int64_t> Extrapolator::PredictNextSnapshotTime(double delta) const {
  if (delta < 0.0) {
    return Status::InvalidArgument("delta must be >= 0");
  }
  if (state_.ticks.empty()) {
    return Status::FailedPrecondition("no observations yet");
  }
  if (!Bootstrapped()) {
    return state_.ticks.back() + 1;
  }
  const Result<Fit>& fit = FitHistory();
  if (!fit.ok()) return fit.status();
  return PredictNextSnapshotTime(delta, fit->poly.Evaluate(0.0));
}

Result<double> Extrapolator::ExtrapolatedValue(int64_t t) const {
  if (state_.ticks.empty()) {
    return Status::FailedPrecondition("no observations yet");
  }
  if (!Bootstrapped()) {
    return state_.values.back();
  }
  const Result<Fit>& fit = FitHistory();
  if (!fit.ok()) return fit.status();
  return fit->poly.Evaluate(static_cast<double>(t - state_.ticks.back()));
}

}  // namespace digest
