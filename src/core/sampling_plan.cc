#include "core/sampling_plan.h"

#include <cmath>
#include <cstdint>

namespace digest {
namespace {

constexpr double kMaxPlanningRho = 0.99;

// ceil(x) as a sample size: at least 1, and SIZE_MAX past the size_t
// range (where the cast is undefined, and yields 0 on x86-64), so the
// estimators' max_samples cap applies instead of the pilot floor.
size_t CeilPositive(double x) {
  if (!(x > 0.0)) return 1;
  const double n = std::ceil(x);
  if (n >= static_cast<double>(SIZE_MAX)) return SIZE_MAX;
  return static_cast<size_t>(n);
}

}  // namespace

Result<size_t> CltSampleSize(double sigma, double epsilon, double z) {
  if (sigma < 0.0) {
    return Status::InvalidArgument("sigma must be >= 0");
  }
  if (!(epsilon > 0.0) || !(z > 0.0)) {
    return Status::InvalidArgument("epsilon and z must be > 0");
  }
  const double ratio = z * sigma / epsilon;
  return CeilPositive(ratio * ratio);
}

Result<size_t> HoeffdingSampleSize(double range, double epsilon,
                                   double confidence) {
  if (!(range > 0.0) || !(epsilon > 0.0)) {
    return Status::InvalidArgument("range and epsilon must be > 0");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  const double n = std::log(2.0 / (1.0 - confidence)) * range * range /
                   (2.0 * epsilon * epsilon);
  return CeilPositive(n);
}

Result<RepeatedSamplingPlan> PlanRepeatedOccasion(double sigma, double rho,
                                                  double epsilon,
                                                  double z) {
  if (sigma < 0.0) {
    return Status::InvalidArgument("sigma must be >= 0");
  }
  if (!(epsilon > 0.0) || !(z > 0.0)) {
    return Status::InvalidArgument("epsilon and z must be > 0");
  }
  double rho2 = rho * rho;
  rho2 = std::min(rho2, kMaxPlanningRho * kMaxPlanningRho);
  const double root = std::sqrt(1.0 - rho2);
  // Eq. 10: var_min = σ²(1+√(1−ρ²))/(2n) ≤ (ε/z)².
  const double n_raw =
      sigma * sigma * (1.0 + root) * z * z / (2.0 * epsilon * epsilon);
  RepeatedSamplingPlan plan;
  plan.total = CeilPositive(n_raw);
  // Eq. 9 (corrected; the paper's print swaps g and f — see
  // EXPERIMENTS.md): f_opt = n/(1+r), g_opt = n·r/(1+r).
  plan.retained = static_cast<size_t>(
      static_cast<double>(plan.total) * root / (1.0 + root));
  plan.fresh = plan.total - plan.retained;
  return plan;
}

Result<double> CombinedVarianceFactor(size_t n, size_t fresh, double rho) {
  if (fresh == 0 || fresh > n) {
    return Status::InvalidArgument("need 0 < fresh <= n");
  }
  if (std::fabs(rho) > 1.0) {
    return Status::InvalidArgument("|rho| must be <= 1");
  }
  const double nd = static_cast<double>(n);
  const double fd = static_cast<double>(fresh);
  const double rho2 = rho * rho;
  // Eq. 8 in the fresh-portion form: var = σ²(n − ρ²f)/(n² − ρ²f²).
  return (nd - rho2 * fd) / (nd * nd - rho2 * fd * fd);
}

double OptimalImprovementRatio(double rho) {
  const double rho2 = std::min(rho * rho, 1.0);
  return 2.0 / (1.0 + std::sqrt(1.0 - rho2));
}

}  // namespace digest
