#include "core/metrics.h"

#include <algorithm>
#include <cmath>

namespace digest {

Result<PrecisionReport> EvaluatePrecisionWidened(
    const std::vector<double>& reported, const std::vector<double>& truth,
    const std::vector<double>& ci_halfwidths,
    const PrecisionSpec& precision) {
  if (reported.size() != truth.size() ||
      reported.size() != ci_halfwidths.size()) {
    return Status::InvalidArgument(
        "reported, truth, and ci series must be tick-aligned");
  }
  if (reported.empty()) {
    return Status::InvalidArgument("precision evaluation needs ticks");
  }
  DIGEST_RETURN_IF_ERROR(precision.Validate());
  PrecisionReport report;
  report.ticks = reported.size();
  double sum_err = 0.0;
  size_t within = 0;
  for (size_t i = 0; i < reported.size(); ++i) {
    const double err = std::fabs(reported[i] - truth[i]);
    sum_err += err;
    report.max_abs_error = std::max(report.max_abs_error, err);
    const double tolerance =
        std::max(precision.epsilon, ci_halfwidths[i]) + precision.delta;
    if (err <= tolerance) ++within;
  }
  report.mean_abs_error = sum_err / static_cast<double>(reported.size());
  report.within_tolerance_fraction =
      static_cast<double>(within) / static_cast<double>(reported.size());
  return report;
}

Result<PrecisionReport> EvaluatePrecision(const std::vector<double>& reported,
                                          const std::vector<double>& truth,
                                          const PrecisionSpec& precision) {
  // Every ci at ε: max(ε, ε) + δ is the same double as ε + δ.
  return EvaluatePrecisionWidened(
      reported, truth, std::vector<double>(reported.size(), precision.epsilon),
      precision);
}

}  // namespace digest
