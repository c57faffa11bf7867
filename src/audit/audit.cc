#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.h"

namespace digest {
namespace audit {
namespace {

// Fixed, spec-independent bucket layouts: errors are standardized by ε
// before observation, so the same edges audit every workload and the
// exported histograms aggregate across runs.
std::vector<double> AbsErrorBounds() {
  return obs::LinearBuckets(0.125, 4.0, 32);
}
std::vector<double> CostBounds() {
  return obs::ExponentialBuckets(1.0, 2.0, 24);
}

// Drift-detector tuning. Errors are standardized by ε before the CUSUM
// fold, so these suit every workload. kEwmaAlpha smooths the
// signed-error and cost baselines; kCusumSlack is the CUSUM slack k (in
// ε units for the error detector, in relative cost excess for the cost
// detector); a one-sided sum above kCusumThreshold (h) is a breach; and
// kBreachPatience consecutive in-breach resolutions ask the supervisor
// to degrade, after which the detector resets and re-arms.
constexpr double kEwmaAlpha = 0.25;
constexpr double kCusumSlack = 0.5;
constexpr double kCusumThreshold = 8.0;
constexpr uint64_t kBreachPatience = 3;

}  // namespace

const char* MissCauseName(MissCause cause) {
  switch (cause) {
    case MissCause::kNone:
      return "none";
    case MissCause::kVarianceUndershoot:
      return "variance_undershoot";
    case MissCause::kPredResidual:
      return "pred_residual";
    case MissCause::kPartialSnapshot:
      return "partial_snapshot";
    case MissCause::kRetainedPoolFallback:
      return "retained_pool";
    case MissCause::kHedgeTimeout:
      return "hedge_timeout";
    case MissCause::kPoorMixing:
      return "poor_mixing";
    case MissCause::kPeerQuarantine:
      return "peer_quarantine";
  }
  return "unknown";
}

PrecisionAuditor::PrecisionAuditor()
    : abs_error_hist_(AbsErrorBounds()), cost_hist_(CostBounds()) {}

void PrecisionAuditor::AttachContract(double delta, double epsilon,
                                      double confidence) {
  delta_ = delta;
  epsilon_ = epsilon;
  confidence_ = confidence;
}

void PrecisionAuditor::BeginRun(const std::string& label) {
  state_ = State();
  state_.run_label = label;
  abs_error_hist_ = obs::Histogram(AbsErrorBounds());
  cost_hist_ = obs::Histogram(CostBounds());
}

void PrecisionAuditor::FlushPending() {
  if (state_.pending_snapshot) {
    // No oracle resolved this occasion: it joins the ledger (and the
    // cost stream) but stays out of the coverage denominator.
    const CoverageRecord& r = state_.pending_record;
    state_.records.push_back(r);
    cost_hist_.Observe(static_cast<double>(r.message_cost));
    state_.pending_snapshot = false;
  }
  state_.pending_skip = false;  // An unresolved skip carries no information.
}

void PrecisionAuditor::RecordSnapshot(const SnapshotObservation& o) {
  FlushPending();
  CoverageRecord& r = state_.pending_record;
  r = CoverageRecord();
  r.tick = o.tick;
  r.estimate = o.estimate;
  r.ci_halfwidth = o.ci_halfwidth;
  r.degraded = o.degraded;
  r.partial = o.partial;
  r.health = o.health;
  r.total_samples = o.total_samples;
  r.fresh_samples = o.fresh_samples;
  r.retained_samples = o.retained_samples;
  r.message_cost = o.message_cost;
  r.mixing_breach = o.mixing_breach;
  r.quarantine = o.quarantine;
  state_.pending_snapshot = true;
}

void PrecisionAuditor::RecordTimeout(int64_t tick, double held_value,
                                     double ci_halfwidth,
                                     uint64_t message_cost, int health) {
  FlushPending();
  CoverageRecord& r = state_.pending_record;
  r = CoverageRecord();
  r.tick = tick;
  r.estimate = held_value;
  r.ci_halfwidth = ci_halfwidth;
  r.degraded = true;
  r.timeout = true;
  r.health = health;
  r.message_cost = message_cost;
  state_.pending_snapshot = true;
}

void PrecisionAuditor::RecordSkip(int64_t tick, double reported,
                                  double ci_halfwidth) {
  FlushPending();
  state_.pending_skip = true;
  state_.skip_tick = tick;
  state_.skip_reported = reported;
  state_.skip_ci = ci_halfwidth;
}

bool PrecisionAuditor::TakePendingBreachFlip() {
  if (state_.pending_flips == 0) return false;
  --state_.pending_flips;
  return true;
}

void PrecisionAuditor::RecordTruth(int64_t tick, double truth) {
  if (state_.pending_snapshot && state_.pending_record.tick == tick) {
    ResolveSnapshot(truth);
  } else if (state_.pending_skip && state_.skip_tick == tick) {
    ResolveSkip(truth);
  } else {
    ++state_.unmatched_truths;
  }
}

void PrecisionAuditor::ResolveSnapshot(double truth) {
  CoverageRecord r = state_.pending_record;
  state_.pending_snapshot = false;
  r.truth = truth;
  r.has_truth = true;
  const double error = r.estimate - truth;
  r.hit = std::fabs(error) <= r.ci_halfwidth;
  if (r.hit) {
    r.cause = MissCause::kNone;
    ++state_.hits;
  } else {
    // Structural attribution, worst subsystem state first: the flags
    // were stamped by the engine/estimator when the occasion ran.
    r.cause = r.timeout         ? MissCause::kHedgeTimeout
              : r.degraded      ? MissCause::kRetainedPoolFallback
              : r.partial       ? MissCause::kPartialSnapshot
              : r.quarantine    ? MissCause::kPeerQuarantine
              : r.mixing_breach ? MissCause::kPoorMixing
                                : MissCause::kVarianceUndershoot;
    ++state_.misses;
    ++state_.cause_counts[static_cast<size_t>(r.cause)];
  }
  state_.records.push_back(r);
  abs_error_hist_.Observe(std::fabs(error) / epsilon_);
  cost_hist_.Observe(static_cast<double>(r.message_cost));

  const uint64_t occasions = state_.hits + state_.misses;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditCoverageEvent{r.estimate, truth, r.ci_halfwidth,
                                          r.hit, MissCauseName(r.cause),
                                          occasions, state_.misses});
    if (!r.hit) {
      const double miss_rate = static_cast<double>(state_.misses) /
                               static_cast<double>(occasions);
      const double burn = miss_rate / (1.0 - confidence_);
      tracer_->Emit(obs::AuditBudgetEvent{burn, std::max(0.0, 1.0 - burn),
                                          occasions, state_.misses});
    }
  }

  // Drift detectors, both standardized so thresholds are
  // workload-independent: error in ε units, cost as relative excess
  // over its own EWMA baseline.
  const double s = error / epsilon_;
  const double a = kEwmaAlpha;
  const DriftDetector& err = state_.error_detector;
  const double error_ewma_next =
      err.initialized ? (1.0 - a) * err.ewma + a * s : s;
  UpdateDetector(&state_.error_detector, "signed_error", s, error_ewma_next);

  const double cost = static_cast<double>(r.message_cost);
  double relative_excess = 0.0;
  double cost_ewma_next = cost;
  if (state_.cost_detector.initialized) {
    relative_excess = cost / std::max(state_.cost_detector.ewma, 1e-12) - 1.0;
    cost_ewma_next = (1.0 - a) * state_.cost_detector.ewma + a * cost;
  }
  UpdateDetector(&state_.cost_detector, "message_cost", relative_excess,
                 cost_ewma_next);
}

void PrecisionAuditor::ResolveSkip(double truth) {
  state_.pending_skip = false;
  ++state_.delta_ticks;
  // The per-tick widened contract (EvaluatePrecisionWidened): the
  // extrapolated/held answer must sit within max(ε, ci) + δ of truth.
  const double bound = std::max(epsilon_, state_.skip_ci) + delta_;
  if (std::fabs(state_.skip_reported - truth) > bound) {
    ++state_.delta_misses;
    ++state_.cause_counts[static_cast<size_t>(MissCause::kPredResidual)];
  }
}

bool PrecisionAuditor::UpdateDetector(DriftDetector* detector,
                                      const char* name, double value,
                                      double ewma_next) {
  detector->ewma = ewma_next;
  detector->initialized = true;
  const double k = kCusumSlack;
  detector->cusum_pos = std::max(0.0, detector->cusum_pos + value - k);
  detector->cusum_neg = std::max(0.0, detector->cusum_neg - value - k);
  const bool breached =
      std::max(detector->cusum_pos, detector->cusum_neg) > kCusumThreshold;
  if (!breached) {
    detector->streak = 0;
    return false;
  }
  ++detector->breaches;
  ++detector->streak;
  const bool flip = detector->streak >= kBreachPatience;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditDriftEvent{
        name, detector->ewma, detector->cusum_pos, detector->cusum_neg,
        kCusumThreshold, detector->streak, flip});
  }
  if (flip) {
    // Sustained breach: request one supervisor degradation (the engine
    // drains the flip at its next tick) and re-arm the detector.
    ++state_.supervisor_flips;
    ++state_.pending_flips;
    detector->cusum_pos = 0.0;
    detector->cusum_neg = 0.0;
    detector->streak = 0;
  }
  return true;
}

void PrecisionAuditor::FinalizeRun() {
  FlushPending();
  Summary s = Summarize();
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditSloEvent{
        s.label, s.p, s.epsilon, s.delta, s.occasions, s.hits, s.misses,
        s.coverage, s.coverage_floor, s.coverage_ok, s.delta_ticks,
        s.delta_misses, s.delta_compliance, s.budget_burn,
        s.budget_remaining});
  }
  completed_runs_.push_back(std::move(s));
}

PrecisionAuditor::Summary PrecisionAuditor::Summarize() const {
  Summary s;
  s.label = state_.run_label;
  s.p = confidence_;
  s.epsilon = epsilon_;
  s.delta = delta_;
  s.occasions = state_.hits + state_.misses;
  s.hits = state_.hits;
  s.misses = state_.misses;
  if (s.occasions > 0) {
    const double n = static_cast<double>(s.occasions);
    s.coverage = static_cast<double>(state_.hits) / n;
    s.coverage_floor =
        confidence_ -
        2.0 * std::sqrt(confidence_ * (1.0 - confidence_) / n);
    s.coverage_ok = s.coverage >= s.coverage_floor;
    const double miss_rate = static_cast<double>(state_.misses) / n;
    s.budget_burn = miss_rate / (1.0 - confidence_);
    s.budget_remaining = std::max(0.0, 1.0 - s.budget_burn);
  }
  s.delta_ticks = state_.delta_ticks;
  s.delta_misses = state_.delta_misses;
  if (state_.delta_ticks > 0) {
    s.delta_compliance =
        static_cast<double>(state_.delta_ticks - state_.delta_misses) /
        static_cast<double>(state_.delta_ticks);
  }
  s.ledger_records = state_.records.size();
  std::memcpy(s.cause_counts, state_.cause_counts, sizeof(s.cause_counts));
  s.error_breaches = state_.error_detector.breaches;
  s.cost_breaches = state_.cost_detector.breaches;
  s.supervisor_flips = state_.supervisor_flips;
  s.p50_abs_error_eps = abs_error_hist_.Quantile(0.5);
  s.p90_abs_error_eps = abs_error_hist_.Quantile(0.9);
  s.p90_snapshot_cost = cost_hist_.Quantile(0.9);
  return s;
}

std::string PrecisionAuditor::SummaryJson() const {
  const Summary s = Summarize();
  std::string out = "{\"label\":\"";
  AppendJsonEscaped(&out, s.label);
  out += "\",\"p\":";
  AppendDouble(&out, s.p);
  out += ",\"epsilon\":";
  AppendDouble(&out, s.epsilon);
  out += ",\"delta\":";
  AppendDouble(&out, s.delta);
  out += ",\"occasions\":";
  out += std::to_string(s.occasions);
  out += ",\"hits\":";
  out += std::to_string(s.hits);
  out += ",\"misses\":";
  out += std::to_string(s.misses);
  out += ",\"coverage\":";
  AppendDouble(&out, s.coverage);
  out += ",\"coverage_floor\":";
  AppendDouble(&out, s.coverage_floor);
  out += ",\"coverage_ok\":";
  out += s.coverage_ok ? "true" : "false";
  out += ",\"delta_ticks\":";
  out += std::to_string(s.delta_ticks);
  out += ",\"delta_misses\":";
  out += std::to_string(s.delta_misses);
  out += ",\"delta_compliance\":";
  AppendDouble(&out, s.delta_compliance);
  out += ",\"budget_burn\":";
  AppendDouble(&out, s.budget_burn);
  out += ",\"budget_remaining\":";
  AppendDouble(&out, s.budget_remaining);
  out += ",\"ledger_records\":";
  out += std::to_string(s.ledger_records);
  out += ",\"attribution\":{";
  bool first = true;
  for (size_t i = 1; i < kNumMissCauses; ++i) {  // Skip "none".
    if (!first) out += ',';
    first = false;
    out += '"';
    out += MissCauseName(static_cast<MissCause>(i));
    out += "\":";
    out += std::to_string(s.cause_counts[i]);
  }
  out += "},\"drift_breaches\":{\"signed_error\":";
  out += std::to_string(s.error_breaches);
  out += ",\"message_cost\":";
  out += std::to_string(s.cost_breaches);
  out += "},\"supervisor_flips\":";
  out += std::to_string(s.supervisor_flips);
  out += ",\"p50_abs_error_eps\":";
  AppendDouble(&out, s.p50_abs_error_eps);
  out += ",\"p90_abs_error_eps\":";
  AppendDouble(&out, s.p90_abs_error_eps);
  out += ",\"p90_snapshot_cost\":";
  AppendDouble(&out, s.p90_snapshot_cost);
  out += '}';
  return out;
}

void PrecisionAuditor::ExportToRegistry(obs::Registry* registry) const {
  if (registry == nullptr) return;
  const obs::LabelSet run_labels =
      state_.run_label.empty() ? obs::LabelSet{}
                         : obs::LabelSet{{"run", state_.run_label}};
  auto labelled = [&](const char* key, const char* value) {
    obs::LabelSet labels = run_labels;
    labels.emplace_back(key, value);
    return labels;
  };
  const std::pair<const char*, uint64_t> counters[] = {
      {"audit.occasions", state_.hits + state_.misses},
      {"audit.hits", state_.hits},
      {"audit.misses", state_.misses},
      {"audit.delta_ticks", state_.delta_ticks},
      {"audit.delta_misses", state_.delta_misses},
      {"audit.unmatched_truths", state_.unmatched_truths},
      {"audit.supervisor_flips", state_.supervisor_flips},
  };
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    registry->GetCounter(name, run_labels)->Increment(value);
  }
  for (size_t i = 1; i < kNumMissCauses; ++i) {
    const uint64_t count = state_.cause_counts[i];
    if (count == 0) continue;
    registry
        ->GetCounter("audit.miss_cause",
                     labelled("cause",
                              MissCauseName(static_cast<MissCause>(i))))
        ->Increment(count);
  }
  if (state_.error_detector.breaches > 0) {
    registry
        ->GetCounter("audit.drift_breaches",
                     labelled("detector", "signed_error"))
        ->Increment(state_.error_detector.breaches);
  }
  if (state_.cost_detector.breaches > 0) {
    registry
        ->GetCounter("audit.drift_breaches",
                     labelled("detector", "message_cost"))
        ->Increment(state_.cost_detector.breaches);
  }
  const Summary s = Summarize();
  registry->GetGauge("audit.coverage", run_labels)->Set(s.coverage);
  registry->GetGauge("audit.coverage_floor", run_labels)
      ->Set(s.coverage_floor);
  registry->GetGauge("audit.delta_compliance", run_labels)
      ->Set(s.delta_compliance);
  registry->GetGauge("audit.budget_burn", run_labels)->Set(s.budget_burn);
  registry->GetGauge("audit.budget_remaining", run_labels)
      ->Set(s.budget_remaining);
  obs::Histogram* abs_error =
      registry->GetHistogram("audit.abs_error_eps", AbsErrorBounds(),
                             run_labels);
  obs::Histogram* cost =
      registry->GetHistogram("audit.snapshot_cost", CostBounds(),
                             run_labels);
  for (const CoverageRecord& r : state_.records) {
    if (r.has_truth) {
      abs_error->Observe(std::fabs(r.estimate - r.truth) / epsilon_);
    }
    cost->Observe(static_cast<double>(r.message_cost));
  }
}

void PrecisionAuditor::RestoreState(const State& state) {
  state_ = state;
  RebuildHistograms();
}

void PrecisionAuditor::RebuildHistograms() {
  abs_error_hist_ = obs::Histogram(AbsErrorBounds());
  cost_hist_ = obs::Histogram(CostBounds());
  for (const CoverageRecord& r : state_.records) {
    if (r.has_truth) {
      abs_error_hist_.Observe(std::fabs(r.estimate - r.truth) / epsilon_);
    }
    cost_hist_.Observe(static_cast<double>(r.message_cost));
  }
}

std::string RenderSloTable(
    const std::vector<PrecisionAuditor::Summary>& runs) {
  std::string out = "== audit SLO ==\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-24s %6s %9s %9s %4s %8s %7s %6s\n", "run", "occ",
                "coverage", "floor", "ok", "delta", "burn", "flips");
  out += buf;
  for (const PrecisionAuditor::Summary& s : runs) {
    std::snprintf(
        buf, sizeof(buf),
        "  %-24s %6llu %9.4f %9.4f %4s %8.4f %7.3f %6llu\n",
        s.label.empty() ? "(unlabelled)" : s.label.c_str(),
        static_cast<unsigned long long>(s.occasions), s.coverage,
        s.coverage_floor, s.coverage_ok ? "yes" : "NO",
        s.delta_compliance, s.budget_burn,
        static_cast<unsigned long long>(s.supervisor_flips));
    out += buf;
  }
  if (runs.empty()) out += "  (no completed runs)\n";
  return out;
}

}  // namespace audit
}  // namespace digest
