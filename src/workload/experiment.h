#ifndef DIGEST_WORKLOAD_EXPERIMENT_H_
#define DIGEST_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "net/message_meter.h"
#include "workload/workload.h"

namespace digest {

/// Outcome of driving one query-answering configuration over a workload.
struct RunResult {
  EngineStats stats;                ///< Zeroed for push baselines.
  MessageMeter meter;               ///< Communication-cost breakdown.
  std::vector<double> reported;     ///< X̂[t], tick-aligned.
  std::vector<double> truth;        ///< Oracle X[t], tick-aligned.
  std::vector<double> ci_halfwidths;///< Reported CI half-widths (engine runs).
  PrecisionReport precision;        ///< reported vs truth, uniform ε.
  /// reported vs truth under the per-tick widened contract
  /// (max(ε, ci[t]) + δ) — what a fault-injected run promises.
  PrecisionReport widened_precision;
  size_t degraded_ticks = 0;        ///< Ticks answered degraded.
  double correlation_estimate = 0;  ///< ρ̂ at the end (RPT engines).
  /// Session health at the end of the run (engine runs; push/filter
  /// baselines report kHealthy).
  SessionHealth final_health = SessionHealth::kHealthy;
};

/// Opens one run on the attached instruments: rewinds the tracer clock
/// to `now` and emits a RunBeginEvent labelled `run_label`, opens an
/// audit run under the same label, and resets the sampler diagnostics
/// and the peer-health monitor. RunEngineExperiment calls it; drivers
/// that tick an engine or node themselves call it once per run.
void BeginInstrumentedRun(const obs::Instruments& instruments, int64_t now,
                          const std::string& run_label);

/// Runs a Digest engine configuration over `ticks` ticks of `workload`.
/// A querying node is drawn with `seed`; the workload is consumed (pass
/// a fresh instance per run — identical seeds give identical data).
/// If options.fault_plan is set, the plan's clock is advanced in step
/// with the workload so stall windows track simulation time.
///
/// The run opens with BeginInstrumentedRun under `run_label` (or
/// "engine-run"): with options.tracer set, a RunBeginEvent maps the run
/// to its own exporter process lane. With options.registry set,
/// the run's final EngineStats and MessageMeter are bridged into it
/// (engine.* / net.* counters) when the run completes.
///
/// With options.auditor set, the harness opens an audit run labelled
/// `run_label`, resolves every tick's audit occasion against the
/// workload's exact-aggregate oracle (RecordTruth), finalizes the run
/// (emitting one audit_slo event when tracing), and bridges the
/// auditor's counters/gauges/histograms into the registry when set.
Result<RunResult> RunEngineExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      const DigestEngineOptions& options,
                                      size_t ticks, uint64_t seed,
                                      const std::string& run_label = "");

/// Runs the ALL+ALL push-everything baseline (exact results).
Result<RunResult> RunPushAllExperiment(Workload& workload,
                                       const ContinuousQuerySpec& spec,
                                       size_t ticks, uint64_t seed);

/// Runs the ALL+FILTER adaptive-filter baseline.
Result<RunResult> RunFilterExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      size_t ticks, uint64_t seed);

}  // namespace digest

#endif  // DIGEST_WORKLOAD_EXPERIMENT_H_
