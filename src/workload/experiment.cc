#include "workload/experiment.h"

#include "audit/audit.h"
#include "baselines/olston_filter.h"
#include "baselines/push_all.h"
#include "diag/diag.h"
#include "net/peer_health.h"
#include "numeric/rng.h"
#include "obs/bridge.h"
#include "obs/tracer.h"

namespace digest {

void BeginInstrumentedRun(const obs::Instruments& instruments, int64_t now,
                          const std::string& run_label) {
  if (obs::Tracing(instruments.tracer)) {
    // Rewind the shared tracer clock to this run's start so a marker
    // left over from a previous run cannot stamp it with stale time.
    instruments.tracer->set_now(now);
    instruments.tracer->Emit(obs::RunBeginEvent{run_label});
  }
  if (instruments.auditor != nullptr) {
    instruments.auditor->BeginRun(run_label);
  }
  // Mirror the auditor: shared diagnostics and health monitors start
  // every run from a clean slate, so repeat runs accumulate identically
  // and breaker state never leaks across runs.
  if (instruments.diag != nullptr) instruments.diag->Reset();
  if (instruments.health != nullptr) instruments.health->Reset();
}

Result<RunResult> RunEngineExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      const DigestEngineOptions& options,
                                      size_t ticks, uint64_t seed,
                                      const std::string& run_label) {
  Rng rng(seed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying_node,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying_node);

  BeginInstrumentedRun(options, workload.now(),
                       run_label.empty() ? "engine-run" : run_label);

  RunResult out;
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying_node, rng.Fork(), &out.meter, options));
  out.reported.reserve(ticks);
  out.truth.reserve(ticks);
  out.ci_halfwidths.reserve(ticks);
  for (size_t t = 0; t < ticks; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    if (options.fault_plan != nullptr) {
      options.fault_plan->set_now(workload.now());
    }
    DIGEST_ASSIGN_OR_RETURN(double truth,
                            workload.db().ExactAggregate(spec.query));
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult tick,
                            engine->Tick(workload.now()));
    out.truth.push_back(truth);
    out.reported.push_back(tick.reported_value);
    out.ci_halfwidths.push_back(tick.ci_halfwidth);
    if (tick.degraded) ++out.degraded_ticks;
    if (options.auditor != nullptr) {
      // The simulation oracle resolves each tick's audit occasion right
      // after the engine reports it.
      options.auditor->RecordTruth(workload.now(), truth);
    }
  }
  out.stats = engine->stats();
  out.correlation_estimate = engine->correlation_estimate();
  out.final_health = engine->health();
  if (options.auditor != nullptr) options.auditor->FinalizeRun();
  if (options.registry != nullptr) {
    ExportToRegistry(out.stats, options.registry, run_label);
    obs::BridgeMessageMeter(out.meter, options.registry);
    engine->supervisor().ExportToRegistry(options.registry);
    if (options.auditor != nullptr) {
      options.auditor->ExportToRegistry(options.registry);
    }
    if (options.health != nullptr) {
      options.health->ExportToRegistry(options.registry);
    }
  }
  DIGEST_ASSIGN_OR_RETURN(
      out.precision,
      EvaluatePrecision(out.reported, out.truth, spec.precision));
  DIGEST_ASSIGN_OR_RETURN(
      out.widened_precision,
      EvaluatePrecisionWidened(out.reported, out.truth, out.ci_halfwidths,
                               spec.precision));
  return out;
}

Result<RunResult> RunPushAllExperiment(Workload& workload,
                                       const ContinuousQuerySpec& spec,
                                       size_t ticks, uint64_t seed) {
  Rng rng(seed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying_node,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying_node);

  RunResult out;
  PushAllBaseline baseline(&workload.graph(), &workload.db(), spec.query,
                           querying_node, &out.meter);
  for (size_t t = 0; t < ticks; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    DIGEST_ASSIGN_OR_RETURN(double value, baseline.Tick());
    out.truth.push_back(value);  // Push-all is exact.
    out.reported.push_back(value);
  }
  DIGEST_ASSIGN_OR_RETURN(
      out.precision,
      EvaluatePrecision(out.reported, out.truth, spec.precision));
  return out;
}

Result<RunResult> RunFilterExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      size_t ticks, uint64_t seed) {
  Rng rng(seed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying_node,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying_node);

  RunResult out;
  // §VI-B3 sets the filter precision interval so that H − L < 2ε,
  // matching Digest's confidence interval.
  OlstonFilterBaseline baseline(&workload.graph(), &workload.db(),
                                spec.query, querying_node,
                                spec.precision.epsilon, &out.meter);
  for (size_t t = 0; t < ticks; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    DIGEST_ASSIGN_OR_RETURN(double value, baseline.Tick());
    DIGEST_ASSIGN_OR_RETURN(double truth,
                            workload.db().ExactAggregate(spec.query));
    out.truth.push_back(truth);
    out.reported.push_back(value);
  }
  DIGEST_ASSIGN_OR_RETURN(
      out.precision,
      EvaluatePrecision(out.reported, out.truth, spec.precision));
  return out;
}

}  // namespace digest
