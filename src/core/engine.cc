#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "audit/audit.h"
#include "diag/diag.h"
#include "net/peer_health.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "prof/profiler.h"
#include "sampling/size_estimator.h"

namespace digest {

void ExportToRegistry(const EngineStats& stats, obs::Registry* registry,
                      const std::string& run_label) {
  if (registry == nullptr) return;
  const obs::LabelSet labels =
      run_label.empty() ? obs::LabelSet{}
                        : obs::LabelSet{{"run", run_label}};
  // Each counter is "engine." plus its checkpoint key, in list order.
  auto raise = [&](const char* key, size_t value) {
    obs::Counter* counter =
        registry->GetCounter(std::string("engine.") + key, labels);
    const uint64_t target = static_cast<uint64_t>(value);
    // Counters are monotone: raise to the cumulative stats value, so
    // repeated bridging of growing stats is idempotent per value.
    if (target > counter->value()) {
      counter->Increment(target - counter->value());
    }
  };
  EngineStats fields = stats;
  fields.Fields(raise);
}

DigestEngine::DigestEngine(const Graph* graph, const P2PDatabase* db,
                           ContinuousQuerySpec spec, NodeId querying_node,
                           MessageMeter* meter, DigestEngineOptions options)
    : graph_(graph),
      db_(db),
      spec_(std::move(spec)),
      querying_node_(querying_node),
      meter_(meter),
      options_(options),
      extrapolator_(options.extrapolator) {}

Result<std::unique_ptr<DigestEngine>> DigestEngine::Create(
    const Graph* graph, const P2PDatabase* db, ContinuousQuerySpec spec,
    NodeId querying_node, Rng rng, MessageMeter* meter,
    DigestEngineOptions options) {
  return CreateWithOperator(graph, db, std::move(spec), querying_node, rng,
                            meter, /*shared_operator=*/nullptr,
                            /*shared_source=*/nullptr, options);
}

Result<std::unique_ptr<DigestEngine>> DigestEngine::CreateWithOperator(
    const Graph* graph, const P2PDatabase* db, ContinuousQuerySpec spec,
    NodeId querying_node, Rng rng, MessageMeter* meter,
    SamplingOperator* shared_operator, SampleSource* shared_source,
    DigestEngineOptions options) {
  DIGEST_RETURN_IF_ERROR(spec.precision.Validate());
  if (!graph->HasNode(querying_node)) {
    return Status::InvalidArgument("querying node is not in the network");
  }
  if (shared_operator != nullptr &&
      options.sampler != SamplerKind::kTwoStageMcmc) {
    return Status::InvalidArgument(
        "a shared sampling operator requires the two-stage MCMC sampler");
  }
  if (shared_source != nullptr && shared_operator == nullptr) {
    return Status::InvalidArgument(
        "a shared sample source requires a shared sampling operator");
  }
  DIGEST_RETURN_IF_ERROR(options.sampling_options.retry.Validate());
  DIGEST_RETURN_IF_ERROR(options.size_estimator_options.Validate());
  std::unique_ptr<DigestEngine> engine(new DigestEngine(
      graph, db, std::move(spec), querying_node, meter, options));
  // One sink for the whole stack. The engine wires its tracer into what
  // it owns: the supervisor, the estimator (below) and the auditor.
  engine->supervisor_.SetTracer(options.tracer);
  if (options.auditor != nullptr) {
    options.auditor->SetTracer(options.tracer);
    options.auditor->AttachContract(engine->spec_.precision.delta,
                                    engine->spec_.precision.epsilon,
                                    engine->spec_.precision.confidence);
  }
  engine->shared_operator_ = shared_operator != nullptr;
  // The fault plan and the health monitor are driven by the operators;
  // whoever builds those wires the tracer into them. A shared
  // operator's owner (DigestNode) has done so already.
  if (shared_operator == nullptr) {
    if (options.fault_plan != nullptr) {
      options.fault_plan->SetTracer(options.tracer);
    }
    if (options.health != nullptr) options.health->SetTracer(options.tracer);
  }

  // Bottom tier: sample source. A shared one (the node's coalescing
  // wrapper) substitutes for the engine's own sampler.
  SampleSource* source = shared_source;
  switch (options.sampler) {
    case SamplerKind::kTwoStageMcmc: {
      SamplingOperator* op = shared_operator;
      if (op == nullptr) {
        engine->sampling_operator_ = std::make_unique<SamplingOperator>(
            graph, ContentSizeWeight(*db), rng.Fork(), meter,
            options.sampling_options);
        engine->sampling_operator_->SetFaultPlan(options.fault_plan);
        engine->sampling_operator_->SetInstruments(options);
        op = engine->sampling_operator_.get();
      }
      // With a shared sample source the node owns the sampler (and its
      // RNG stream); building one here would fork a dead stream and
      // bloat the checkpoint with state nobody advances.
      if (source == nullptr) {
        engine->two_stage_sampler_ =
            std::make_unique<TwoStageTupleSampler>(db, op, rng.Fork());
        source = engine->two_stage_sampler_.get();
      }
      break;
    }
    case SamplerKind::kExactCentral: {
      engine->exact_sampler_ =
          std::make_unique<ExactTupleSampler>(db, rng.Fork(), meter);
      source = engine->exact_sampler_.get();
      break;
    }
  }
  SizeOracle* size_oracle = nullptr;
  switch (options.size_oracle) {
    case SizeOracleKind::kExact:
      engine->exact_oracle_ = std::make_unique<ExactSizeOracle>(db);
      size_oracle = engine->exact_oracle_.get();
      break;
    case SizeOracleKind::kSampled: {
      // The collision estimator needs *uniform* node samples, so it runs
      // its own operator next to the content-size-weighted one.
      engine->uniform_operator_ = std::make_unique<SamplingOperator>(
          graph, UniformWeight(), rng.Fork(), meter,
          options.sampling_options);
      engine->uniform_operator_->SetFaultPlan(options.fault_plan);
      // Diag and health watch (and health steers) the content-weighted
      // walks only — the chain whose stationary target the estimator's
      // samples rely on.
      engine->uniform_operator_->SetInstruments({.tracer = options.tracer,
                                                 .registry = options.registry,
                                                 .profiler = options.profiler});
      engine->sampled_oracle_ = std::make_unique<CollisionSizeEstimator>(
          db, engine->uniform_operator_.get(), querying_node,
          options.size_estimator_options);
      size_oracle = engine->sampled_oracle_.get();
      break;
    }
  }

  // Top tier: snapshot estimator.
  switch (options.estimator) {
    case EstimatorKind::kIndependent:
      engine->estimator_ = std::make_unique<IndependentEstimator>(
          engine->spec_, db, source, size_oracle, meter, rng.Fork(),
          options.estimator_options);
      break;
    case EstimatorKind::kRepeated:
      engine->estimator_ = std::make_unique<RepeatedSamplingEstimator>(
          engine->spec_, db, source, size_oracle, meter, rng.Fork(),
          options.estimator_options);
      break;
  }
  engine->estimator_->SetTracer(options.tracer);
  return engine;
}

double DigestEngine::correlation_estimate() const {
  const auto* rpt =
      dynamic_cast<const RepeatedSamplingEstimator*>(estimator_.get());
  return rpt != nullptr ? rpt->correlation_estimate() : 0.0;
}

Result<double> DigestEngine::AdjustedPreviousResult() const {
  const auto* rpt =
      dynamic_cast<const RepeatedSamplingEstimator*>(estimator_.get());
  if (rpt == nullptr) {
    return Status::FailedPrecondition(
        "forward regression requires the repeated-sampling estimator");
  }
  return rpt->AdjustedPreviousEstimate();
}

Result<EngineTickResult> DigestEngine::Tick(int64_t t) {
  // Wall-clock accounting of the whole tick (null profiler: no-op, no
  // clock read). Strictly observational — real time never feeds back
  // into scheduling or estimation.
  prof::ScopedTimer tick_timer(options_.profiler, prof::Phase::kEngineTick);
  if (t <= session_.last_tick) {
    return Status::InvalidArgument("ticks must be strictly increasing");
  }
  session_.last_tick = t;
  ++stats_.ticks;

  // The engine owns the tracer's simulated clock: everything emitted
  // below (including by the estimator and sampler during Evaluate) is
  // stamped with this tick.
  if (options_.tracer != nullptr) options_.tracer->set_now(t);
  // The engine also owns the health monitor's virtual clock: breaker
  // cooldowns age in ticks, never in wall time.
  if (options_.health != nullptr) options_.health->set_now(t);
  // Drain quarantine-threshold flips queued by the health monitor's
  // batch folds since the last tick — same one-tick-lag discipline as
  // the audit breach drain below.
  if (options_.health != nullptr) {
    while (options_.health->TakePendingQuarantineFlip()) {
      supervisor_.RecordQuarantineBreach();
    }
  }
  // Drain audit breach flips queued by the drift detectors since the
  // last tick. The one-tick lag keeps the feedback edge deterministic:
  // truth resolution happens after Tick returns, so a breach detected
  // at tick t degrades the session at tick t+1.
  if (options_.auditor != nullptr) {
    while (options_.auditor->TakePendingBreachFlip()) {
      supervisor_.RecordAuditBreach();
    }
  }
  // Every return path closes the tick with one TickEvent — the span the
  // Chrome exporter nests same-tick walk/estimator events under.
  const auto emit_tick = [this](const EngineTickResult& r) {
    if (obs::Tracing(options_.tracer)) {
      options_.tracer->Emit(obs::TickEvent{r.snapshot_executed, r.degraded,
                                           r.result_updated,
                                           r.reported_value,
                                           r.ci_halfwidth});
    }
  };

  EngineTickResult out;
  out.reported_value = session_.reported_value;
  out.has_result = session_.has_result;
  out.ci_halfwidth = session_.last_ci_halfwidth;
  if (session_.has_result && t < session_.next_snapshot_tick) {
    // Between sampling occasions the result holds (§II: X̂[t] = X̂[t_u]),
    // or is presented via the scheduling fit's extrapolation.
    if (options_.report_mode == ReportMode::kExtrapolate) {
      Result<double> value = extrapolator_.ExtrapolatedValue(t);
      if (value.ok()) out.reported_value = *value;
    }
    if (obs::Tracing(options_.tracer)) {
      options_.tracer->Emit(
          obs::SnapshotSkippedEvent{session_.next_snapshot_tick});
    }
    if (options_.auditor != nullptr) {
      options_.auditor->RecordSkip(t, out.reported_value, out.ci_halfwidth);
    }
    emit_tick(out);
    return out;
  }

  // Snapshot occasions are costed individually for the auditor's
  // message-cost drift detector (delta of the shared meter around the
  // estimator calls below; 0 without a meter).
  const uint64_t cost_before = meter_ != nullptr ? meter_->Total() : 0;

  // This tick is a sampling occasion: evaluate the snapshot query.
  SnapshotEstimate est;
  Result<SnapshotEstimate> fresh = [&] {
    prof::ScopedTimer timer(options_.profiler,
                            prof::Phase::kEstimatorEvaluate);
    return estimator_->Evaluate(querying_node_);
  }();
  if (fresh.ok()) {
    est = *fresh;
  } else if (fresh.status().code() == StatusCode::kUnavailable) {
    // Fresh sampling could not complete (hop budget timed out under
    // faults, or the overlay is transiently unreachable). Degrade
    // instead of failing the tick: fall back to the retained pool, and
    // failing that hold the previous result under a widening interval.
    Result<SnapshotEstimate> degraded = [&] {
      prof::ScopedTimer timer(options_.profiler,
                              prof::Phase::kEstimatorEvaluate);
      return estimator_->EvaluateDegraded(querying_node_);
    }();
    if (degraded.ok()) {
      est = *degraded;
      est.degraded = true;
      if (obs::Tracing(options_.tracer)) {
        options_.tracer->Emit(
            obs::DegradedFallbackEvent{/*retained_pool=*/true});
      }
    } else if (session_.has_result) {
      ++stats_.degraded_ticks;
      out.degraded = true;
      // The occasion produced nothing usable at all: the worst outcome
      // the supervisor tracks.
      supervisor_.RecordOutcome(SnapshotOutcome::kTimeout);
      // Every consecutive failed snapshot doubles the uncertainty band:
      // the answer is stale and nothing bounds the drift accumulated
      // while the network is unreachable.
      const double ci_before = session_.last_ci_halfwidth;
      session_.last_ci_halfwidth =
          2.0 * std::max(session_.last_ci_halfwidth, spec_.precision.epsilon);
      out.ci_halfwidth = session_.last_ci_halfwidth;
      session_.next_snapshot_tick = t + 1;  // Retry promptly.
      if (obs::Tracing(options_.tracer)) {
        options_.tracer->Emit(
            obs::DegradedFallbackEvent{/*retained_pool=*/false});
        options_.tracer->Emit(
            obs::CiWidenedEvent{ci_before, session_.last_ci_halfwidth});
      }
      if (options_.auditor != nullptr) {
        options_.auditor->RecordTimeout(
            t, session_.reported_value, session_.last_ci_halfwidth,
            (meter_ != nullptr ? meter_->Total() : 0) - cost_before,
            static_cast<int>(supervisor_.health()));
      }
      emit_tick(out);
      return out;
    } else {
      // No previous result to hold: the query cannot answer yet.
      return fresh.status();
    }
  } else {
    return fresh.status();
  }
  ++stats_.snapshots;
  stats_.total_samples += est.total_samples;
  stats_.fresh_samples += est.fresh_samples;
  stats_.retained_samples += est.retained_samples;
  if (est.degraded) ++stats_.degraded_ticks;
  if (est.partial) ++stats_.partial_snapshots;
  out.snapshot_executed = true;
  out.degraded = est.degraded;
  out.partial = est.partial;
  // Fold this occasion's outcome into the session-health machine. The
  // supervisor observes; it never steers scheduling or estimation.
  supervisor_.RecordOutcome(est.degraded  ? SnapshotOutcome::kWidenedCi
                            : est.partial ? SnapshotOutcome::kPartial
                                          : SnapshotOutcome::kMetContract);
  if (obs::Tracing(options_.tracer)) {
    options_.tracer->Emit(obs::SnapshotEvent{
        est.value, est.ci_halfwidth,
        static_cast<uint64_t>(est.total_samples),
        static_cast<uint64_t>(est.fresh_samples),
        static_cast<uint64_t>(est.retained_samples), est.degraded});
  }
  if (options_.registry != nullptr) {
    options_.registry
        ->GetHistogram("engine.snapshot.samples",
                       obs::ExponentialBuckets(1.0, 2.0, 20))
        ->Observe(static_cast<double>(est.total_samples));
    options_.registry->GetGauge("engine.rho_hat")
        ->Set(correlation_estimate());
  }

  if (!est.degraded) {
    prof::ScopedTimer timer(options_.profiler,
                            prof::Phase::kExtrapolatorFit);
    DIGEST_RETURN_IF_ERROR(extrapolator_.AddObservation(t, est.value));
  }

  // Resolution semantics: report only moves of at least δ.
  if (!session_.has_result ||
      std::fabs(est.value - session_.reported_value) >= spec_.precision.delta) {
    session_.reported_value = est.value;
    session_.has_result = true;
    ++stats_.result_updates;
    out.result_updated = true;
  }
  out.reported_value = session_.reported_value;
  out.has_result = true;

  // Healthy occasions meet the (ε, p) contract; degraded and partial
  // occasions report their honest, wider interval (never narrower
  // than ε).
  session_.last_ci_halfwidth =
      est.degraded || est.partial
          ? std::max(spec_.precision.epsilon, est.ci_halfwidth)
          : spec_.precision.epsilon;
  out.ci_halfwidth = session_.last_ci_halfwidth;

  if (options_.auditor != nullptr) {
    audit::SnapshotObservation obs;
    obs.tick = t;
    obs.estimate = est.value;
    obs.ci_halfwidth = session_.last_ci_halfwidth;
    obs.degraded = est.degraded;
    obs.partial = est.partial;
    obs.total_samples = static_cast<uint64_t>(est.total_samples);
    obs.fresh_samples = static_cast<uint64_t>(est.fresh_samples);
    obs.retained_samples = static_cast<uint64_t>(est.retained_samples);
    obs.message_cost =
        (meter_ != nullptr ? meter_->Total() : 0) - cost_before;
    obs.health = static_cast<int>(supervisor_.health());
    // Stationary-gap breaches observed by the sampler diagnostics since
    // the previous occasion: a miss here is the chain's fault, not the
    // variance model's.
    obs.mixing_breach = options_.diag != nullptr &&
                        options_.diag->TakeBreachSinceLastRead();
    // Quarantined peers since the previous occasion: the sample frame
    // excluded part of the overlay, so a miss here is attributed to
    // peer_quarantine rather than the variance model.
    obs.quarantine = options_.health != nullptr &&
                     options_.health->TakeQuarantineSinceLastRead();
    options_.auditor->RecordSnapshot(obs);
  }

  if (est.degraded) {
    // A degraded occasion never feeds the scheduling fit; retry a full
    // snapshot at the next tick.
    session_.next_snapshot_tick = t + 1;
    session_.last_gap = 1;
    emit_tick(out);
    return out;
  }

  // Schedule the next sampling occasion.
  switch (options_.scheduler) {
    case SchedulerKind::kAll:
      session_.next_snapshot_tick = t + 1;
      break;
    case SchedulerKind::kPred: {
      // Covers the Eq. 4 gap search plus the fitted-value evaluations
      // the trace emission performs — all extrapolation work.
      prof::ScopedTimer timer(options_.profiler,
                              prof::Phase::kExtrapolatorPredict);
      int64_t& next = session_.next_snapshot_tick;
      if (options_.strict_resolution) {
        // Strict mode: the crossing is measured from the running result
        // X̂[t_u], so drift accumulated across non-updating snapshots
        // counts toward δ.
        DIGEST_ASSIGN_OR_RETURN(next, extrapolator_.PredictNextSnapshotTime(
                                          spec_.precision.delta,
                                          session_.reported_value));
        if (!out.result_updated) {
          // The predicted crossing did not materialize: the aggregate is
          // approaching the threshold (or the fit misjudged it). Do not
          // let a fresh long-range prediction outgrow the gap that led
          // here — otherwise a flat fit can postpone the crossing
          // indefinitely while real drift accumulates.
          next = std::min(next,
                          t + std::max<int64_t>(session_.last_gap, 1));
        }
      } else {
        // Paper-faithful mode: drift measured from the latest snapshot
        // (the fitted P_n at its last point), per the idealized reading
        // of Eq. 4 in which every predicted crossing materializes.
        DIGEST_ASSIGN_OR_RETURN(
            next,
            extrapolator_.PredictNextSnapshotTime(spec_.precision.delta));
      }
      if (next <= t) next = t + 1;
      session_.last_gap = next - t;
      if (obs::Tracing(options_.tracer)) {
        // Drift the fit predicts over the chosen gap. Pure function of
        // the fitted polynomial — tracing consumes no RNG.
        double drift = 0.0;
        Result<double> at_next = extrapolator_.ExtrapolatedValue(next);
        Result<double> at_now = extrapolator_.ExtrapolatedValue(t);
        if (at_next.ok() && at_now.ok()) drift = *at_next - *at_now;
        // The extrapolator's own k: its constructor clamps the option.
        const int64_t order =
            extrapolator_.Bootstrapped()
                ? static_cast<int64_t>(
                      extrapolator_.options().history_points) - 1
                : 0;
        options_.tracer->Emit(obs::GapPredictedEvent{
            session_.last_gap, next, order, drift,
            options_.strict_resolution});
      }
      break;
    }
  }
  emit_tick(out);
  return out;
}

}  // namespace digest
