#ifndef DIGEST_OBS_INSTRUMENTS_H_
#define DIGEST_OBS_INSTRUMENTS_H_

namespace digest {
namespace audit {
class PrecisionAuditor;
}  // namespace audit
namespace diag {
class SamplerDiag;
}  // namespace diag
namespace prof {
class Profiler;
}  // namespace prof

class PeerHealthMonitor;

namespace obs {

class Registry;
class Tracer;

/// The instruments a run can attach, as one bundle: the only way they
/// travel through the stack. DigestEngineOptions inherits it; the
/// sampling operator, DigestNode, RunEngineExperiment and the bench
/// drivers pass it whole. Every pointer is optional (null disables) and
/// none is owned; each must outlive what it is attached to.
struct Instruments {
  /// Structured event tracer: one sink for the whole stack's events
  /// (ticks, PRED gap predictions, snapshot execute/skip, sample-budget
  /// plans, CI widening, walk-batch lifecycle). The engine drives its
  /// simulated clock (set_now per Tick). Pure observation — estimates,
  /// RNG streams and MessageMeter totals are bit-identical without it.
  Tracer* tracer = nullptr;

  /// Metrics registry: the sampler's histograms/counters plus the
  /// engine's per-snapshot sample-count and ρ̂ instruments. Same purity
  /// contract as `tracer`.
  Registry* registry = nullptr;

  /// Wall-clock profiler (the null fast path reads no clock). Records
  /// *real* time, kept strictly out of the deterministic trace: Tick,
  /// PRED fit/predict, snapshot estimation, walk batches and stepping.
  /// Same purity contract as `tracer`.
  prof::Profiler* profiler = nullptr;

  /// Precision auditor. The engine feeds it one observation per tick —
  /// RecordSnapshot on sampling occasions, RecordTimeout on
  /// hold-under-fault ticks, RecordSkip on PRED-skipped ticks — and the
  /// driver resolves each with ground truth via RecordTruth (see
  /// audit/audit.h). Its only feedback edge is deliberate and
  /// deterministic: sustained drift breaches queue a flip that the
  /// engine drains at the top of the *next* Tick into
  /// SessionSupervisor::RecordAuditBreach. Without one the engine is
  /// bit-identical to pre-audit builds (test-enforced).
  audit::PrecisionAuditor* auditor = nullptr;

  /// Sampler diagnostics, attached to the content sampling operator
  /// only: every walk batch folds its visit/probe/hop record and closes
  /// with mixing + load diagnostics against the live membership. A
  /// stationary-gap breach stamps the next snapshot observation's
  /// mixing_breach, so the auditor can attribute a coinciding miss to
  /// poor_mixing. Same purity contract as `tracer` (test-enforced).
  diag::SamplerDiag* diag = nullptr;

  /// Peer-health monitor, attached to the content sampling operator
  /// only: walk batches fold per-peer probe/hop outcomes into its
  /// phi-accrual scores and circuit breakers, and each batch routes
  /// around the quarantine set frozen at its start (net/peer_health.h).
  /// Unlike the observers above it STEERS walks, deterministically:
  /// state folds in walk-index order, so results stay bit-identical
  /// across thread counts. The engine drives its virtual clock (set_now
  /// per Tick), stamps snapshot observations' `quarantine` flag for
  /// audit attribution, and drains TakePendingQuarantineFlip into
  /// SessionSupervisor::RecordQuarantineBreach one tick after the
  /// quarantine fraction crosses its threshold. Without one the engine
  /// is bit-identical to pre-health builds (test-enforced).
  PeerHealthMonitor* health = nullptr;

  /// Replaces all six pointers with `from`'s, nulls included.
  void Attach(const Instruments& from) { *this = from; }
};

}  // namespace obs
}  // namespace digest

#endif  // DIGEST_OBS_INSTRUMENTS_H_
