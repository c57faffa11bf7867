// Checkpoint/restore of a DigestEngine query session.
//
// The checkpoint is a versioned JSON blob ("digest-checkpoint-v3";
// v2 added "audit", v3 "health") carrying every piece of *session*
// state a restored engine needs to replay the exact tick/draw sequence
// an uninterrupted run would have produced. Its sections are the fields
// of CheckpointBlob below, written and read by the codec in
// common/checkpoint_codec.h. Each component holds the struct its
// section's field list walks, so a section is saved and restored by one
// copy. The optional sections (owned samplers and operators,
// "size_oracle", "meter", "audit", "health") are present exactly when
// the engine has that component; Restore rejects a blob whose presence
// differs either way, and decodes and validates the whole blob before
// it installs anything. "size_oracle" (the sampled oracle's cached |R|^
// and its age, SizeOracleKind::kSampled only) joined v3 without a new
// tag: every other engine's blob is unchanged, and a kSampled blob
// without it could not have replayed the session anyway, so it is
// rejected for the missing member.
//
// Deliberately NOT in the blob:
//  - configuration (graph, database, query spec, options, seeds):
//    Restore requires an engine of identical construction;
//  - the FaultPlan's stream: the plan models the *network's* misbehavior
//    and is owned by the harness, which keeps it alive across the
//    kill/restore boundary just like the overlay itself;
//  - a *shared* sampling operator's state (CreateWithOperator): its warm
//    agents serve several engines, so the owner checkpoints it once via
//    SamplingOperator::SaveState rather than once per engine. The blob
//    records that the operator was external so a mismatched restore
//    fails loudly.

#include <string>

#include "audit/audit.h"
#include "common/checkpoint_codec.h"
#include "core/engine.h"
#include "net/peer_health.h"
#include "obs/tracer.h"

namespace digest {
namespace {

constexpr char kCheckpointVersion[] = "digest-checkpoint-v3";

/// Draw streams of the tuple samplers the engine owns (stage 2 of the
/// two-stage scheme, or the centralized exact sampler).
struct SamplerStreams {
  bool has_two_stage = false;
  bool has_exact = false;
  Rng::State two_stage;
  Rng::State exact;

  template <class V>
  void Fields(V& v) {
    v.Optional("two_stage_rng", has_two_stage, two_stage);
    v.Optional("exact_rng", has_exact, exact);
  }
};

/// Owned sampling operators (warm agents, walk stream, hedge stats).
struct Operators {
  bool shared = false;
  bool has_sampling = false;
  bool has_uniform = false;
  SamplingOperator::State sampling;
  SamplingOperator::State uniform;

  template <class V>
  void Fields(V& v) {
    v("shared", shared);
    v.Optional("sampling", has_sampling, sampling);
    v.Optional("uniform", has_uniform, uniform);
  }
};

}  // namespace

struct DigestEngine::CheckpointBlob {
  /// The layout of `engine`'s blob: its optional sections switched on
  /// for exactly the components it has.
  explicit CheckpointBlob(const DigestEngine& e) {
    samplers.has_two_stage = e.two_stage_sampler_ != nullptr;
    samplers.has_exact = e.exact_sampler_ != nullptr;
    operators.has_sampling = e.sampling_operator_ != nullptr;
    operators.has_uniform = e.uniform_operator_ != nullptr;
    has_size_oracle = e.sampled_oracle_ != nullptr;
    has_meter = e.meter_ != nullptr;
    has_audit = e.options_.auditor != nullptr;
    has_health = e.options_.health != nullptr;
  }

  Session engine;
  EngineStats stats;
  Extrapolator::State extrapolator;
  SessionSupervisor::State supervisor;
  EstimatorState estimator;
  SamplerStreams samplers;
  Operators operators;
  bool has_size_oracle = false;
  bool has_meter = false;
  bool has_audit = false;
  bool has_health = false;
  CollisionSizeEstimator::State size_oracle;
  MessageMeter meter;
  audit::PrecisionAuditor::State audit;
  PeerHealthMonitor::State health;

  template <class V>
  void Fields(V& v) {
    v("engine", engine);
    v("stats", stats);
    v("extrapolator", extrapolator);
    v("supervisor", supervisor);
    v("estimator", estimator);
    v("samplers", samplers);
    v("operators", operators);
    v.Optional("size_oracle", has_size_oracle, size_oracle);
    v.Optional("meter", has_meter, meter);
    v.Optional("audit", has_audit, audit);
    v.Optional("health", has_health, health);
  }
};

Result<std::string> DigestEngine::Checkpoint() const {
  CheckpointBlob b(*this);
  b.engine = session_;
  b.stats = stats_;
  b.extrapolator = extrapolator_.SaveState();
  b.supervisor = supervisor_.SaveState();
  b.estimator = estimator_->SaveState();
  SamplerStreams& s = b.samplers;
  if (s.has_two_stage) s.two_stage = two_stage_sampler_->SaveRngState();
  if (s.has_exact) s.exact = exact_sampler_->SaveRngState();
  Operators& ops = b.operators;
  ops.shared = shared_operator_;
  if (ops.has_sampling) ops.sampling = sampling_operator_->SaveState();
  if (ops.has_uniform) ops.uniform = uniform_operator_->SaveState();
  if (b.has_size_oracle) b.size_oracle = sampled_oracle_->SaveState();
  if (b.has_meter) b.meter = *meter_;
  if (b.has_audit) b.audit = options_.auditor->SaveState();
  if (b.has_health) b.health = options_.health->SaveState();

  std::string out = ckpt::EncodeBlob(kCheckpointVersion, b);
  if (obs::Tracing(options_.tracer)) {
    options_.tracer->Emit(obs::CheckpointEvent{
        static_cast<uint64_t>(out.size()), session_.last_tick});
  }
  return out;
}

Status DigestEngine::DecodeCheckpoint(std::string_view text,
                                      CheckpointBlob* b) const {
  DIGEST_RETURN_IF_ERROR(ckpt::DecodeBlob(text, kCheckpointVersion, b));
  if (b->operators.shared != shared_operator_) {
    return Status::InvalidArgument(
        "checkpoint: shared-operator topology does not match (the owner "
        "of a shared operator checkpoints it separately)");
  }
  return Status::OK();
}

Status DigestEngine::CheckCheckpoint(std::string_view text) const {
  CheckpointBlob b(*this);
  return DecodeCheckpoint(text, &b);
}

Status DigestEngine::Restore(std::string_view text) {
  CheckpointBlob b(*this);
  DIGEST_RETURN_IF_ERROR(DecodeCheckpoint(text, &b));

  // All decoded and validated — install.
  session_ = b.engine;
  stats_ = b.stats;
  extrapolator_.RestoreState(b.extrapolator);
  supervisor_.RestoreState(b.supervisor);
  estimator_->RestoreState(b.estimator);
  const SamplerStreams& s = b.samplers;
  if (s.has_two_stage) two_stage_sampler_->RestoreRngState(s.two_stage);
  if (s.has_exact) exact_sampler_->RestoreRngState(s.exact);
  const Operators& ops = b.operators;
  if (ops.has_sampling) sampling_operator_->RestoreState(ops.sampling);
  if (ops.has_uniform) uniform_operator_->RestoreState(ops.uniform);
  if (b.has_size_oracle) sampled_oracle_->RestoreState(b.size_oracle);
  if (b.has_meter) *meter_ = b.meter;
  if (b.has_audit) options_.auditor->RestoreState(b.audit);
  if (b.has_health) options_.health->RestoreState(b.health);
  if (obs::Tracing(options_.tracer)) {
    options_.tracer->Emit(obs::RestoreEvent{
        static_cast<uint64_t>(text.size()), session_.last_tick});
  }
  return Status::OK();
}

}  // namespace digest
