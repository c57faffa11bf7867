#ifndef DIGEST_SAMPLING_TUPLE_SAMPLER_H_
#define DIGEST_SAMPLING_TUPLE_SAMPLER_H_

#include <vector>

#include "common/result.h"
#include "db/p2p_database.h"
#include "net/message_meter.h"
#include "numeric/rng.h"
#include "sampling/sampling_operator.h"

namespace digest {

/// A drawn sample: the reference needed to revisit the tuple (repeated
/// sampling retains samples across occasions and re-evaluates them in
/// place, §IV-B2) and a borrowed view of its value. `tuple` points into
/// the database and stays valid and unchanged until the database next
/// changes (see P2PDatabase); keep `ref`, never the pointer, past that.
/// The one source that changes the world mid-draw
/// (InterleavingSampleSource) points it at copies it owns instead, valid
/// until its next DrawFresh call.
struct TupleSample {
  TupleRef ref;
  const Tuple* tuple = nullptr;
};

/// One batch of tuple samples: every sample asked for, or, when the
/// sampling hop budget cut the batch (`timed_out`), the samples that
/// completed first (the raw material for a partial snapshot).
struct PartialTupleBatch {
  std::vector<TupleSample> samples;
  bool timed_out = false;
};

/// Source of fresh uniform tuple samples for an estimator: the
/// distributed two-stage MCMC sampler (production path), the centralized
/// exact sampler (tests and baselines), or a wrapper around one of them
/// (the node's shared pool, the interleaving source).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Draws `n` uniform samples with replacement, originating any network
  /// traffic at `origin`. A source with a hop budget returns the samples
  /// that completed before a cut with timed_out = true; whether that
  /// fails the caller's occasion is the caller's decision.
  virtual Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) = 0;
};

/// Uniform tuple sampling from R by the two-stage scheme of §III:
/// stage 1 draws a node via the sampling operator S with the
/// content-size weight w_v = m_v; stage 2 draws a tuple uniformly from
/// the sampled node's local store. The product distribution is uniform
/// over all tuples of R.
///
/// Holds references to the database and operator; both must outlive it.
class TwoStageTupleSampler : public SampleSource {
 public:
  TwoStageTupleSampler(const P2PDatabase* db, SamplingOperator* op, Rng rng)
      : db_(db), op_(op), rng_(rng) {}

  /// Draws `n` samples (with replacement) in batch mode, originating
  /// walks at `origin`. Fails when the relation is empty; a batch the
  /// operator's hop budget cuts comes back with what completed.
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override;

  /// Serializable stage-2 RNG stream (the local uniform tuple pick), for
  /// the engine checkpoint. The stage-1 walk stream lives in the
  /// SamplingOperator's own state.
  Rng::State SaveRngState() const { return rng_.SaveState(); }
  void RestoreRngState(const Rng::State& state) { rng_.RestoreState(state); }

 private:
  const P2PDatabase* db_;
  SamplingOperator* op_;
  Rng rng_;
};

/// Cluster sampling (§III discusses and rejects it for Digest): stage 1
/// draws a node uniformly via S, and *all* tuples of the node are taken
/// as a batch. Provided as a comparator; with intra-node correlation it
/// yields visibly worse estimates (see tests and bench ablation).
class ClusterSampler {
 public:
  ClusterSampler(const P2PDatabase* db, SamplingOperator* op)
      : db_(db), op_(op) {}

  /// Draws the full content of one uniformly sampled node.
  Result<std::vector<TupleSample>> SampleCluster(NodeId origin);

 private:
  const P2PDatabase* db_;
  SamplingOperator* op_;
};

/// std::upper_bound(sums.begin(), sums.end(), r) - sums.begin() for a
/// non-empty `sums` in ascending order, without a data-dependent
/// branch: the exact sampler's node pick over its running content
/// sizes, where a random r would mispredict a branch per level. Equal
/// for every r, NaN included.
size_t UpperBoundIndex(const std::vector<double>& sums, double r);

/// Centralized uniform tuple sampler with global knowledge — the
/// "optimal sampling" comparator the paper measures S against. Same
/// interface, zero walk cost: one transfer message per sample.
class ExactTupleSampler : public SampleSource {
 public:
  ExactTupleSampler(const P2PDatabase* db, Rng rng, MessageMeter* meter)
      : db_(db), rng_(rng), meter_(meter) {}

  /// Draws `n` exactly uniform samples with replacement. It walks
  /// nowhere, so it ignores `origin` and is never cut. Fails when R is
  /// empty.
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override;

  /// Serializable draw stream, for the engine checkpoint.
  Rng::State SaveRngState() const { return rng_.SaveState(); }
  void RestoreRngState(const Rng::State& state) { rng_.RestoreState(state); }

 private:
  const P2PDatabase* db_;
  Rng rng_;
  MessageMeter* meter_;
};

}  // namespace digest

#endif  // DIGEST_SAMPLING_TUPLE_SAMPLER_H_
