#ifndef DIGEST_SAMPLING_SIZE_ESTIMATOR_H_
#define DIGEST_SAMPLING_SIZE_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "db/size_oracle.h"
#include "db/p2p_database.h"
#include "net/graph.h"
#include "sampling/sampling_operator.h"

namespace digest {

/// Tuning of the collision-based size estimator.
struct SizeEstimatorOptions {
  /// Initial number of uniform node samples per estimate.
  size_t initial_samples = 64;
  /// Keep doubling the sample count until at least this many sample
  /// collisions are observed; the estimator's relative error is roughly
  /// 1/√collision_target.
  size_t collision_target = 32;
  /// Hard cap on samples per estimate.
  size_t max_samples = 1 << 16;
  /// Estimates are cached and recomputed only every `refresh_period`
  /// queries (0 = recompute every time).
  size_t refresh_period = 16;

  /// Requires initial_samples >= 1 (an empty first batch would double
  /// forever) and collision_target >= 1 (a zero target stops before any
  /// collision, giving |V|^ = NaN).
  Status Validate() const;
};

/// Fully distributed estimator of the network size |V| and relation
/// cardinality |R| = N, using only the sampling operator — no global
/// state (a deployment-grade replacement for ExactSizeOracle, which
/// DESIGN.md lists as a simulation substitution).
///
/// Method (birthday-paradox / collision counting): draw m uniform node
/// samples via a Metropolis walk with the uniform weight; if node v was
/// sampled k_v times, the number of sample collisions is
/// c = Σ_v C(k_v, 2), with E[c] = C(m, 2)/|V|; hence
///
///   |V|^ = m(m−1) / (2c).
///
/// The same samples provide the mean content size m̄ = avg m_v, giving
/// N^ = |V|^ · m̄. The sampler doubles m until enough collisions are
/// seen, so the relative error is roughly 1/√collision_target.
class CollisionSizeEstimator : public SizeOracle {
 public:
  /// `uniform_operator` must be configured with the *uniform* weight
  /// function; the estimator holds (not owns) it and the database.
  CollisionSizeEstimator(const P2PDatabase* db,
                         SamplingOperator* uniform_operator, NodeId origin,
                         SizeEstimatorOptions options = {})
      : db_(db),
        op_(uniform_operator),
        origin_(origin),
        options_(options) {}

  /// Estimates the number of live overlay nodes |V|.
  Result<double> EstimateNetworkSize();

  /// Estimates |R| (SizeOracle interface): |V|^ times the average
  /// content size of the sampled nodes. Cached per
  /// SizeEstimatorOptions::refresh_period.
  Result<double> EstimateRelationSize() override;

  /// Drops the cached estimate (e.g., after heavy churn).
  void Invalidate() { state_ = State(); }

  /// The cached |R|^ and its age, which is also the engine checkpoint's
  /// "size_oracle" section: a restored engine reuses the cache exactly
  /// as often as an uninterrupted one would.
  struct State {
    bool has_estimate = false;
    double tuples = 0.0;
    uint64_t calls_since_estimate = 0;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("has_estimate", has_estimate);
      v("tuples", tuples);
      v("calls_since_estimate", calls_since_estimate);
    }
  };
  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

 private:
  struct Estimate {
    double nodes = 0.0;
    double tuples = 0.0;
  };
  Result<Estimate> ComputeEstimate();

  const P2PDatabase* db_;
  SamplingOperator* op_;
  NodeId origin_;
  SizeEstimatorOptions options_;
  State state_;
};

}  // namespace digest

#endif  // DIGEST_SAMPLING_SIZE_ESTIMATOR_H_
