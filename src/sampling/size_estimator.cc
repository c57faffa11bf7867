#include "sampling/size_estimator.h"

#include <unordered_map>

namespace digest {

Status SizeEstimatorOptions::Validate() const {
  if (initial_samples < 1) {
    return Status::InvalidArgument(
        "size estimator: initial_samples must be >= 1");
  }
  if (collision_target < 1) {
    return Status::InvalidArgument(
        "size estimator: collision_target must be >= 1");
  }
  return Status::OK();
}

Result<CollisionSizeEstimator::Estimate>
CollisionSizeEstimator::ComputeEstimate() {
  DIGEST_RETURN_IF_ERROR(options_.Validate());
  std::unordered_map<NodeId, size_t> counts;
  size_t samples = 0;
  size_t collisions = 0;
  double content_sum = 0.0;
  size_t batch = options_.initial_samples;
  while (true) {
    // Collision counting requires (near-)independent samples: a warm
    // agent's successive positions are correlated across batches, which
    // inflates self-collisions and biases |V|^ low. Dropping the warm
    // pool makes every batch a set of fresh, fully mixed walkers
    // (collisions *within* a batch come from distinct agents).
    op_->ResetAgents();
    DIGEST_ASSIGN_OR_RETURN(PartialBatch nodes,
                            op_->SampleNodes(origin_, batch));
    // A cut batch is short by an amount the faults chose, and counting
    // collisions over it would bias |V|^: no estimate this round.
    if (nodes.timed_out) {
      return Status::Unavailable(
          "sampling hop budget exhausted under faults (walk timeout)");
    }
    for (NodeId v : nodes.nodes) {
      size_t& k = counts[v];
      collisions += k;  // C(k+1, 2) − C(k, 2) = k new colliding pairs.
      ++k;
      content_sum += static_cast<double>(db_->ContentSize(v));
    }
    samples += nodes.nodes.size();
    if (collisions >= options_.collision_target) break;
    if (samples >= options_.max_samples) {
      if (collisions == 0) {
        return Status::Unavailable(
            "no sample collisions observed: network too large for the "
            "configured sample budget");
      }
      break;  // Use what we have, at higher variance.
    }
    batch = samples;  // Double the sample count each round.
  }
  Estimate est;
  const double m = static_cast<double>(samples);
  est.nodes = m * (m - 1.0) / (2.0 * static_cast<double>(collisions));
  est.tuples = est.nodes * (content_sum / m);
  return est;
}

Result<double> CollisionSizeEstimator::EstimateNetworkSize() {
  DIGEST_ASSIGN_OR_RETURN(Estimate est, ComputeEstimate());
  return est.nodes;
}

Result<double> CollisionSizeEstimator::EstimateRelationSize() {
  if (state_.has_estimate && options_.refresh_period > 0 &&
      state_.calls_since_estimate < options_.refresh_period) {
    ++state_.calls_since_estimate;
    return state_.tuples;
  }
  DIGEST_ASSIGN_OR_RETURN(const Estimate est, ComputeEstimate());
  state_ = {true, est.tuples, 1};
  return state_.tuples;
}

}  // namespace digest
