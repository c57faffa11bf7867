#ifndef DIGEST_SAMPLING_METROPOLIS_H_
#define DIGEST_SAMPLING_METROPOLIS_H_

#include <vector>

#include "common/result.h"
#include "net/graph.h"
#include "numeric/matrix.h"
#include "sampling/weight.h"

namespace digest {

/// Metropolis acceptance probability for a proposed move i → j
/// (paper Eq. 12, with uniform neighbor proposal and laziness ½ applied
/// by the walker):
///
///   accept(i→j) = min(1, (w_j · d_i) / (w_i · d_j))
///
/// Only the weight *ratio* w_j/w_i and local degrees are needed — no
/// global normalization — which is what makes the operator fully
/// distributed (§V-A). Zero-weight targets are never accepted; a
/// zero-weight current node always accepts (escapes immediately).
inline double MetropolisAcceptance(double weight_i, size_t degree_i,
                                   double weight_j, size_t degree_j) {
  if (weight_j <= 0.0) return 0.0;  // Never move onto zero-weight nodes.
  if (weight_i <= 0.0) return 1.0;  // Always escape zero-weight nodes.
  const double ratio = (weight_j * static_cast<double>(degree_i)) /
                       (weight_i * static_cast<double>(degree_j));
  return ratio >= 1.0 ? 1.0 : ratio;
}

/// Dense forwarding matrix of the lazy Metropolis walk over the live
/// nodes of `graph`, for spectral/convergence analysis (Theorems 1–3):
///
///   P(i,j) = ½ · (1/d_i) · accept(i→j)   for adjacent i, j
///   P(i,i) = 1 − Σ_{j≠i} P(i,j)
///
/// `nodes[r]` maps matrix row r back to the NodeId; `pi` is the
/// normalized target distribution w_v / Σ w_u over the same indexing.
/// Fails if the graph is empty, disconnected, or any live node has
/// non-positive weight (the analysis requires a strictly positive
/// target).
struct ForwardingMatrix {
  Matrix p;
  std::vector<NodeId> nodes;
  std::vector<double> pi;

  ForwardingMatrix() : p(0, 0) {}
};

Result<ForwardingMatrix> BuildForwardingMatrix(const Graph& graph,
                                               const WeightFn& weight,
                                               double laziness = 0.5);

/// Recommends a cold-walk length for sampling within total-variation γ
/// of the target: Theorem 3's eigengap bound
/// τ(γ) ≤ ln(1/(π_min·γ)) / (1 − |λ₂|), computed from the exact
/// forwarding matrix. Intended for calibration at up to a few thousand
/// nodes (O(N²) per power-iteration step); production deployments use
/// SamplingOperatorOptions' poly-log heuristic that this helper
/// validates. Fails on disconnected graphs or non-positive weights.
Result<size_t> RecommendWalkLength(const Graph& graph,
                                   const WeightFn& weight, double gamma,
                                   double laziness = 0.5);

/// Total-variation difference ‖a − b‖ = ½ Σ |a_i − b_i| between two
/// distributions over the same support (Definition 1). Fails on size
/// mismatch.
Result<double> TotalVariationDistance(const std::vector<double>& a,
                                      const std::vector<double>& b);

/// Distribution of the walk after `steps` transitions from the initial
/// distribution `pi0` (π_t = π₀ Pᵗ). Fails on shape mismatch.
Result<std::vector<double>> DistributionAfter(const ForwardingMatrix& fm,
                                              const std::vector<double>& pi0,
                                              size_t steps);

/// Mixing time τ(γ): the smallest t such that the walk started from the
/// worst-case deterministic start is within total variation γ of the
/// target (Definition 2). Computed exactly by iterating the forwarding
/// matrix; intended for test/bench-scale graphs. Fails if `max_steps`
/// transitions do not suffice.
Result<size_t> MixingTime(const ForwardingMatrix& fm, double gamma,
                          size_t max_steps = 1 << 20);

}  // namespace digest

#endif  // DIGEST_SAMPLING_METROPOLIS_H_
