#ifndef DIGEST_NET_OVERLAY_SNAPSHOT_H_
#define DIGEST_NET_OVERLAY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/graph.h"

namespace digest {

/// Flat, read-only copy of the overlay that one walk batch steps over.
/// The paper's walk needs only each peer's degree and the weight ratio
/// of two neighbours (§V, Eq. 12), and the network is static while a
/// batch runs (§II), so a step reads three flat arrays and nothing else:
///
///  - compressed-sparse-row (CSR) neighbour rows, each in
///    Graph::Neighbors order, so a uniform pick over a row chooses the
///    same neighbour the graph would for the same draw;
///  - a live flag per node id (dead and never-allocated ids have no
///    node and an empty row);
///  - one weight per node id (0 for dead ids).
///
/// Refresh() runs on one thread before the walks fan out; afterwards the
/// snapshot is only read, so any number of workers may share it. The
/// rows are rebuilt only when Graph::version() has moved since the last
/// refresh (or the graph is a different object); the weights are re-read
/// at every refresh, because a weight such as a peer's content size can
/// change without any graph mutation.
class OverlaySnapshot {
 public:
  OverlaySnapshot() = default;

  /// A snapshot refreshed once against `graph` and `weight`.
  OverlaySnapshot(const Graph& graph,
                  const std::function<double(NodeId)>& weight) {
    Refresh(graph, weight);
  }

  /// Brings the snapshot up to date with `graph` and `weight`. The graph
  /// must not change again until the next refresh if its rows are to
  /// stay current; the snapshot never dereferences it after returning.
  void Refresh(const Graph& graph,
               const std::function<double(NodeId)>& weight);

  /// True iff `id` was a live node at the last refresh.
  bool HasNode(NodeId id) const { return id < live_.size() && live_[id] != 0; }

  /// Neighbours of `id` in Graph::Neighbors order; empty for dead and
  /// out-of-range ids.
  std::span<const NodeId> Neighbors(NodeId id) const {
    if (id >= live_.size()) return {};
    return {neighbors_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }

  /// Degree of `id`; 0 for dead and out-of-range ids.
  size_t Degree(NodeId id) const {
    return id < live_.size() ? offsets_[id + 1] - offsets_[id] : 0;
  }

  /// Weight of `id` read at the last refresh; 0 for dead and
  /// out-of-range ids.
  double Weight(NodeId id) const {
    return id < weights_.size() ? weights_[id] : 0.0;
  }

  /// Live nodes at the last refresh.
  size_t NodeCount() const { return live_count_; }

  /// Ids covered (live + dead); every id at or above it has no node.
  NodeId NextId() const { return static_cast<NodeId>(live_.size()); }

  /// Times a refresh rebuilt the rows (the weights are re-read every
  /// time regardless).
  uint64_t row_builds() const { return row_builds_; }

 private:
  void BuildRows(const Graph& graph);

  /// Row of id i is neighbors_[offsets_[i], offsets_[i + 1]).
  std::vector<size_t> offsets_;
  std::vector<NodeId> neighbors_;  ///< All rows, concatenated by id.
  std::vector<uint8_t> live_;      ///< Indexed by NodeId.
  std::vector<double> weights_;    ///< Indexed by NodeId.
  size_t live_count_ = 0;
  // What the rows were built from: a graph object and its version.
  const Graph* source_ = nullptr;
  uint64_t source_version_ = 0;
  uint64_t row_builds_ = 0;
};

}  // namespace digest

#endif  // DIGEST_NET_OVERLAY_SNAPSHOT_H_
