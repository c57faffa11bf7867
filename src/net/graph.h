#ifndef DIGEST_NET_GRAPH_H_
#define DIGEST_NET_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "numeric/rng.h"

namespace digest {

/// Stable identifier of an overlay node. Ids are never reused within one
/// Graph, so references held across churn events stay unambiguous.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Undirected overlay graph of a peer-to-peer network (paper §II).
///
/// Supports arbitrary topology and dynamic membership: nodes join and
/// leave (churn) and edges are rewired, while ids of live nodes remain
/// stable. Degree lookups and uniform neighbor picks are O(1); edge
/// insertion/removal is O(degree). The Metropolis random walk steps over
/// an OverlaySnapshot of the graph (net/overlay_snapshot.h), rebuilt only
/// after a mutation moves version().
class Graph {
 public:
  Graph() = default;

  /// Adds an isolated node and returns its id.
  NodeId AddNode();

  /// Removes a node and all incident edges. Fails if the node is not live.
  Status RemoveNode(NodeId id);

  /// Adds an undirected edge. Fails if either endpoint is dead, the edge
  /// already exists, or it is a self-loop.
  Status AddEdge(NodeId a, NodeId b);

  /// Removes an undirected edge. Fails if it does not exist.
  Status RemoveEdge(NodeId a, NodeId b);

  /// True iff the node id is live.
  bool HasNode(NodeId id) const;

  /// True iff both nodes are live and adjacent.
  bool HasEdge(NodeId a, NodeId b) const;

  /// Degree of a live node; 0 for dead/unknown ids.
  size_t Degree(NodeId id) const;

  /// Neighbor list of a live node (unordered). The reference is
  /// invalidated by any mutation of the graph.
  const std::vector<NodeId>& Neighbors(NodeId id) const;

  /// Number of live nodes.
  size_t NodeCount() const { return live_count_; }

  /// Number of undirected edges.
  size_t EdgeCount() const { return edge_count_; }

  /// Total ids ever allocated (live + dead); ids are < NextId().
  NodeId NextId() const { return static_cast<NodeId>(adjacency_.size()); }

  /// Mutation counter: moves on every successful AddNode, RemoveNode,
  /// AddEdge and RemoveEdge, and on nothing else. An OverlaySnapshot
  /// rebuilds its rows only when this has moved.
  uint64_t version() const { return version_; }

  /// All live node ids, ascending.
  std::vector<NodeId> LiveNodes() const;

  /// Uniformly random live node; fails when the graph is empty.
  Result<NodeId> RandomLiveNode(Rng& rng) const;

  /// Uniformly random neighbor of `id`; fails for dead or isolated nodes.
  Result<NodeId> RandomNeighbor(NodeId id, Rng& rng) const;

  /// True iff every live node can reach every other live node.
  bool IsConnected() const;

  /// BFS hop distances from `source` to every id; -1 marks unreachable or
  /// dead ids. Fails if `source` is dead.
  Result<std::vector<int>> BfsDistances(NodeId source) const;

 private:
  struct NodeEntry {
    bool live = false;
    std::vector<NodeId> neighbors;
  };

  std::vector<NodeEntry> adjacency_;
  size_t live_count_ = 0;
  size_t edge_count_ = 0;
  uint64_t version_ = 0;
  static const std::vector<NodeId> kEmptyNeighbors;
};

}  // namespace digest

#endif  // DIGEST_NET_GRAPH_H_
