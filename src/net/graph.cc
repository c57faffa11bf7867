#include "net/graph.h"

#include <algorithm>
#include <deque>
#include <string>

namespace digest {

const std::vector<NodeId> Graph::kEmptyNeighbors;

NodeId Graph::AddNode() {
  adjacency_.push_back(NodeEntry{true, {}});
  ++live_count_;
  ++version_;
  return static_cast<NodeId>(adjacency_.size() - 1);
}

Status Graph::RemoveNode(NodeId id) {
  if (!HasNode(id)) {
    return Status::NotFound("node " + std::to_string(id) + " is not live");
  }
  // Detach from every neighbor.
  for (NodeId nb : adjacency_[id].neighbors) {
    auto& list = adjacency_[nb].neighbors;
    list.erase(std::find(list.begin(), list.end(), id));
    --edge_count_;
  }
  adjacency_[id].neighbors.clear();
  adjacency_[id].live = false;
  --live_count_;
  ++version_;
  return Status::OK();
}

Status Graph::AddEdge(NodeId a, NodeId b) {
  if (a == b) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  if (!HasNode(a) || !HasNode(b)) {
    return Status::NotFound("edge endpoint is not a live node");
  }
  if (HasEdge(a, b)) {
    return Status::AlreadyExists("edge already present");
  }
  adjacency_[a].neighbors.push_back(b);
  adjacency_[b].neighbors.push_back(a);
  ++edge_count_;
  ++version_;
  return Status::OK();
}

Status Graph::RemoveEdge(NodeId a, NodeId b) {
  if (!HasEdge(a, b)) {
    return Status::NotFound("edge not present");
  }
  auto& la = adjacency_[a].neighbors;
  la.erase(std::find(la.begin(), la.end(), b));
  auto& lb = adjacency_[b].neighbors;
  lb.erase(std::find(lb.begin(), lb.end(), a));
  --edge_count_;
  ++version_;
  return Status::OK();
}

bool Graph::HasNode(NodeId id) const {
  return id < adjacency_.size() && adjacency_[id].live;
}

bool Graph::HasEdge(NodeId a, NodeId b) const {
  if (!HasNode(a) || !HasNode(b)) return false;
  const auto& la = adjacency_[a].neighbors;
  const auto& lb = adjacency_[b].neighbors;
  const auto& shorter = la.size() <= lb.size() ? la : lb;
  const NodeId target = la.size() <= lb.size() ? b : a;
  return std::find(shorter.begin(), shorter.end(), target) != shorter.end();
}

size_t Graph::Degree(NodeId id) const {
  return HasNode(id) ? adjacency_[id].neighbors.size() : 0;
}

const std::vector<NodeId>& Graph::Neighbors(NodeId id) const {
  return HasNode(id) ? adjacency_[id].neighbors : kEmptyNeighbors;
}

std::vector<NodeId> Graph::LiveNodes() const {
  std::vector<NodeId> out;
  out.reserve(live_count_);
  for (NodeId id = 0; id < adjacency_.size(); ++id) {
    if (adjacency_[id].live) out.push_back(id);
  }
  return out;
}

Result<NodeId> Graph::RandomLiveNode(Rng& rng) const {
  if (live_count_ == 0) {
    return Status::FailedPrecondition("graph has no live nodes");
  }
  // Rejection over the id space: fine while most ids are live (the churn
  // processes here keep population roughly constant), with a fallback to
  // an explicit scan if the id space has become sparse.
  if (live_count_ * 4 >= adjacency_.size()) {
    while (true) {
      NodeId id = static_cast<NodeId>(rng.NextIndex(adjacency_.size()));
      if (adjacency_[id].live) return id;
    }
  }
  std::vector<NodeId> live = LiveNodes();
  return live[rng.NextIndex(live.size())];
}

Result<NodeId> Graph::RandomNeighbor(NodeId id, Rng& rng) const {
  if (!HasNode(id)) {
    return Status::NotFound("node is not live");
  }
  const auto& nbs = adjacency_[id].neighbors;
  if (nbs.empty()) {
    return Status::FailedPrecondition("node is isolated");
  }
  return nbs[rng.NextIndex(nbs.size())];
}

bool Graph::IsConnected() const {
  if (live_count_ == 0) return true;
  NodeId start = kInvalidNode;
  for (NodeId id = 0; id < adjacency_.size(); ++id) {
    if (adjacency_[id].live) {
      start = id;
      break;
    }
  }
  Result<std::vector<int>> dist = BfsDistances(start);
  if (!dist.ok()) return false;
  size_t reached = 0;
  for (NodeId id = 0; id < adjacency_.size(); ++id) {
    if (adjacency_[id].live && (*dist)[id] >= 0) ++reached;
  }
  return reached == live_count_;
}

Result<std::vector<int>> Graph::BfsDistances(NodeId source) const {
  if (!HasNode(source)) {
    return Status::NotFound("BFS source is not a live node");
  }
  std::vector<int> dist(adjacency_.size(), -1);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    for (NodeId nb : adjacency_[cur].neighbors) {
      if (dist[nb] < 0) {
        dist[nb] = dist[cur] + 1;
        queue.push_back(nb);
      }
    }
  }
  return dist;
}

}  // namespace digest
