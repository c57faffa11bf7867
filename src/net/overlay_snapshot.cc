#include "net/overlay_snapshot.h"

#include <bit>

namespace digest {

bool OverlaySnapshot::Refresh(const Graph& graph,
                              const std::function<double(NodeId)>& weight) {
  bool changed = false;
  if (source_ != &graph || source_version_ != graph.version()) {
    BuildRows(graph);
    changed = true;
  }
  weights_.resize(live_.size());
  for (NodeId id = 0; id < live_.size(); ++id) {
    const double w = live_[id] != 0 ? weight(id) : 0.0;
    // Bitwise, so a NaN weight that stays NaN is no change.
    changed |= std::bit_cast<uint64_t>(w) !=
               std::bit_cast<uint64_t>(weights_[id]);
    weights_[id] = w;
  }
  if (changed) has_coins_ = false;
  return changed;
}

void OverlaySnapshot::BuildRows(const Graph& graph) {
  const NodeId ids = graph.NextId();
  offsets_.resize(static_cast<size_t>(ids) + 1);
  live_.assign(ids, 0);
  neighbors_.clear();
  neighbors_.reserve(2 * graph.EdgeCount());
  offsets_[0] = 0;
  for (NodeId id = 0; id < ids; ++id) {
    if (graph.HasNode(id)) {
      live_[id] = 1;
      const std::vector<NodeId>& row = graph.Neighbors(id);
      neighbors_.insert(neighbors_.end(), row.begin(), row.end());
    }
    offsets_[static_cast<size_t>(id) + 1] = neighbors_.size();
  }
  reciprocals_.resize(ids);
  for (NodeId id = 0; id < ids; ++id) {
    reciprocals_[id] = Rng::PickReciprocal(Degree(id));
  }
  row_words_.clear();
  if (neighbors_.size() < (uint64_t{1} << 32)) {
    row_words_.resize(ids);
    for (NodeId id = 0; id < ids; ++id) {
      row_words_[id] = offsets_[id] | static_cast<uint64_t>(Degree(id)) << 32;
    }
  }
  live_count_ = graph.NodeCount();
  source_ = &graph;
  source_version_ = graph.version();
  ++row_builds_;
}

}  // namespace digest
