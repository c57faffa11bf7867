#ifndef DIGEST_NET_OVERLAY_SNAPSHOT_H_
#define DIGEST_NET_OVERLAY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/graph.h"
#include "numeric/rng.h"

namespace digest {

/// Flat, read-only copy of the overlay that one walk batch steps over.
/// The paper's walk needs only each peer's degree and the weight ratio
/// of two neighbours (§V, Eq. 12), and the network is static while a
/// batch runs (§II), so a step reads flat arrays and nothing else:
///
///  - compressed-sparse-row (CSR) neighbour rows, each in
///    Graph::Neighbors order, so a uniform pick over a row chooses the
///    same neighbour the graph would for the same draw;
///  - a live flag per node id (dead and never-allocated ids have no
///    node and an empty row);
///  - one weight per node id (0 for dead ids);
///  - per node id, the row's pick reciprocal (Rng::PickReciprocal of its
///    degree), so a uniform pick over the row needs no 64-bit division,
///    and a packed row word for steppers that gather rows eight at a
///    time;
///  - once BuildCoins() has run, one acceptance coin per CSR entry i→j:
///    the move's acceptance probability, computed from the two ends'
///    weights and degrees, as an Rng::Coin. Since both ends are frozen
///    for the batch, a walk that reads the coin makes exactly the draws
///    it would make computing the acceptance, and no floating point.
///
/// Refresh() runs on one thread before the walks fan out; afterwards the
/// snapshot is only read, so any number of workers may share it. The
/// rows are rebuilt only when Graph::version() has moved since the last
/// refresh (or the graph is a different object); the weights are re-read
/// at every refresh, because a weight such as a peer's content size can
/// change without any graph mutation. The coin table is built only on
/// request and kept until a refresh rebuilds the rows or reads any
/// weight that differs from the one it replaces; then it is dropped, and
/// nothing rebuilds it until the next request.
class OverlaySnapshot {
 public:
  /// Acceptance probability of a move i → j from the two ends' weights
  /// and degrees: the walk's MetropolisAcceptance (sampling/metropolis.h),
  /// which the snapshot does not include, as net/ does not depend on
  /// sampling/.
  using AcceptanceFn = double (*)(double weight_i, size_t degree_i,
                                  double weight_j, size_t degree_j);

  OverlaySnapshot() = default;

  /// A snapshot refreshed once against `graph` and `weight`.
  OverlaySnapshot(const Graph& graph,
                  const std::function<double(NodeId)>& weight) {
    Refresh(graph, weight);
  }

  /// Brings the snapshot up to date with `graph` and `weight`. The graph
  /// must not change again until the next refresh if its rows are to
  /// stay current; the snapshot never dereferences it after returning.
  /// Returns true, and drops the coin table, if the rows were rebuilt or
  /// any weight differs bitwise from the one it replaced.
  bool Refresh(const Graph& graph,
               const std::function<double(NodeId)>& weight);

  /// Builds the coin table unless it is already built: entry e of id i's
  /// row, neighbour j, gets Rng::Coin::Of(kAcceptance(Weight(i),
  /// Degree(i), Weight(j), Degree(j))). Every call must name the same
  /// function; it is a template argument so that it inlines into the
  /// O(N + E) build loop.
  template <AcceptanceFn kAcceptance>
  void BuildCoins() {
    if (has_coins_) return;
    coins_.resize(neighbors_.size());
    for (NodeId i = 0; i < live_.size(); ++i) {
      const size_t begin = offsets_[i];
      const size_t end = offsets_[static_cast<size_t>(i) + 1];
      const double weight_i = weights_[i];
      for (size_t e = begin; e < end; ++e) {
        const NodeId j = neighbors_[e];
        coins_[e] = Rng::Coin::Of(
            kAcceptance(weight_i, end - begin, weights_[j], Degree(j)));
      }
    }
    has_coins_ = true;
    ++coin_builds_;
  }

  /// True while the coin table is built and current.
  bool HasCoins() const { return has_coins_; }

  /// Coins of `id`'s row, parallel to Neighbors(id). Only meaningful
  /// while HasCoins(); null for out-of-range ids.
  const Rng::Coin* Coins(NodeId id) const {
    return id < live_.size() ? coins_.data() + offsets_[id] : nullptr;
  }

  /// Rng::PickReciprocal(Degree(id)): Rng::NextIndex(Degree(id), it)
  /// picks a neighbour without a 64-bit division. 0 for out-of-range ids.
  uint64_t PickReciprocal(NodeId id) const {
    return id < reciprocals_.size() ? reciprocals_[id] : 0;
  }

  /// The flat arrays behind the accessors above, for a stepper that
  /// gathers from them eight walks at a time: by node id, the row words
  /// and pick reciprocals; by CSR entry, the neighbour ids and, while
  /// HasCoins(), the coins. Row word i packs row i's first entry (low 32
  /// bits) and Degree(i) (high 32 bits), so the words exist only while
  /// EntryCount() < 2^32; RowWords() is null otherwise.
  const uint64_t* RowWords() const {
    return row_words_.empty() ? nullptr : row_words_.data();
  }
  const uint64_t* PickReciprocals() const { return reciprocals_.data(); }
  const NodeId* NeighborEntries() const { return neighbors_.data(); }
  const Rng::Coin* CoinEntries() const { return coins_.data(); }

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

  /// Entries of all rows together (each edge twice): the size of the
  /// coin table.
  size_t EntryCount() const { return neighbors_.size(); }

  /// Ids covered (live + dead); every id at or above it has no node.
  NodeId NextId() const { return static_cast<NodeId>(live_.size()); }

  /// Times a refresh rebuilt the rows (the weights are re-read every
  /// time regardless).
  uint64_t row_builds() const { return row_builds_; }

  /// Times BuildCoins built the coin table.
  uint64_t coin_builds() const { return coin_builds_; }

 private:
  void BuildRows(const Graph& graph);

  /// Row of id i is neighbors_[offsets_[i], offsets_[i + 1]).
  std::vector<size_t> offsets_;
  std::vector<NodeId> neighbors_;  ///< All rows, concatenated by id.
  std::vector<uint8_t> live_;      ///< Indexed by NodeId.
  std::vector<double> weights_;    ///< Indexed by NodeId.
  std::vector<Rng::Coin> coins_;   ///< Parallel to neighbors_.
  // Indexed by NodeId and built with the rows; see RowWords.
  std::vector<uint64_t> row_words_;
  std::vector<uint64_t> reciprocals_;
  bool has_coins_ = false;
  size_t live_count_ = 0;
  // What the rows were built from: a graph object and its version.
  const Graph* source_ = nullptr;
  uint64_t source_version_ = 0;
  uint64_t row_builds_ = 0;
  uint64_t coin_builds_ = 0;
};

}  // namespace digest

#endif  // DIGEST_NET_OVERLAY_SNAPSHOT_H_
