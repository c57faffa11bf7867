#ifndef DIGEST_DB_P2P_DATABASE_H_
#define DIGEST_DB_P2P_DATABASE_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/local_store.h"
#include "db/query.h"
#include "db/schema.h"
#include "net/graph.h"

namespace digest {

/// Globally unique reference to a tuple: the node holding it plus the
/// node-local id. Retained (repeated-sampling) samples hold TupleRefs and
/// re-resolve them at the next occasion, detecting deletions and node
/// departures.
struct TupleRef {
  NodeId node = kInvalidNode;
  LocalTupleId local = 0;

  friend bool operator==(const TupleRef& a, const TupleRef& b) {
    return a.node == b.node && a.local == b.local;
  }

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("node", node);
    v("local", local);
  }
};

/// The peer-to-peer database: a single relation R horizontally
/// partitioned over the nodes of an overlay graph (paper §II).
///
/// The database does not own the Graph; the simulation owns both and
/// keeps membership in sync (AddNode/RemoveNode mirror graph churn).
/// ExactAggregate is a centralized oracle used only for ground truth in
/// tests and experiment metrics — the algorithms under study never call
/// it.
///
/// Sample lifetime: the borrowed lookups (FindStore, FindTuple, and the
/// stores' Find/UniformPick) return pointers that stay valid and
/// unchanged until the database next changes — any node added or
/// removed, or any tuple inserted, updated or erased. Within one tick
/// that is the §II snapshot: the engine and node hold only a
/// `const P2PDatabase*`, so nothing they run can change it.
///
/// Store lookup: the map owns the stores and sets the order Nodes()
/// and every whole-relation pass walk; a dense table indexed by NodeId
/// points into it, so resolving a peer's store is an array read. Map
/// nodes never move, so the table survives rehash and a move of the
/// database. A copy would alias the source's stores, so there is none.
class P2PDatabase {
 public:
  explicit P2PDatabase(Schema schema) : schema_(std::move(schema)) {}

  P2PDatabase(const P2PDatabase&) = delete;
  P2PDatabase& operator=(const P2PDatabase&) = delete;
  P2PDatabase(P2PDatabase&&) = default;
  P2PDatabase& operator=(P2PDatabase&&) = default;

  const Schema& schema() const { return schema_; }

  /// Registers an (empty) store for a node. Fails if one already exists.
  Status AddNode(NodeId node);

  /// Drops a node's store and all its tuples (the peer left with its
  /// content). Fails if the node has no store.
  Status RemoveNode(NodeId node);

  /// True iff the node has a store.
  bool HasNode(NodeId node) const { return FindStore(node) != nullptr; }

  /// Mutable access to a node's store; fails with kNotFound when absent.
  Result<LocalStore*> StoreAt(NodeId node);

  /// Read access to a node's store; fails with kNotFound when absent.
  Result<const LocalStore*> StoreAt(NodeId node) const;

  /// Borrowed read access to a node's store; null when absent.
  const LocalStore* FindStore(NodeId node) const {
    return node < by_id_.size() ? by_id_[node] : nullptr;
  }

  /// Content size m_v of the node; 0 for unknown nodes (so it can be used
  /// directly as a sampling weight function).
  size_t ContentSize(NodeId node) const {
    const LocalStore* store = FindStore(node);
    return store == nullptr ? 0 : store->Size();
  }

  /// Total number of tuples in R across all nodes.
  size_t TotalTuples() const;

  /// True iff R holds a tuple: TotalTuples() > 0, stopping at the first
  /// non-empty store.
  bool HasTuples() const;

  /// Ids of all nodes that currently have stores.
  std::vector<NodeId> Nodes() const;

  /// Borrowed resolution of a TupleRef; null when the node left or the
  /// tuple was deleted.
  const Tuple* FindTuple(const TupleRef& ref) const {
    const LocalStore* store = FindStore(ref.node);
    return store == nullptr ? nullptr : store->Find(ref.local);
  }

  /// Checked copying resolution of a TupleRef. Fails with kUnavailable
  /// when the node left and kNotFound when the tuple was deleted.
  Result<Tuple> GetTuple(const TupleRef& ref) const;

  /// Centralized oracle evaluation of a snapshot aggregate query over the
  /// full relation (ground truth X[t]). AVG fails on an empty relation.
  Result<double> ExactAggregate(const AggregateQuery& query) const;

 private:
  Schema schema_;
  std::unordered_map<NodeId, LocalStore> stores_;
  /// by_id_[v] is &stores_.at(v), or null when v has no store.
  std::vector<LocalStore*> by_id_;
};

}  // namespace digest

#endif  // DIGEST_DB_P2P_DATABASE_H_
