#ifndef DIGEST_DB_LOCAL_STORE_H_
#define DIGEST_DB_LOCAL_STORE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "numeric/rng.h"

namespace digest {

/// Identifier of a tuple within one node's store. Never reused by the
/// same store, so a retained sample can detect that its tuple was deleted.
using LocalTupleId = uint64_t;

/// The horizontal fragment of R stored at one peer (paper §II: R is
/// partitioned and each disjoint subset of tuples is stored at a separate
/// node; m_v is the node's content size).
///
/// Supports O(1) insert, update, erase, membership test, and uniform
/// random sampling — the local half of the two-stage sampling scheme
/// (§III).
///
/// Borrowed lookups (Find, UniformPick) return pointers into the store:
/// valid and unchanged until the store next changes (any insert, update,
/// erase, or the store's removal from its database).
class LocalStore {
 public:
  /// One stored tuple and its id.
  struct Slot {
    LocalTupleId id;
    Tuple tuple;
  };

  LocalStore() = default;

  /// Inserts a tuple, returning its fresh local id.
  LocalTupleId Insert(Tuple tuple);

  /// Replaces the whole tuple. Fails if the id is not present.
  Status Update(LocalTupleId id, Tuple tuple);

  /// Sets one attribute of a stored tuple. Fails on unknown id or
  /// attribute index out of range.
  Status UpdateAttribute(LocalTupleId id, size_t attr_index, double value);

  /// Removes a tuple. Fails if the id is not present.
  Status Erase(LocalTupleId id);

  /// True iff the tuple is present.
  bool Contains(LocalTupleId id) const {
    return index_.find(id) != index_.end();
  }

  /// Borrowed read access; null for absent ids.
  const Tuple* Find(LocalTupleId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &slots_[it->second].tuple;
  }

  /// Checked copying read access; fails with kNotFound for absent ids.
  Result<Tuple> Get(LocalTupleId id) const;

  /// Number of stored tuples (m_v).
  size_t Size() const { return slots_.size(); }

  /// Uniformly random stored tuple, borrowed; null when the store is
  /// empty, in which case no draw is taken from `rng`.
  const Slot* UniformPick(Rng& rng) const {
    if (slots_.empty()) return nullptr;
    return &slots_[rng.NextIndex(slots_.size())];
  }

  /// Calls `fn(id, tuple)` for every stored tuple (unspecified order).
  void ForEach(
      const std::function<void(LocalTupleId, const Tuple&)>& fn) const;

 private:
  std::vector<Slot> slots_;
  std::unordered_map<LocalTupleId, size_t> index_;  // id -> slot position
  LocalTupleId next_id_ = 0;
};

}  // namespace digest

#endif  // DIGEST_DB_LOCAL_STORE_H_
