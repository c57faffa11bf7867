#include "db/local_store.h"

#include <string>
#include <utility>

namespace digest {

LocalTupleId LocalStore::Insert(Tuple tuple) {
  const LocalTupleId id = next_id_++;
  index_[id] = slots_.size();
  slots_.push_back(Slot{id, std::move(tuple)});
  return id;
}

Status LocalStore::Update(LocalTupleId id, Tuple tuple) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("no tuple with local id " + std::to_string(id));
  }
  slots_[it->second].tuple = std::move(tuple);
  return Status::OK();
}

Status LocalStore::UpdateAttribute(LocalTupleId id, size_t attr_index,
                                   double value) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("no tuple with local id " + std::to_string(id));
  }
  Tuple& tuple = slots_[it->second].tuple;
  if (attr_index >= tuple.size()) {
    return Status::OutOfRange("attribute index out of range");
  }
  tuple[attr_index] = value;
  return Status::OK();
}

Status LocalStore::Erase(LocalTupleId id) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("no tuple with local id " + std::to_string(id));
  }
  const size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != slots_.size()) {
    slots_[pos] = std::move(slots_.back());
    index_[slots_[pos].id] = pos;
  }
  slots_.pop_back();
  return Status::OK();
}

Result<Tuple> LocalStore::Get(LocalTupleId id) const {
  const Tuple* tuple = Find(id);
  if (tuple == nullptr) {
    return Status::NotFound("no tuple with local id " + std::to_string(id));
  }
  return *tuple;
}

void LocalStore::ForEach(
    const std::function<void(LocalTupleId, const Tuple&)>& fn) const {
  for (const Slot& slot : slots_) {
    fn(slot.id, slot.tuple);
  }
}

}  // namespace digest
