#include "core/query_scheduler.h"

#include <algorithm>

namespace digest {

void CoalescingSampleSource::BeginTick() {
  pool_.clear();
  cursors_.clear();
}

size_t CoalescingSampleSource::consumed_samples() const {
  size_t total = 0;
  for (const auto& [id, cursor] : cursors_) {
    (void)id;
    total += cursor;
  }
  return total;
}

Result<PartialTupleBatch> CoalescingSampleSource::DrawFresh(NodeId origin,
                                                            size_t n) {
  size_t& cursor = cursors_[active_];
  // Extend the pool when the active cursor's window overruns it. The
  // shared sampler draws exactly the shortfall, so the pool's final
  // size is the max cumulative demand across consumers — the
  // tightest-ε query sizes the batch, everyone else rides its prefix.
  PartialTupleBatch batch;
  if (cursor + n > pool_.size()) {
    DIGEST_ASSIGN_OR_RETURN(
        PartialTupleBatch got,
        sampler_->DrawFresh(origin, cursor + n - pool_.size()));
    batch.timed_out = got.timed_out;
    pool_.insert(pool_.end(), got.samples.begin(), got.samples.end());
  }
  const size_t available = std::min(n, pool_.size() - cursor);
  batch.samples.assign(pool_.begin() + cursor,
                       pool_.begin() + cursor + available);
  cursor += available;
  return batch;
}

Status QueryScheduler::Register(QueryId id, double epsilon) {
  if (ledger_.costs.count(id) != 0) {
    return Status::AlreadyExists("query id already registered");
  }
  QueryCost cost;
  cost.epsilon = epsilon;
  ledger_.costs.emplace(id, cost);
  return Status::OK();
}

QueryScheduler::TickPlan QueryScheduler::Plan(
    const std::function<bool(QueryId)>& would_snapshot) const {
  TickPlan plan;
  for (const auto& [id, cost] : ledger_.costs) {
    (void)cost;
    if (would_snapshot(id)) {
      plan.due.push_back(id);
    } else {
      plan.idle.push_back(id);
    }
  }
  // Tightest precision first: the first consumer's demand fills the
  // shared pool deepest, so later (looser) queries stay within its
  // prefix and add no walks of their own.
  std::sort(plan.due.begin(), plan.due.end(),
            [this](QueryId a, QueryId b) {
              const double ea = ledger_.costs.at(a).epsilon;
              const double eb = ledger_.costs.at(b).epsilon;
              if (ea != eb) return ea < eb;
              return a < b;
            });
  // plan.idle is already ascending by id (map iteration order).
  return plan;
}

void QueryScheduler::RecordTick(QueryId id, uint64_t meter_delta,
                                bool snapshot, bool coalesced) {
  auto it = ledger_.costs.find(id);
  if (it == ledger_.costs.end()) return;
  it->second.ticks += 1;
  it->second.messages += meter_delta;
  if (snapshot) it->second.snapshots += 1;
  if (coalesced) it->second.coalesced += 1;
}

const QueryCost* QueryScheduler::Cost(QueryId id) const {
  auto it = ledger_.costs.find(id);
  return it == ledger_.costs.end() ? nullptr : &it->second;
}

}  // namespace digest
