#include "core/query_scheduler.h"

#include <algorithm>
#include <utility>

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

Result<PartialTupleBatch> CoalescingSampleSource::Serve(NodeId origin,
                                                        size_t n,
                                                        bool budgeted) {
  size_t& cursor = cursors_[active_];
  // Extend the pool when the active cursor's window overruns it. The
  // shared sampler draws exactly the shortfall, so the pool's final
  // size is the max cumulative demand across consumers — the
  // tightest-ε query sizes the batch, everyone else rides its prefix.
  bool timed_out = false;
  if (cursor + n > pool_.size()) {
    const size_t shortfall = cursor + n - pool_.size();
    if (budgeted) {
      DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch got,
                              sampler_->SampleBatchPartial(origin,
                                                           shortfall));
      timed_out = got.timed_out;
      pool_.insert(pool_.end(), got.samples.begin(), got.samples.end());
    } else {
      DIGEST_ASSIGN_OR_RETURN(std::vector<TupleSample> got,
                              sampler_->SampleBatch(origin, shortfall));
      pool_.insert(pool_.end(), got.begin(), got.end());
    }
  }
  const size_t available = std::min(n, pool_.size() - cursor);
  PartialTupleBatch batch;
  batch.samples.assign(pool_.begin() + cursor,
                       pool_.begin() + cursor + available);
  batch.timed_out = timed_out;
  cursor += available;
  return batch;
}

Result<std::vector<TupleSample>> CoalescingSampleSource::DrawFresh(
    NodeId origin, size_t n) {
  DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch batch,
                          Serve(origin, n, /*budgeted=*/false));
  return std::move(batch.samples);
}

Result<PartialTupleBatch> CoalescingSampleSource::DrawFreshPartial(
    NodeId origin, size_t n) {
  return Serve(origin, n, /*budgeted=*/true);
}

Status QueryScheduler::Register(QueryId id, double epsilon) {
  if (costs_.count(id) != 0) {
    return Status::AlreadyExists("query id already registered");
  }
  QueryCost cost;
  cost.epsilon = epsilon;
  costs_.emplace(id, cost);
  return Status::OK();
}

QueryScheduler::TickPlan QueryScheduler::Plan(
    const std::function<bool(QueryId)>& would_snapshot) const {
  TickPlan plan;
  for (const auto& [id, cost] : costs_) {
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
              const double ea = costs_.at(a).epsilon;
              const double eb = costs_.at(b).epsilon;
              if (ea != eb) return ea < eb;
              return a < b;
            });
  // plan.idle is already ascending by id (map iteration order).
  return plan;
}

void QueryScheduler::RecordTick(QueryId id, uint64_t meter_delta,
                                bool snapshot, bool coalesced) {
  auto it = costs_.find(id);
  if (it == costs_.end()) return;
  it->second.ticks += 1;
  it->second.messages += meter_delta;
  if (snapshot) it->second.snapshots += 1;
  if (coalesced) it->second.coalesced += 1;
}

const QueryCost* QueryScheduler::Cost(QueryId id) const {
  auto it = costs_.find(id);
  return it == costs_.end() ? nullptr : &it->second;
}

}  // namespace digest
