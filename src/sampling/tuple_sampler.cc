#include "sampling/tuple_sampler.h"

#include <algorithm>

namespace digest {

size_t UpperBoundIndex(const std::vector<double>& sums, double r) {
  // Each level halves the range with a conditional move. `!(r < x)` is
  // upper_bound's own test, so NaN and ties land where it puts them.
  const double* base = sums.data();
  size_t n = sums.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = !(r < base[half]) ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - sums.data()) + (!(r < *base) ? 1 : 0);
}

Result<PartialTupleBatch> TwoStageTupleSampler::DrawFresh(NodeId origin,
                                                          size_t n) {
  if (!db_->HasTuples()) {
    return Status::FailedPrecondition("relation R is empty");
  }
  PartialTupleBatch out;
  out.samples.reserve(n);
  size_t rounds = 0;
  while (out.samples.size() < n) {
    if (++rounds > 100) {
      return Status::Unavailable(
          "two-stage sampling repeatedly hit empty/departed nodes");
    }
    const size_t want = n - out.samples.size();
    DIGEST_ASSIGN_OR_RETURN(PartialBatch nodes, op_->SampleNodes(origin, want));
    for (NodeId node : nodes.nodes) {
      // Under churn the sampled node may have vanished between the walk
      // and the local draw, or may hold no tuples (weight raced with an
      // update); such draws are retried.
      const LocalStore* store = db_->FindStore(node);
      if (store == nullptr) continue;
      const LocalStore::Slot* pick = store->UniformPick(rng_);
      if (pick == nullptr) continue;
      out.samples.push_back(TupleSample{TupleRef{node, pick->id},
                                        &pick->tuple});
    }
    if (nodes.timed_out) {
      // The walk budget is spent; hand back whatever completed instead
      // of spinning further rounds against a dead budget.
      out.timed_out = true;
      break;
    }
  }
  return out;
}

Result<std::vector<TupleSample>> ClusterSampler::SampleCluster(
    NodeId origin) {
  DIGEST_ASSIGN_OR_RETURN(NodeId node, op_->SampleNode(origin));
  DIGEST_ASSIGN_OR_RETURN(const LocalStore* store, db_->StoreAt(node));
  std::vector<TupleSample> out;
  out.reserve(store->Size());
  store->ForEach([&](LocalTupleId id, const Tuple& tuple) {
    out.push_back(TupleSample{TupleRef{node, id}, &tuple});
  });
  return out;
}

Result<PartialTupleBatch> ExactTupleSampler::DrawFresh(NodeId /*origin*/,
                                                       size_t n) {
  // Content-size-weighted node pick followed by a uniform local pick is
  // exactly uniform over tuples. The node pick is Rng::NextWeightedIndex
  // over the content sizes, by a branch-free binary search over their
  // running sums instead of a scan: one draw r = u·total picks the first
  // node whose running sum exceeds r (the last non-empty node if
  // rounding put r at the total). Sizes are integers, so every running
  // sum is exact and the two agree draw for draw, at O(log N) per draw
  // instead of O(N). The one pass over the nodes resolves each store
  // once, and a draw reads the picked one.
  const std::vector<NodeId> nodes = db_->Nodes();
  std::vector<const LocalStore*> stores(nodes.size());
  std::vector<double> running(nodes.size());
  double sum = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    stores[i] = db_->FindStore(nodes[i]);
    sum += static_cast<double>(stores[i]->Size());
    running[i] = sum;
  }
  if (sum == 0.0) {
    return Status::FailedPrecondition("relation R is empty");
  }
  const size_t last_nonempty =
      std::lower_bound(running.begin(), running.end(), sum) - running.begin();
  PartialTupleBatch out;
  out.samples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = rng_.NextDouble() * sum;
    const size_t pick = std::min<size_t>(
        UpperBoundIndex(running, r), last_nonempty);
    const LocalStore::Slot* tuple_pick = stores[pick]->UniformPick(rng_);
    if (tuple_pick == nullptr) {
      return Status::Internal("weighted pick landed on an empty store");
    }
    if (meter_ != nullptr) meter_->AddSampleTransfer();
    out.samples.push_back(TupleSample{TupleRef{nodes[pick], tuple_pick->id},
                                      &tuple_pick->tuple});
  }
  return out;
}

}  // namespace digest
