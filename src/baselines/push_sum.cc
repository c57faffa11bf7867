#include "baselines/push_sum.h"

#include <cmath>
#include <vector>

namespace digest {
namespace {

// Gossip stops after kMaxRounds rounds, or once the querying node's
// estimate has changed by less than kTolerance (relative) for
// kStableRounds consecutive rounds.
constexpr size_t kMaxRounds = 512;
constexpr double kTolerance = 1e-4;
constexpr size_t kStableRounds = 5;

struct Mass {
  double sum = 0.0;     // Σ expression values held.
  double count = 0.0;   // Σ tuple counts held.
  double weight = 0.0;  // Σ weight held (1 total, seeded at the querier).

  void Add(const Mass& other) {
    sum += other.sum;
    count += other.count;
    weight += other.weight;
  }
  Mass Half() {
    Mass h{sum / 2.0, count / 2.0, weight / 2.0};
    sum = h.sum;
    count = h.count;
    weight = h.weight;
    return h;
  }
};

}  // namespace

PushSumAggregator::PushSumAggregator(const Graph* graph,
                                     const P2PDatabase* db,
                                     AggregateQuery query,
                                     NodeId querying_node,
                                     MessageMeter* meter, Rng rng)
    : graph_(graph),
      db_(db),
      query_(std::move(query)),
      querying_node_(querying_node),
      meter_(meter),
      rng_(rng) {}

Result<PushSumResult> PushSumAggregator::Run() {
  if (query_.op == AggregateOp::kMedian) {
    return Status::InvalidArgument(
        "push-sum diffuses additive masses; it cannot compute quantiles");
  }
  const std::vector<NodeId> nodes = graph_->LiveNodes();
  if (nodes.empty()) {
    return Status::FailedPrecondition("cannot gossip on an empty network");
  }
  if (!graph_->HasNode(querying_node_)) {
    return Status::InvalidArgument("querying node is not live");
  }
  Expression expr = query_.expression;
  DIGEST_RETURN_IF_ERROR(expr.Bind(db_->schema()));
  Predicate where = query_.where;
  DIGEST_RETURN_IF_ERROR(where.Bind(db_->schema()));

  // Initial masses: each node's local partial aggregate; the unit weight
  // lives at the querying node.
  std::vector<Mass> mass(graph_->NextId());
  Status failure = Status::OK();
  for (NodeId node : nodes) {
    Result<const LocalStore*> store = db_->StoreAt(node);
    if (!store.ok()) continue;  // Node without content contributes zero.
    (*store)->ForEach([&](LocalTupleId, const Tuple& tuple) {
      if (!failure.ok()) return;
      Result<bool> qualifies = where.Evaluate(tuple);
      if (!qualifies.ok()) {
        failure = qualifies.status();
        return;
      }
      if (!*qualifies) return;
      Result<double> y = expr.Evaluate(tuple);
      if (!y.ok()) {
        failure = y.status();
        return;
      }
      mass[node].sum += *y;
      mass[node].count += 1.0;
    });
    if (!failure.ok()) return failure;
  }
  mass[querying_node_].weight = 1.0;

  auto estimate_at = [&](NodeId node) -> double {
    const Mass& m = mass[node];
    if (m.weight <= 0.0) return 0.0;
    switch (query_.op) {
      case AggregateOp::kSum:
        return m.sum / m.weight;
      case AggregateOp::kCount:
        return m.count / m.weight;
      case AggregateOp::kAvg:
        return m.count > 0.0 ? m.sum / m.count : 0.0;
      case AggregateOp::kMedian:
        break;  // Rejected in Run().
    }
    return 0.0;
  };

  PushSumResult out;
  double last_estimate = estimate_at(querying_node_);
  size_t stable = 0;
  std::vector<Mass> inbox(graph_->NextId());
  for (size_t round = 0; round < kMaxRounds; ++round) {
    out.rounds = round + 1;
    // Synchronous round: every node halves its mass and pushes one half
    // to a uniformly random neighbor (one message per node per round).
    for (auto& m : inbox) m = Mass{};
    for (NodeId node : nodes) {
      Mass half = mass[node].Half();
      Result<NodeId> target = graph_->RandomNeighbor(node, rng_);
      if (!target.ok()) {
        // Isolated node keeps everything.
        mass[node].Add(half);
        continue;
      }
      inbox[*target].Add(half);
      if (meter_ != nullptr) meter_->AddPush(1);
    }
    for (NodeId node : nodes) {
      mass[node].Add(inbox[node]);
    }
    const double estimate = estimate_at(querying_node_);
    const double scale = std::max(std::fabs(estimate), 1e-12);
    if (std::fabs(estimate - last_estimate) / scale < kTolerance) {
      if (++stable >= kStableRounds) {
        out.value = estimate;
        out.converged = true;
        return out;
      }
    } else {
      stable = 0;
    }
    last_estimate = estimate;
  }
  out.value = last_estimate;
  out.converged = false;
  return out;
}

}  // namespace digest
