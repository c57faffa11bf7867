#include "baselines/olston_filter.h"

#include <cmath>
#include <vector>

namespace digest {
namespace {

// Every kAdjustmentPeriod ticks each filter gives up kShrinkFraction of
// its width, and the reclaimed width is re-granted to the sources that
// pushed the most (Olston's shrink/grow scheme).
constexpr size_t kAdjustmentPeriod = 8;
constexpr double kShrinkFraction = 0.1;

}  // namespace

OlstonFilterBaseline::OlstonFilterBaseline(
    const Graph* graph, const P2PDatabase* db, AggregateQuery query,
    NodeId querying_node, double epsilon, MessageMeter* meter)
    : graph_(graph),
      db_(db),
      query_(std::move(query)),
      querying_node_(querying_node),
      epsilon_(epsilon),
      meter_(meter),
      bound_expression_(query_.expression) {}

Status OlstonFilterBaseline::EnsureInitialized() {
  if (initialized_) return Status::OK();
  if (query_.op != AggregateOp::kAvg) {
    return Status::InvalidArgument(
        "the filter baseline supports AVG queries");
  }
  if (!(epsilon_ > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  DIGEST_RETURN_IF_ERROR(bound_expression_.Bind(db_->schema()));
  initialized_ = true;
  return Status::OK();
}

Result<double> OlstonFilterBaseline::Tick() {
  DIGEST_RETURN_IF_ERROR(EnsureInitialized());
  ++ticks_;

  DIGEST_ASSIGN_OR_RETURN(std::vector<int> dist,
                          graph_->BfsDistances(querying_node_));
  auto hops_of = [&dist](NodeId node) -> uint64_t {
    if (node >= dist.size() || dist[node] < 0) return 1;
    return static_cast<uint64_t>(std::max(dist[node], 0));
  };

  // Pass 1: every live source checks its filter; escapes push an update.
  std::map<std::pair<NodeId, LocalTupleId>, SourceState> next;
  Status failure = Status::OK();
  const double total_budget =
      2.0 * epsilon_ * static_cast<double>(std::max<size_t>(
                           1, db_->TotalTuples()));
  const double default_width =
      total_budget / static_cast<double>(std::max<size_t>(
                         1, db_->TotalTuples()));
  for (NodeId node : db_->Nodes()) {
    Result<const LocalStore*> store = db_->StoreAt(node);
    if (!store.ok()) continue;
    (*store)->ForEach([&](LocalTupleId id, const Tuple& tuple) {
      if (!failure.ok()) return;
      Result<double> value = bound_expression_.Evaluate(tuple);
      if (!value.ok()) {
        failure = value.status();
        return;
      }
      const auto key = std::make_pair(node, id);
      auto it = sources_.find(key);
      if (it == sources_.end()) {
        // New source (insertion or joined node): announces itself.
        SourceState state;
        state.reported = *value;
        state.width = default_width;
        state.recent_pushes = 0;
        if (meter_ != nullptr) meter_->AddPush(hops_of(node));
        ++pushed_updates_;
        next.emplace(key, state);
        return;
      }
      SourceState state = it->second;
      const double lo = state.reported - state.width / 2.0;
      const double hi = state.reported + state.width / 2.0;
      if (*value < lo || *value > hi) {
        state.reported = *value;
        ++state.recent_pushes;
        if (meter_ != nullptr) meter_->AddPush(hops_of(node));
        ++pushed_updates_;
      }
      next.emplace(key, state);
    });
    if (!failure.ok()) return failure;
  }
  // Departed sources simply disappear from the coordinator's view (the
  // coordinator notices via its periodic re-grants, charged below).
  sources_ = std::move(next);

  // Pass 2: periodic adaptive reallocation (shrink all, re-grant the
  // reclaimed budget proportionally to recent push counts).
  if (ticks_ % kAdjustmentPeriod == 0 && !sources_.empty()) {
    double reclaimed = 0.0;
    uint64_t total_pushes = 0;
    for (auto& [key, state] : sources_) {
      (void)key;
      const double cut = state.width * kShrinkFraction;
      state.width -= cut;
      reclaimed += cut;
      total_pushes += state.recent_pushes;
    }
    for (auto& [key, state] : sources_) {
      double grant;
      if (total_pushes > 0) {
        grant = reclaimed * static_cast<double>(state.recent_pushes) /
                static_cast<double>(total_pushes);
      } else {
        grant = reclaimed / static_cast<double>(sources_.size());
      }
      if (grant > 0.0) {
        state.width += grant;
        // The coordinator sends the new width to the source.
        if (meter_ != nullptr) meter_->AddPush(hops_of(key.first));
      }
      state.recent_pushes = 0;
    }
  }

  // Coordinator estimate: mean of last-reported values.
  if (sources_.empty()) {
    return Status::FailedPrecondition("no sources registered");
  }
  double sum = 0.0;
  for (const auto& [key, state] : sources_) {
    (void)key;
    sum += state.reported;
  }
  return sum / static_cast<double>(sources_.size());
}

}  // namespace digest
