#include "core/digest_node.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint_codec.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace {

constexpr char kNodeCheckpointVersion[] = "digest-node-checkpoint-v1";

struct NodeScalars {
  NodeId self = kInvalidNode;
  QueryId next_id = 0;
  bool coalesce = false;
  Rng::State rng;

  template <class V>
  void Fields(V& v) {
    v("self", self);
    v("next_id", next_id);
    v("coalesce", coalesce);
    v("rng", rng);
  }
};

/// The node blob. The shared operator and the coalescing sampler are
/// present exactly when the node has them. Every engine's own v3 blob
/// rides as an escaped JSON string: the engine codec owns its format;
/// the node embeds, never re-encodes.
struct NodeBlob {
  NodeScalars node;
  QueryScheduler::Ledger scheduler;
  bool has_operator = false;
  bool has_sampler = false;
  SamplingOperator::State op;
  Rng::State sampler_rng;
  std::map<QueryId, std::string> queries;

  template <class V>
  void Fields(V& v) {
    v("node", node);
    v("scheduler", scheduler);
    v.Optional("operator", has_operator, op);
    v.Optional("sampler_rng", has_sampler, sampler_rng);
    v("queries", queries);
  }
};

}  // namespace

Result<std::unique_ptr<DigestNode>> DigestNode::Create(
    const Graph* graph, const P2PDatabase* db, NodeId self, Rng rng,
    MessageMeter* meter, DigestEngineOptions default_options,
    DigestNodeOptions node_options) {
  if (!graph->HasNode(self)) {
    return Status::InvalidArgument("node is not in the network");
  }
  DIGEST_RETURN_IF_ERROR(default_options.sampling_options.retry.Validate());
  std::unique_ptr<DigestNode> node(new DigestNode(
      graph, db, self, meter, default_options, node_options));
  node->rng_ = rng;
  if (default_options.sampler == SamplerKind::kTwoStageMcmc) {
    node->operator_ = std::make_unique<SamplingOperator>(
        graph, ContentSizeWeight(*db), node->rng_.Fork(), meter,
        default_options.sampling_options);
    // Full observability on the shared operator: its walk batches serve
    // every tenant, so their events/metrics/diag/health belong to the
    // node (unlaned), not to any one query. The fault plan and health
    // monitor it drives report on the same unlaned tracer.
    node->operator_->SetFaultPlan(default_options.fault_plan);
    node->operator_->SetInstruments(default_options);
    if (default_options.fault_plan != nullptr) {
      default_options.fault_plan->SetTracer(default_options.tracer);
    }
    if (default_options.health != nullptr) {
      default_options.health->SetTracer(default_options.tracer);
    }
    if (node_options.coalesce_snapshots) {
      node->shared_sampler_ = std::make_unique<TwoStageTupleSampler>(
          db, node->operator_.get(), node->rng_.Fork());
      node->shared_source_ = std::make_unique<CoalescingSampleSource>(
          node->shared_sampler_.get());
    }
  }
  node->ExportRegistry();
  return node;
}

Result<QueryId> DigestNode::IssueQuery(ContinuousQuerySpec spec) {
  return IssueQuery(std::move(spec), default_options_);
}

Result<QueryId> DigestNode::IssueQuery(ContinuousQuerySpec spec,
                                       DigestEngineOptions options) {
  if (options.sampler != default_options_.sampler) {
    return Status::InvalidArgument(
        "query sampler kind must match the node's shared operator");
  }
  if (engines_.size() >= kMaxQueries) {
    return Status::FailedPrecondition("node at its capacity of " +
                                      std::to_string(kMaxQueries) +
                                      " queries");
  }
  const double epsilon = spec.precision.epsilon;
  const QueryId id = next_id_;
  // The query's events ride the node's trace on lane = QueryId; the
  // engine drives the lane wrapper's (unread) clock while the node
  // drives the parent's once per tick.
  obs::Tracer* real =
      options.tracer != nullptr ? options.tracer : default_options_.tracer;
  std::unique_ptr<obs::LaneTracer> lane;
  if (real != nullptr) {
    lane = std::make_unique<obs::LaneTracer>(real,
                                             static_cast<int64_t>(id));
    options.tracer = lane.get();
  }
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::CreateWithOperator(graph_, db_, std::move(spec), self_,
                                       rng_.Fork(), meter_, operator_.get(),
                                       shared_source_.get(), options));
  DIGEST_RETURN_IF_ERROR(scheduler_.Register(id, epsilon));
  engines_.emplace(id, std::move(engine));
  if (lane != nullptr) lanes_.emplace(id, std::move(lane));
  ++next_id_;
  ExportRegistry();
  return id;
}

Status DigestNode::CancelQuery(QueryId id) {
  if (engines_.erase(id) == 0) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  lanes_.erase(id);
  scheduler_.Unregister(id);
  ExportRegistry();
  return Status::OK();
}

Result<EngineTickResult> DigestNode::TickOne(QueryId id, int64_t t,
                                             bool coalesced) {
  const uint64_t before = meter_ != nullptr ? meter_->Total() : 0;
  if (shared_source_ != nullptr) shared_source_->SetActiveQuery(id);
  DIGEST_ASSIGN_OR_RETURN(EngineTickResult result,
                          engines_.at(id)->Tick(t));
  const uint64_t delta = meter_ != nullptr ? meter_->Total() - before : 0;
  scheduler_.RecordTick(id, delta, result.snapshot_executed,
                        coalesced && result.snapshot_executed);
  return result;
}

Result<std::vector<std::pair<QueryId, EngineTickResult>>> DigestNode::Tick(
    int64_t t) {
  obs::Tracer* tracer = default_options_.tracer;
  if (obs::Tracing(tracer)) tracer->set_now(t);
  // Split the tick: queries whose occasion is due consume the shared
  // pool tightest-ε first (the first one sizes it, the rest ride its
  // prefix); everyone else ticks afterwards in id order.
  QueryScheduler::TickPlan plan = scheduler_.Plan([&](QueryId id) {
    auto it = engines_.find(id);
    return it != engines_.end() && it->second->WouldSnapshotAt(t);
  });
  if (shared_source_ != nullptr) shared_source_->BeginTick();
  const bool coalesced = shared_source_ != nullptr && plan.due.size() >= 2;

  std::vector<std::pair<QueryId, EngineTickResult>> out;
  out.reserve(engines_.size());
  for (QueryId id : plan.due) {
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult r, TickOne(id, t, coalesced));
    out.emplace_back(id, r);
  }
  if (coalesced) {
    scheduler_.NoteCoalescedTick();
    if (obs::Tracing(tracer)) {
      obs::SnapshotCoalescedEvent ev;
      ev.queries = plan.due.size();
      ev.shared_samples = shared_source_->shared_samples();
      ev.consumed_samples = shared_source_->consumed_samples();
      tracer->Emit(ev);
    }
  }
  for (QueryId id : plan.idle) {
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult r,
                            TickOne(id, t, /*coalesced=*/false));
    out.emplace_back(id, r);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ExportRegistry();
  return out;
}

Result<const DigestEngine*> DigestNode::engine(QueryId id) const {
  auto it = engines_.find(id);
  if (it == engines_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return static_cast<const DigestEngine*>(it->second.get());
}

Result<QueryCost> DigestNode::query_cost(QueryId id) const {
  const QueryCost* cost = scheduler_.Cost(id);
  if (cost == nullptr) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return *cost;
}

void DigestNode::ExportRegistry() {
  obs::Registry* reg = default_options_.registry;
  if (reg == nullptr) return;
  reg->GetGauge("node.active_queries")
      ->Set(static_cast<double>(engines_.size()));
  reg->GetGauge("node.coalesced_ticks")
      ->Set(static_cast<double>(scheduler_.coalesced_ticks()));
  for (const auto& [id, cost] : scheduler_.costs()) {
    const obs::LabelSet labels = {{"query", std::to_string(id)}};
    reg->GetGauge("node.query.messages", labels)
        ->Set(static_cast<double>(cost.messages));
    reg->GetGauge("node.query.snapshots", labels)
        ->Set(static_cast<double>(cost.snapshots));
    reg->GetGauge("node.query.coalesced", labels)
        ->Set(static_cast<double>(cost.coalesced));
  }
}

Result<std::string> DigestNode::Checkpoint() const {
  NodeBlob blob;
  blob.has_operator = operator_ != nullptr;
  blob.has_sampler = shared_sampler_ != nullptr;
  blob.node = {self_, next_id_, shared_source_ != nullptr, rng_.SaveState()};
  blob.scheduler = scheduler_.SaveState();
  if (blob.has_operator) blob.op = operator_->SaveState();
  if (blob.has_sampler) blob.sampler_rng = shared_sampler_->SaveRngState();
  for (const auto& [id, engine] : engines_) {
    DIGEST_ASSIGN_OR_RETURN(blob.queries[id], engine->Checkpoint());
  }
  return ckpt::EncodeBlob(kNodeCheckpointVersion, blob);
}

Status DigestNode::Restore(std::string_view text) {
  // Decode and validate everything before installing anything.
  NodeBlob blob;
  blob.has_operator = operator_ != nullptr;
  blob.has_sampler = shared_sampler_ != nullptr;
  DIGEST_RETURN_IF_ERROR(
      ckpt::DecodeBlob(text, kNodeCheckpointVersion, &blob));
  if (blob.node.self != self_) {
    return Status::InvalidArgument(
        "node checkpoint: host node does not match");
  }
  if (blob.node.coalesce != (shared_source_ != nullptr)) {
    return Status::InvalidArgument(
        "node checkpoint: coalescing topology does not match");
  }
  // The restored registry must line up with the live one: same ids in
  // the scheduler ledger and the same engines to hand blobs to.
  auto same_keys = [this](const auto& m) {
    return std::equal(m.begin(), m.end(), engines_.begin(), engines_.end(),
                      [](const auto& a, const auto& b) {
                        return a.first == b.first;
                      });
  };
  if (!same_keys(blob.scheduler.costs) || !same_keys(blob.queries)) {
    return Status::InvalidArgument(
        "node checkpoint: query registry does not match (restore "
        "requires the same issued queries)");
  }

  // Every engine blob decodes and checks before anything is installed:
  // a bad blob for any query leaves the whole node as it was.
  for (const auto& [id, engine] : engines_) {
    DIGEST_RETURN_IF_ERROR(engine->CheckCheckpoint(blob.queries.at(id)));
  }

  // Install. Each Restore repeats its engine's check, which passed above.
  rng_.RestoreState(blob.node.rng);
  next_id_ = blob.node.next_id;
  scheduler_.RestoreState(blob.scheduler);
  if (blob.has_operator) operator_->RestoreState(blob.op);
  if (blob.has_sampler) shared_sampler_->RestoreRngState(blob.sampler_rng);
  for (auto& [id, engine] : engines_) {
    DIGEST_RETURN_IF_ERROR(engine->Restore(blob.queries.at(id)));
  }
  ExportRegistry();
  return Status::OK();
}

}  // namespace digest
