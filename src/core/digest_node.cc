#include "core/digest_node.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "core/checkpoint_util.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace {

constexpr char kNodeCheckpointVersion[] = "digest-node-checkpoint-v1";

/// Decimal QueryId map key, strictly ("12", not "12x" or "").
Result<QueryId> ParseQueryKey(const std::string& key) {
  if (key.empty()) {
    return Status::InvalidArgument("node checkpoint: empty query id");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(key.c_str(), &end, 10);
  if (end != key.c_str() + key.size() || errno == ERANGE) {
    return Status::InvalidArgument("node checkpoint: bad query id '" + key +
                                   "'");
  }
  return static_cast<QueryId>(id);
}

}  // namespace

Result<std::unique_ptr<DigestNode>> DigestNode::Create(
    const Graph* graph, const P2PDatabase* db, NodeId self, Rng rng,
    MessageMeter* meter, DigestEngineOptions default_options,
    DigestNodeOptions node_options) {
  if (!graph->HasNode(self)) {
    return Status::InvalidArgument("node is not in the network");
  }
  if (node_options.max_queries == 0) {
    return Status::InvalidArgument("max_queries must be >= 1");
  }
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
  if (engines_.size() >= node_options_.max_queries) {
    return Status::FailedPrecondition(
        "node at max_queries capacity (" +
        std::to_string(node_options_.max_queries) + ")");
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
  if (shared_source_ != nullptr) {
    options.sample_source = shared_source_.get();
  }
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::CreateWithOperator(graph_, db_, std::move(spec), self_,
                                       rng_.Fork(), meter_,
                                       operator_.get(), options));
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
  using namespace ckpt;  // NOLINT: one codec family, one encoding.
  std::string out;
  out.reserve(8192);
  out += "{\"version\":\"";
  out += kNodeCheckpointVersion;
  out += "\",\"node\":{\"self\":";
  AppendU64(&out, self_);
  out += ",\"next_id\":";
  AppendU64(&out, next_id_);
  out += ",\"coalesce\":";
  AppendBool(&out, shared_source_ != nullptr);
  out += ",\"rng\":";
  AppendRng(&out, rng_.SaveState());
  out += "}";

  out += ",\"scheduler\":{\"coalesced_ticks\":";
  AppendU64(&out, scheduler_.coalesced_ticks());
  out += ",\"costs\":{";
  bool first = true;
  for (const auto& [id, cost] : scheduler_.costs()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(id);
    out += "\":{\"epsilon\":";
    AppendDouble(&out, cost.epsilon);
    out += ",\"ticks\":";
    AppendU64(&out, cost.ticks);
    out += ",\"snapshots\":";
    AppendU64(&out, cost.snapshots);
    out += ",\"coalesced\":";
    AppendU64(&out, cost.coalesced);
    out += ",\"messages\":";
    AppendU64(&out, cost.messages);
    out += '}';
  }
  out += "}}";

  if (operator_ != nullptr) {
    out += ",\"operator\":";
    AppendOperatorState(&out, operator_->SaveState());
  }
  if (shared_sampler_ != nullptr) {
    out += ",\"sampler_rng\":";
    AppendRng(&out, shared_sampler_->SaveRngState());
  }

  // Every engine's own v3 blob rides as an escaped JSON string — the
  // engine codec owns its format; the node embeds, never re-encodes.
  out += ",\"queries\":{";
  first = true;
  for (const auto& [id, engine] : engines_) {
    DIGEST_ASSIGN_OR_RETURN(std::string blob, engine->Checkpoint());
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(id);
    out += "\":\"";
    AppendJsonEscaped(&out, blob);
    out += '"';
  }
  out += "}}";
  return out;
}

Status DigestNode::Restore(std::string_view blob) {
  using namespace ckpt;  // NOLINT
  DIGEST_ASSIGN_OR_RETURN(json::Value root, json::Parse(blob));
  DIGEST_ASSIGN_OR_RETURN(std::string version, root.GetString("version"));
  if (version != kNodeCheckpointVersion) {
    return Status::InvalidArgument("node checkpoint: unsupported version '" +
                                   version + "'");
  }

  // Parse and validate everything before installing anything.
  DIGEST_ASSIGN_OR_RETURN(const json::Value* node, root.GetObject("node"));
  DIGEST_ASSIGN_OR_RETURN(uint64_t self, node->GetUInt64("self"));
  if (self != self_) {
    return Status::InvalidArgument(
        "node checkpoint: host node does not match");
  }
  DIGEST_ASSIGN_OR_RETURN(uint64_t next_id, node->GetUInt64("next_id"));
  DIGEST_ASSIGN_OR_RETURN(bool coalesce, node->GetBool("coalesce"));
  if (coalesce != (shared_source_ != nullptr)) {
    return Status::InvalidArgument(
        "node checkpoint: coalescing topology does not match");
  }
  DIGEST_ASSIGN_OR_RETURN(const json::Value* node_rng_v,
                          node->GetObject("rng"));
  DIGEST_ASSIGN_OR_RETURN(Rng::State node_rng, ParseRng(*node_rng_v));

  DIGEST_ASSIGN_OR_RETURN(const json::Value* sched,
                          root.GetObject("scheduler"));
  DIGEST_ASSIGN_OR_RETURN(uint64_t coalesced_ticks,
                          sched->GetUInt64("coalesced_ticks"));
  DIGEST_ASSIGN_OR_RETURN(const json::Value* costs_v,
                          sched->GetObject("costs"));
  std::map<QueryId, QueryCost> costs;
  for (const auto& [key, value] : costs_v->members()) {
    QueryCost cost;
    DIGEST_ASSIGN_OR_RETURN(cost.epsilon, value.GetDouble("epsilon"));
    DIGEST_ASSIGN_OR_RETURN(cost.ticks, value.GetUInt64("ticks"));
    DIGEST_ASSIGN_OR_RETURN(cost.snapshots, value.GetUInt64("snapshots"));
    DIGEST_ASSIGN_OR_RETURN(cost.coalesced, value.GetUInt64("coalesced"));
    DIGEST_ASSIGN_OR_RETURN(cost.messages, value.GetUInt64("messages"));
    DIGEST_ASSIGN_OR_RETURN(const QueryId id, ParseQueryKey(key));
    costs[id] = cost;
  }

  const bool have_operator = root.Find("operator") != nullptr;
  if (have_operator != (operator_ != nullptr)) {
    return Status::InvalidArgument(
        "node checkpoint: operator topology does not match");
  }
  SamplingOperator::State op_state;
  if (have_operator) {
    DIGEST_ASSIGN_OR_RETURN(const json::Value* op,
                            root.GetObject("operator"));
    DIGEST_ASSIGN_OR_RETURN(op_state, ParseOperatorState(*op));
  }
  const bool have_sampler_rng = root.Find("sampler_rng") != nullptr;
  if (have_sampler_rng != (shared_sampler_ != nullptr)) {
    return Status::InvalidArgument(
        "node checkpoint: shared-sampler topology does not match");
  }
  Rng::State sampler_rng;
  if (have_sampler_rng) {
    DIGEST_ASSIGN_OR_RETURN(const json::Value* v,
                            root.GetObject("sampler_rng"));
    DIGEST_ASSIGN_OR_RETURN(sampler_rng, ParseRng(*v));
  }

  DIGEST_ASSIGN_OR_RETURN(const json::Value* queries_v,
                          root.GetObject("queries"));
  std::map<QueryId, std::string> engine_blobs;
  for (const auto& [key, value] : queries_v->members()) {
    if (!value.is_string()) {
      return Status::InvalidArgument(
          "node checkpoint: query blob must be a string");
    }
    DIGEST_ASSIGN_OR_RETURN(const QueryId id, ParseQueryKey(key));
    engine_blobs[id] = value.string_value();
  }
  // The restored registry must line up with the live one: same ids in
  // the scheduler ledger and the same engines to hand blobs to.
  auto same_keys = [this](const auto& m) {
    if (m.size() != engines_.size()) return false;
    auto it = engines_.begin();
    for (const auto& [id, unused] : m) {
      (void)unused;
      if (it == engines_.end() || it->first != id) return false;
      ++it;
    }
    return true;
  };
  if (!same_keys(costs) || !same_keys(engine_blobs)) {
    return Status::InvalidArgument(
        "node checkpoint: query registry does not match (restore "
        "requires the same issued queries)");
  }

  // Install. Engine::Restore is itself parse-all-then-install, so a
  // blob of mismatched construction fails before touching that engine.
  rng_.RestoreState(node_rng);
  next_id_ = static_cast<QueryId>(next_id);
  scheduler_.set_coalesced_ticks(coalesced_ticks);
  for (const auto& [id, cost] : costs) scheduler_.RestoreCost(id, cost);
  if (operator_ != nullptr) operator_->RestoreState(op_state);
  if (shared_sampler_ != nullptr) {
    shared_sampler_->RestoreRngState(sampler_rng);
  }
  for (auto& [id, engine] : engines_) {
    DIGEST_RETURN_IF_ERROR(engine->Restore(engine_blobs.at(id)));
  }
  ExportRegistry();
  return Status::OK();
}

}  // namespace digest
