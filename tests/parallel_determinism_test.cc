// Acceptance battery for the deterministic parallel walk executor: for
// the same seed and options, estimates, MessageMeter totals, engine
// stats, and exported trace event sequences (lane stamps included) must
// be bit-identical for num_threads in {1, 2, 4, 8} — clean runs,
// fault-injected runs, hedged runs, and budget-cut partial runs alike.
// Also checks that walk-scoped events carry lane = walk index at the
// default thread count. Runs under ThreadSanitizer in CI
// (DIGEST_SANITIZE=thread).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/digest_node.h"
#include "core/engine.h"
#include "db/p2p_database.h"
#include "diag/diag.h"
#include "net/fault_plan.h"
#include "net/message_meter.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/exporters.h"
#include "obs/tracer.h"
#include "sampling/sampling_operator.h"
#include "sampling/weight.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Static-membership workload (same shape as recovery_stress_test):
/// every node hosts kTuplesPerNode tuples whose attribute follows an
/// AR(1) process, so truth drifts while the overlay stays fixed.
class StaticDriftWorkload : public Workload {
 public:
  static constexpr size_t kTuplesPerNode = 8;

  StaticDriftWorkload(Graph graph, uint64_t seed)
      : graph_(std::move(graph)),
        rng_(seed),
        db_(std::make_unique<P2PDatabase>(
            Schema::Create({"load"}).value())) {
    for (NodeId node : graph_.LiveNodes()) {
      (void)db_->AddNode(node);
      LocalStore* store = db_->StoreAt(node).value();
      for (size_t i = 0; i < kTuplesPerNode; ++i) {
        Entry entry;
        entry.node = node;
        entry.value = rng_.NextGaussian(50.0, 10.0);
        entry.id = store->Insert({entry.value});
        entries_.push_back(entry);
      }
    }
  }

  Graph& graph() override { return graph_; }
  const Graph& graph() const override { return graph_; }
  P2PDatabase& db() override { return *db_; }
  const P2PDatabase& db() const override { return *db_; }
  const char* attribute() const override { return "load"; }
  int64_t now() const override { return now_; }

  Status Advance() override {
    ++now_;
    for (Entry& entry : entries_) {
      entry.value =
          50.0 + 0.8 * (entry.value - 50.0) + rng_.NextGaussian(0.0, 2.0);
      DIGEST_ASSIGN_OR_RETURN(LocalStore * store, db_->StoreAt(entry.node));
      DIGEST_RETURN_IF_ERROR(
          store->UpdateAttribute(entry.id, 0, entry.value));
    }
    return Status::OK();
  }

 private:
  struct Entry {
    NodeId node = kInvalidNode;
    LocalTupleId id = 0;
    double value = 0.0;
  };

  Graph graph_;
  Rng rng_;
  std::unique_ptr<P2PDatabase> db_;
  std::vector<Entry> entries_;
  int64_t now_ = 0;
};

struct DriveConfig {
  size_t num_threads = SamplingOperatorOptions().num_threads;
  bool with_faults = false;
  FaultPlanConfig faults;
  SchedulerKind scheduler = SchedulerKind::kPred;
  bool hedge = false;
  bool allow_partial = false;
  double hop_budget_factor = 8.0;
  size_t ticks = 24;
};

struct DriveResult {
  std::vector<double> reported;
  std::vector<double> ci;
  size_t partial_ticks = 0;
  size_t degraded_ticks = 0;
  EngineStats stats;
  MessageMeter meter;
  SessionHealth health = SessionHealth::kHealthy;
  uint64_t outcome_total = 0;
  std::vector<std::string> trace;  ///< Normalized JSONL (seq stripped).
  std::string diag_summary;        ///< SamplerDiag::SummaryJson().
};

/// Renders events as JSONL with the per-tracer `seq` stamp stripped.
/// Everything from the sim-time stamp on is kept — including the lane
/// field the parallel executor adds — so trace comparison covers event
/// kind, payload, ordering, AND lane attribution.
std::vector<std::string> NormalizeTrace(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& event : events) {
    const std::string line = obs::EventToJsonLine(event);
    out.push_back(line.substr(line.find(",\"t\":")));
  }
  return out;
}

constexpr uint64_t kWorkloadSeed = 777;
constexpr uint64_t kFaultSeed = 4242;
constexpr uint64_t kEngineSeed = 11;

/// Drives one engine session over the standard mesh workload with the
/// configured thread count and returns every observable output.
Result<DriveResult> Drive(const DriveConfig& cfg) {
  StaticDriftWorkload workload(MakeMesh(8, 8).value(), kWorkloadSeed);
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9}));
  std::optional<FaultPlan> plan;
  if (cfg.with_faults) {
    DIGEST_RETURN_IF_ERROR(cfg.faults.Validate());
    plan.emplace(cfg.faults, kFaultSeed);
  }
  obs::MemoryTracer tracer;
  // The sampler diagnostics ride every drive: their folded state is part
  // of the bit-identity contract across thread counts, and they consume
  // no RNG, so attaching them never perturbs the run itself.
  diag::SamplerDiag diag;
  DigestEngineOptions options;
  options.scheduler = cfg.scheduler;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.num_threads = cfg.num_threads;
  options.diag = &diag;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.sampling_options.retry.hop_budget_factor = cfg.hop_budget_factor;
  options.sampling_options.hedge = cfg.hedge;
  options.estimator_options.allow_partial = cfg.allow_partial;
  options.fault_plan = plan ? &*plan : nullptr;
  options.tracer = &tracer;
  if (plan) plan->SetTracer(&tracer);

  DriveResult out;
  Rng rng(kEngineSeed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying);
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, rng.Fork(), &out.meter, options));
  for (size_t t = 0; t < cfg.ticks; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    if (plan) plan->set_now(workload.now());
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult tick,
                            engine->Tick(workload.now()));
    out.reported.push_back(tick.reported_value);
    out.ci.push_back(tick.ci_halfwidth);
    if (tick.partial) ++out.partial_ticks;
    if (tick.degraded) ++out.degraded_ticks;
  }
  out.stats = engine->stats();
  out.health = engine->health();
  for (size_t i = 0; i < kNumSnapshotOutcomes; ++i) {
    out.outcome_total +=
        engine->supervisor().outcome_count(static_cast<SnapshotOutcome>(i));
  }
  out.trace = NormalizeTrace(tracer.events());
  out.diag_summary = diag.SummaryJson();
  return out;
}

void ExpectBitIdentical(const DriveResult& a, const DriveResult& b) {
  ASSERT_EQ(a.reported.size(), b.reported.size());
  for (size_t i = 0; i < a.reported.size(); ++i) {
    EXPECT_EQ(a.reported[i], b.reported[i]) << "tick " << i;
    EXPECT_EQ(a.ci[i], b.ci[i]) << "tick " << i;
  }
  EXPECT_EQ(a.partial_ticks, b.partial_ticks);
  EXPECT_EQ(a.degraded_ticks, b.degraded_ticks);
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    const auto c = static_cast<MessageMeter::Category>(i);
    EXPECT_EQ(a.meter.Count(c), b.meter.Count(c)) << "category " << i;
  }
  EXPECT_EQ(a.meter.losses(), b.meter.losses());
  EXPECT_EQ(a.stats.snapshots, b.stats.snapshots);
  EXPECT_EQ(a.stats.total_samples, b.stats.total_samples);
  EXPECT_EQ(a.stats.fresh_samples, b.stats.fresh_samples);
  EXPECT_EQ(a.stats.retained_samples, b.stats.retained_samples);
  EXPECT_EQ(a.stats.degraded_ticks, b.stats.degraded_ticks);
  EXPECT_EQ(a.stats.partial_snapshots, b.stats.partial_snapshots);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.outcome_total, b.outcome_total);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "event " << i;
  }
  // The %.17g diag summary is the strictest scalar digest of the walk
  // schedule: byte-equality means every fold happened in the same order
  // with the same visits on every thread count.
  EXPECT_EQ(a.diag_summary, b.diag_summary);
}

bool TraceContains(const DriveResult& run, const std::string& event_name) {
  const std::string needle = "\"event\":\"" + event_name + "\"";
  for (const std::string& line : run.trace) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

FaultPlanConfig ModerateFaults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.05;
  faults.agent_drop = 0.02;
  faults.stall_fraction = 0.2;
  faults.stall_every = 8;
  faults.stall_length = 2;
  return faults;
}

FaultPlanConfig HeavyStallFaults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.10;
  faults.stall_fraction = 0.3;
  faults.stall_every = 6;
  faults.stall_length = 3;
  return faults;
}

TEST(ParallelDeterminismTest, CleanRunBitIdenticalAcrossThreadCounts) {
  DriveConfig cfg;  // No faults: the pure walk/estimator pipeline.
  cfg.num_threads = 1;
  Result<DriveResult> reference = Drive(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  // The diagnostics actually watched walks (not a vacuous comparison).
  EXPECT_EQ(reference->diag_summary.find("\"batches\":0,"),
            std::string::npos);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Result<DriveResult> run = Drive(cfg);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectBitIdentical(*reference, *run);
  }
}

TEST(ParallelDeterminismTest, FaultedRunBitIdenticalAcrossThreadCounts) {
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  cfg.scheduler = SchedulerKind::kAll;
  cfg.allow_partial = true;
  cfg.num_threads = 1;
  Result<DriveResult> reference = Drive(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  // The faulted path really ran (retries/losses appear in the trace).
  EXPECT_GT(reference->meter.losses(), 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Result<DriveResult> run = Drive(cfg);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectBitIdentical(*reference, *run);
  }
}

TEST(ParallelDeterminismTest,
     HedgedPartialBudgetRunBitIdenticalAcrossThreadCounts) {
  // The hardest configuration: heavy stalls, hedged walks racing in
  // virtual time, partial snapshots on a tight hop budget. Every
  // branch of the parallel merge (boundary cut, self-cap, hedge win,
  // agent restart) must resolve identically on any schedule.
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = HeavyStallFaults();
  cfg.scheduler = SchedulerKind::kAll;
  cfg.hedge = true;
  cfg.allow_partial = true;
  cfg.hop_budget_factor = 2.0;
  cfg.ticks = 30;
  cfg.num_threads = 1;
  Result<DriveResult> reference = Drive(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  // The stress configuration exercised the interesting paths.
  EXPECT_GT(reference->stats.partial_snapshots, 0u);
  EXPECT_TRUE(TraceContains(*reference, "hop_budget_exhausted"));
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Result<DriveResult> run = Drive(cfg);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectBitIdentical(*reference, *run);
  }
}

// Value of the unsigned integer field `key` in a normalized JSONL line.
uint64_t JsonField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing: " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size() + 3));
}

TEST(ParallelDeterminismTest, DefaultTraceCarriesWalkLanesLikeTwoThreads) {
  // Every batch runs the walk-index path: at the default thread count,
  // walk-scoped events already carry lane = walk index, and the trace
  // is byte-identical to a 2-thread run.
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  Result<DriveResult> reference = Drive(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  size_t losses = 0;
  size_t restarts = 0;
  for (const std::string& line : reference->trace) {
    const bool loss = line.find("\"event\":\"fault_loss\"") !=
                      std::string::npos;
    const bool restart = line.find("\"event\":\"agent_restart\"") !=
                         std::string::npos;
    if (!loss && !restart) continue;
    EXPECT_NE(line.find("\"lane\":"), std::string::npos) << line;
    losses += loss ? 1 : 0;
    if (restart) {
      ++restarts;
      EXPECT_EQ(JsonField(line, "lane"), JsonField(line, "agent_index"))
          << line;
    }
  }
  EXPECT_GT(losses, 0u);
  EXPECT_GT(restarts, 0u);
  cfg.num_threads = 2;
  Result<DriveResult> two = Drive(cfg);
  ASSERT_TRUE(two.ok()) << two.status().message();
  EXPECT_EQ(reference->trace, two->trace);
}

// ---------------------------------------------------------------------
// Operator-level determinism: raw SampleNodes outputs, meter
// accounting, telemetry, and saved state must match for any thread
// count, without the engine in the way.
// ---------------------------------------------------------------------

struct OperatorRun {
  std::vector<NodeId> samples;
  std::vector<bool> timed_out;
  MessageMeter meter;
  WalkTelemetry telemetry;
  SamplingOperator::State state;
  bool coins = false;  // The last batch stepped on the coin table.
};

// Six batches of `walks` walks over an 8 x 8 mesh. A SamplerDiag
// (`with_diag`) consumes no randomness but makes every batch hooked:
// one slot per walk, the acceptance computed, never the lockstep kernel.
OperatorRun RunOperatorBatches(size_t num_threads, bool with_faults,
                               size_t walks = 12, bool with_diag = false) {
  const Graph graph = MakeMesh(8, 8).value();
  MessageMeter meter;
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.num_threads = num_threads;
  options.retry.hop_budget_factor = with_faults ? 3.0 : 8.0;
  SamplingOperator op(&graph, UniformWeight(), Rng(2024), &meter, options);
  std::optional<FaultPlan> plan;
  if (with_faults) {
    plan.emplace(ModerateFaults(), kFaultSeed);
    op.SetFaultPlan(&*plan);
  }
  diag::SamplerDiag diag;
  if (with_diag) op.SetInstruments({.diag = &diag});
  const NodeId origin = *graph.LiveNodes().begin();
  OperatorRun run;
  for (int batch = 0; batch < 6; ++batch) {
    if (plan) plan->set_now(batch + 1);
    Result<PartialBatch> result = op.SampleNodes(origin, walks);
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (!result.ok()) break;
    run.samples.insert(run.samples.end(), result->nodes.begin(),
                       result->nodes.end());
    run.timed_out.push_back(result->timed_out);
  }
  run.meter = meter;
  run.telemetry = op.last_telemetry();
  run.state = op.SaveState();
  run.coins = op.overlay().HasCoins();
  return run;
}

void ExpectOperatorRunsEqual(const OperatorRun& a, const OperatorRun& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.timed_out, b.timed_out);
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    const auto c = static_cast<MessageMeter::Category>(i);
    EXPECT_EQ(a.meter.Count(c), b.meter.Count(c)) << "category " << i;
  }
  EXPECT_EQ(a.meter.losses(), b.meter.losses());
  EXPECT_EQ(a.telemetry.attempts, b.telemetry.attempts);
  EXPECT_EQ(a.telemetry.retries, b.telemetry.retries);
  EXPECT_EQ(a.telemetry.losses, b.telemetry.losses);
  EXPECT_EQ(a.telemetry.drops, b.telemetry.drops);
  EXPECT_EQ(a.telemetry.abandoned, b.telemetry.abandoned);
  EXPECT_EQ(a.telemetry.stale_probes, b.telemetry.stale_probes);
  EXPECT_EQ(a.telemetry.stalled_steps, b.telemetry.stalled_steps);
  EXPECT_EQ(a.telemetry.proposals, b.telemetry.proposals);
  EXPECT_EQ(a.telemetry.accepted, b.telemetry.accepted);
  EXPECT_EQ(a.telemetry.backoff_units, b.telemetry.backoff_units);
  EXPECT_EQ(a.telemetry.hedges, b.telemetry.hedges);
  EXPECT_EQ(a.telemetry.hedge_wins, b.telemetry.hedge_wins);
  EXPECT_EQ(a.state.agent_positions, b.state.agent_positions);
  EXPECT_EQ(a.state.next_agent, b.state.next_agent);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.state.rng.words[i], b.state.rng.words[i]) << "word " << i;
  }
  EXPECT_EQ(a.state.done_walks, b.state.done_walks);
  EXPECT_EQ(a.state.done_attempts, b.state.done_attempts);
  EXPECT_EQ(a.state.done_steps, b.state.done_steps);
}

TEST(ParallelDeterminismTest, OperatorBatchesBitIdenticalClean) {
  const OperatorRun reference = RunOperatorBatches(1, /*with_faults=*/false);
  EXPECT_EQ(reference.samples.size(), 6u * 12u);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectOperatorRunsEqual(reference,
                            RunOperatorBatches(threads, false));
  }
}

TEST(ParallelDeterminismTest, CleanChunksMatchTheHookedSlotsAtAnyThreadCount) {
  // 61 walks plan 244 warm steps, at least one per CSR entry of the mesh
  // (224), so every batch after the first steps on the coin table: three
  // 16-walk chunks and one of 13, which fills one lockstep group and
  // leaves 5 walks to the scalar loop. The hooked run is the reference.
  constexpr size_t kWalks = 61;
  const OperatorRun reference =
      RunOperatorBatches(1, /*with_faults=*/false, kWalks, /*with_diag=*/true);
  EXPECT_FALSE(reference.coins);
  EXPECT_EQ(reference.samples.size(), 6u * kWalks);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const OperatorRun clean = RunOperatorBatches(threads, false, kWalks);
    EXPECT_TRUE(clean.coins);
    ExpectOperatorRunsEqual(reference, clean);
  }
}

TEST(ParallelDeterminismTest, OperatorBatchesBitIdenticalUnderFaults) {
  const OperatorRun reference = RunOperatorBatches(1, /*with_faults=*/true);
  // Faults really fired (otherwise this test proves nothing).
  EXPECT_GT(reference.meter.losses() + reference.telemetry.stalled_steps,
            0u);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectOperatorRunsEqual(reference,
                            RunOperatorBatches(threads, true));
  }
}

// ---------------------------------------------------------------------
// Multi-query node: the coalescing scheduler must preserve the same
// bit-identity contract — N concurrent queries over one shared walk
// batch produce identical results, meters, and traces at any thread
// count, including across a mid-run whole-node checkpoint/restore.

struct NodeDriveResult {
  std::vector<double> reported;  ///< Per tick, per query (id order).
  std::vector<double> ci;
  MessageMeter meter;
  uint64_t coalesced_ticks = 0;
  std::vector<uint64_t> query_messages;  ///< Attribution, by id order.
  std::vector<std::string> trace;
};

/// Drives a 3-query node for `ticks`; when `restore_at` > 0, the run is
/// interrupted there — the node checkpoints, a freshly built node (same
/// seed and issue history) restores the blob, and the tail continues on
/// the restored node.
Result<NodeDriveResult> DriveNode(size_t num_threads, size_t ticks,
                                  size_t restore_at) {
  StaticDriftWorkload workload(MakeMesh(8, 8).value(), kWorkloadSeed);
  obs::MemoryTracer tracer;
  NodeDriveResult out;

  auto build = [&]() -> Result<std::unique_ptr<DigestNode>> {
    DigestEngineOptions options;
    options.scheduler = SchedulerKind::kAll;
    options.estimator = EstimatorKind::kRepeated;
    options.sampling_options.num_threads = num_threads;
    options.sampling_options.walk_length = 16;
    options.sampling_options.reset_length = 4;
    options.tracer = &tracer;
    Rng rng(kEngineSeed);
    DIGEST_ASSIGN_OR_RETURN(NodeId self,
                            workload.graph().RandomLiveNode(rng));
    workload.ProtectNode(self);
    DIGEST_ASSIGN_OR_RETURN(
        std::unique_ptr<DigestNode> node,
        DigestNode::Create(&workload.graph(), &workload.db(), self,
                           rng.Fork(), &out.meter, options));
    for (double eps : {2.0, 4.0, 6.0}) {
      DIGEST_ASSIGN_OR_RETURN(
          const ContinuousQuerySpec spec,
          ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                      PrecisionSpec{1.0, eps, 0.9}));
      DIGEST_RETURN_IF_ERROR(node->IssueQuery(spec).status());
    }
    return node;
  };

  DIGEST_ASSIGN_OR_RETURN(std::unique_ptr<DigestNode> node, build());
  for (size_t t = 0; t < ticks; ++t) {
    if (restore_at > 0 && t == restore_at) {
      DIGEST_ASSIGN_OR_RETURN(const std::string blob, node->Checkpoint());
      // The restored node's meter is `out.meter` too: the engine blobs
      // re-install the same counters the live meter already holds.
      DIGEST_ASSIGN_OR_RETURN(node, build());
      DIGEST_RETURN_IF_ERROR(node->Restore(blob));
    }
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    DIGEST_ASSIGN_OR_RETURN(auto results, node->Tick(workload.now()));
    for (const auto& [id, tick] : results) {
      out.reported.push_back(tick.reported_value);
      out.ci.push_back(tick.ci_halfwidth);
    }
  }
  out.coalesced_ticks = node->coalesced_ticks();
  for (QueryId id : {QueryId{1}, QueryId{2}, QueryId{3}}) {
    DIGEST_ASSIGN_OR_RETURN(const QueryCost cost, node->query_cost(id));
    out.query_messages.push_back(cost.messages);
  }
  out.trace = NormalizeTrace(tracer.events());
  return out;
}

void ExpectNodeRunsEqual(const NodeDriveResult& a,
                         const NodeDriveResult& b) {
  ASSERT_EQ(a.reported.size(), b.reported.size());
  for (size_t i = 0; i < a.reported.size(); ++i) {
    EXPECT_EQ(a.reported[i], b.reported[i]) << "entry " << i;
    EXPECT_EQ(a.ci[i], b.ci[i]) << "entry " << i;
  }
  for (size_t i = 0; i < MessageMeter::kNumCategories; ++i) {
    const auto c = static_cast<MessageMeter::Category>(i);
    EXPECT_EQ(a.meter.Count(c), b.meter.Count(c)) << "category " << i;
  }
  EXPECT_EQ(a.coalesced_ticks, b.coalesced_ticks);
  EXPECT_EQ(a.query_messages, b.query_messages);
}

TEST(ParallelDeterminismTest, MultiQueryNodeBitIdenticalAcrossThreads) {
  Result<NodeDriveResult> reference = DriveNode(1, 12, /*restore_at=*/0);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  EXPECT_GT(reference->coalesced_ticks, 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<NodeDriveResult> run = DriveNode(threads, 12, 0);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectNodeRunsEqual(*reference, *run);
    // Trace lanes (QueryIds and walk indices alike) are part of the
    // contract — byte-compare the normalized JSONL too.
    ASSERT_EQ(reference->trace.size(), run->trace.size());
    for (size_t i = 0; i < reference->trace.size(); ++i) {
      EXPECT_EQ(reference->trace[i], run->trace[i]) << "event " << i;
    }
  }
}

TEST(ParallelDeterminismTest,
     MultiQueryNodeCheckpointRestoreBitIdenticalAcrossThreads) {
  // The uninterrupted single-threaded run is the reference; every other
  // run checkpoints mid-way, restores into a fresh node (at a different
  // thread count), and must land on the same bits. Traces are not
  // compared here: the interrupted runs interleave checkpoint/restore
  // events and re-issue run_begin markers.
  Result<NodeDriveResult> reference = DriveNode(1, 12, /*restore_at=*/0);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<NodeDriveResult> run = DriveNode(threads, 12, /*restore_at=*/6);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectNodeRunsEqual(*reference, *run);
  }
}

}  // namespace
}  // namespace digest
