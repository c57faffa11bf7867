// Recovery battery across thread counts: a session checkpointed
// while running on N threads must restore and replay bit-identically on
// M threads, for any N, M >= 1 — the checkpoint captures per-batch
// substream keys implicitly through the operator RNG stream, so thread
// count is a pure execution detail, not session state. Runs under
// ThreadSanitizer in CI (DIGEST_SANITIZE=thread).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/exporters.h"
#include "obs/tracer.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Static-membership AR(1) workload, same shape as the single-thread
/// recovery battery, so the two suites stress the same session dynamics.
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
  size_t num_threads = 4;
  bool with_faults = false;
  FaultPlanConfig faults;
  bool hedge = false;
  bool allow_partial = false;
  double hop_budget_factor = 8.0;
  size_t ticks = 24;
};

struct DriveResult {
  std::vector<double> reported;
  std::vector<double> ci;
  EngineStats stats;
  MessageMeter meter;
  SessionHealth health = SessionHealth::kHealthy;
  uint64_t outcome_total = 0;
  std::vector<std::string> trace;  ///< Normalized JSONL (seq stripped).
};

bool IsLifecycleEvent(const obs::TraceEvent& event) {
  return std::holds_alternative<obs::CheckpointEvent>(event.payload) ||
         std::holds_alternative<obs::RestoreEvent>(event.payload);
}

std::vector<std::string> NormalizeTrace(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& event : events) {
    if (IsLifecycleEvent(event)) continue;
    const std::string line = obs::EventToJsonLine(event);
    out.push_back(line.substr(line.find(",\"t\":")));
  }
  return out;
}

constexpr uint64_t kWorkloadSeed = 777;
constexpr uint64_t kFaultSeed = 4242;
constexpr uint64_t kEngineSeed = 11;

DigestEngineOptions MakeOptions(const DriveConfig& cfg, size_t threads,
                                FaultPlan* plan, obs::Tracer* tracer) {
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.num_threads = threads;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.sampling_options.retry.hop_budget_factor = cfg.hop_budget_factor;
  options.sampling_options.hedge = cfg.hedge;
  options.estimator_options.allow_partial = cfg.allow_partial;
  options.fault_plan = plan;
  options.tracer = tracer;
  return options;
}

/// Drives a session on cfg.num_threads. With kill_after >= 0, the
/// engine is checkpointed after that tick, destroyed, rebuilt with
/// restore_threads workers, and restored — simulating recovery onto a
/// machine with a different core count.
Result<DriveResult> Drive(const DriveConfig& cfg, int kill_after = -1,
                          size_t restore_threads = 0) {
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
  const DigestEngineOptions options =
      MakeOptions(cfg, cfg.num_threads, plan ? &*plan : nullptr, &tracer);
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
    if (static_cast<int>(t) == kill_after) {
      DIGEST_ASSIGN_OR_RETURN(std::string blob, engine->Checkpoint());
      engine.reset();     // Kill the session process.
      out.meter.Reset();  // The fresh process starts with a zero meter.
      const DigestEngineOptions restore_options = MakeOptions(
          cfg, restore_threads, plan ? &*plan : nullptr, &tracer);
      Rng fresh_rng(kEngineSeed);
      DIGEST_ASSIGN_OR_RETURN(NodeId fresh_querying,
                              workload.graph().RandomLiveNode(fresh_rng));
      DIGEST_ASSIGN_OR_RETURN(
          engine, DigestEngine::Create(&workload.graph(), &workload.db(),
                                       spec, fresh_querying,
                                       fresh_rng.Fork(), &out.meter,
                                       restore_options));
      DIGEST_RETURN_IF_ERROR(engine->Restore(blob));
    }
  }
  out.stats = engine->stats();
  out.health = engine->health();
  for (size_t i = 0; i < kNumSnapshotOutcomes; ++i) {
    out.outcome_total +=
        engine->supervisor().outcome_count(static_cast<SnapshotOutcome>(i));
  }
  out.trace = NormalizeTrace(tracer.events());
  return out;
}

void ExpectBitIdentical(const DriveResult& a, const DriveResult& b) {
  ASSERT_EQ(a.reported.size(), b.reported.size());
  for (size_t i = 0; i < a.reported.size(); ++i) {
    EXPECT_EQ(a.reported[i], b.reported[i]) << "tick " << i;
    EXPECT_EQ(a.ci[i], b.ci[i]) << "tick " << i;
  }
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

TEST(ParallelRecoveryStressTest, RestoreOntoDifferentThreadCountsClean) {
  DriveConfig cfg;  // 4-thread uninterrupted run is the reference.
  cfg.num_threads = 4;
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  for (size_t restore_threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("restore_threads=" + std::to_string(restore_threads));
    Result<DriveResult> recovered =
        Drive(cfg, /*kill_after=*/9, restore_threads);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ExpectBitIdentical(*uninterrupted, *recovered);
  }
}

TEST(ParallelRecoveryStressTest, RestoreOntoDifferentThreadCountsFaulted) {
  DriveConfig cfg;
  cfg.num_threads = 4;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  cfg.hedge = true;
  cfg.allow_partial = true;
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  for (size_t restore_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("restore_threads=" + std::to_string(restore_threads));
    Result<DriveResult> recovered =
        Drive(cfg, /*kill_after=*/11, restore_threads);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ExpectBitIdentical(*uninterrupted, *recovered);
  }
}

TEST(ParallelRecoveryStressTest, KillAtEveryPhaseReplaysOnOtherCounts) {
  // Checkpoint completeness is schedule-independent: kill early (no
  // retained pool yet), after the first occasion, and deep into the
  // run, restoring each time onto a different worker count.
  DriveConfig cfg;
  cfg.num_threads = 2;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  const size_t restore_threads[] = {8, 1, 4};
  const int kill_after[] = {0, 1, 17};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after[i]) +
                 " restore_threads=" +
                 std::to_string(restore_threads[i]));
    Result<DriveResult> recovered =
        Drive(cfg, kill_after[i], restore_threads[i]);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ExpectBitIdentical(*uninterrupted, *recovered);
  }
}

}  // namespace
}  // namespace digest
