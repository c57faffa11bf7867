// Recovery battery for the query-session supervisor stack: checkpoint →
// kill → restore → run must replay the uninterrupted run bit-identically
// (estimates, meter, trace modulo the checkpoint/restore events), hedged
// walks and partial snapshots must activate only under faults, and
// Restore must reject malformed or mismatched blobs without touching the
// engine.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
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

/// Static-membership workload (same shape as fault_stress_test): every
/// node hosts kTuplesPerNode tuples whose attribute follows an AR(1)
/// process, so truth drifts while the overlay stays fixed.
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
};

bool IsLifecycleEvent(const obs::TraceEvent& event) {
  return std::holds_alternative<obs::CheckpointEvent>(event.payload) ||
         std::holds_alternative<obs::RestoreEvent>(event.payload);
}

/// Renders events as JSONL with the per-tracer `seq` stamp stripped and
/// the checkpoint/restore lifecycle events dropped, so an interrupted
/// trace can be compared line-for-line against an uninterrupted one.
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

DigestEngineOptions MakeOptions(const DriveConfig& cfg, FaultPlan* plan,
                                obs::Tracer* tracer) {
  DigestEngineOptions options;
  options.scheduler = cfg.scheduler;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.sampling_options.retry.hop_budget_factor = cfg.hop_budget_factor;
  options.sampling_options.hedge = cfg.hedge;
  options.estimator_options.allow_partial = cfg.allow_partial;
  options.fault_plan = plan;
  options.tracer = tracer;
  return options;
}

/// Drives one engine session over the standard mesh workload. With
/// kill_after >= 0, the engine is checkpointed after recording that tick,
/// destroyed, rebuilt with identical construction, and restored — the
/// simulated process kill the recovery contract is about. The fault plan
/// and workload survive the kill (they are the network, not the session).
Result<DriveResult> Drive(const DriveConfig& cfg, int kill_after = -1) {
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
      MakeOptions(cfg, plan ? &*plan : nullptr, &tracer);
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
    if (static_cast<int>(t) == kill_after) {
      DIGEST_ASSIGN_OR_RETURN(std::string blob, engine->Checkpoint());
      engine.reset();     // Kill the session process.
      out.meter.Reset();  // The fresh process starts with a zero meter...
      Rng fresh_rng(kEngineSeed);  // ...and reconstructs identically.
      DIGEST_ASSIGN_OR_RETURN(NodeId fresh_querying,
                              workload.graph().RandomLiveNode(fresh_rng));
      DIGEST_ASSIGN_OR_RETURN(
          engine, DigestEngine::Create(&workload.graph(), &workload.db(),
                                       spec, fresh_querying,
                                       fresh_rng.Fork(), &out.meter,
                                       options));
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

TEST(RecoveryStressTest, CheckpointRestoreReplaysBitIdenticalNoFaults) {
  DriveConfig cfg;  // PRED + RPT, no faults: the richest session state.
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  Result<DriveResult> recovered = Drive(cfg, /*kill_after=*/9);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  ExpectBitIdentical(*uninterrupted, *recovered);
}

TEST(RecoveryStressTest, CheckpointRestoreReplaysBitIdenticalUnderFaults) {
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  cfg.scheduler = SchedulerKind::kAll;
  cfg.hedge = true;
  cfg.allow_partial = true;
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  Result<DriveResult> recovered = Drive(cfg, /*kill_after=*/11);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  ExpectBitIdentical(*uninterrupted, *recovered);
}

TEST(RecoveryStressTest, KillAtEveryPhaseOfTheSessionStillReplays) {
  // The checkpoint must be complete at any point of the session's
  // lifecycle: before the retained pool exists, right after the first
  // occasion, and deep into the regression recursion.
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = ModerateFaults();
  Result<DriveResult> uninterrupted = Drive(cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  for (int kill_after : {0, 1, 17}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    Result<DriveResult> recovered = Drive(cfg, kill_after);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ExpectBitIdentical(*uninterrupted, *recovered);
  }
}

TEST(RecoveryStressTest, HedgingEnabledWithoutFaultsIsBitIdentical) {
  // Arming hedging and partial snapshots must cost nothing when no
  // fault plan is attached: same draws, same meter, same trace.
  DriveConfig baseline;
  DriveConfig armed;
  armed.hedge = true;
  armed.allow_partial = true;
  Result<DriveResult> a = Drive(baseline);
  Result<DriveResult> b = Drive(armed);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  ExpectBitIdentical(*a, *b);
  EXPECT_EQ(b->meter.hedge_launches(), 0u);
  EXPECT_EQ(b->meter.hedged_duplicates(), 0u);
  EXPECT_EQ(b->stats.partial_snapshots, 0u);
  EXPECT_EQ(b->health, SessionHealth::kHealthy);
  // Fault-free occasions all meet the contract.
  EXPECT_EQ(b->outcome_total, b->stats.snapshots);
}

TEST(RecoveryStressTest, HedgedWalksLaunchUnderHeavyStalls) {
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = HeavyStallFaults();
  cfg.scheduler = SchedulerKind::kAll;
  cfg.hedge = true;
  cfg.ticks = 30;
  Result<DriveResult> run = Drive(cfg);
  ASSERT_TRUE(run.ok()) << run.status().message();
  // Stragglers existed and were raced; every tick still answered.
  EXPECT_EQ(run->reported.size(), cfg.ticks);
  EXPECT_GT(run->meter.hedge_launches(), 0u);
  EXPECT_LE(run->meter.hedged_duplicates(), run->meter.hedge_launches());
  EXPECT_TRUE(TraceContains(*run, "walk_hedged"));
  // The same configuration without hedging pays zero hedge traffic.
  cfg.hedge = false;
  Result<DriveResult> unhedged = Drive(cfg);
  ASSERT_TRUE(unhedged.ok()) << unhedged.status().message();
  EXPECT_EQ(unhedged->meter.hedge_launches(), 0u);
  EXPECT_EQ(unhedged->meter.hedged_duplicates(), 0u);
}

TEST(RecoveryStressTest, PartialSnapshotsFinalizeEarlyOnTightBudget) {
  DriveConfig cfg;
  cfg.with_faults = true;
  cfg.faults = HeavyStallFaults();
  cfg.scheduler = SchedulerKind::kAll;
  cfg.allow_partial = true;
  cfg.hop_budget_factor = 2.0;
  cfg.ticks = 30;
  Result<DriveResult> run = Drive(cfg);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->reported.size(), cfg.ticks);
  // The budget really did cut snapshots short, and the engine answered
  // from the collected samples instead of stalling or failing.
  EXPECT_GT(run->stats.partial_snapshots, 0u);
  EXPECT_GT(run->partial_ticks, 0u);
  EXPECT_TRUE(TraceContains(*run, "partial_snapshot"));
  // Partial outcomes drive the health machine off HEALTHY.
  EXPECT_TRUE(TraceContains(*run, "supervisor_state"));
  // Partial ticks never pretend to the contract interval.
  for (size_t t = 0; t < run->ci.size(); ++t) {
    EXPECT_GE(run->ci[t], 0.0);
  }
  // Every sampling occasion was folded into the supervisor.
  EXPECT_GT(run->outcome_total, 0u);
  EXPECT_GE(run->outcome_total, run->stats.snapshots);
}

TEST(RecoveryStressTest, RestoreRejectsBadBlobsWithoutTouchingTheEngine) {
  StaticDriftWorkload workload(MakeMesh(8, 8).value(), kWorkloadSeed);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;

  MessageMeter meter;
  Rng rng(kEngineSeed);
  const NodeId querying = workload.graph().RandomLiveNode(rng).value();
  workload.ProtectNode(querying);
  std::unique_ptr<DigestEngine> engine =
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, rng.Fork(), &meter, options)
          .value();
  ASSERT_TRUE(workload.Advance().ok());
  ASSERT_TRUE(engine->Tick(workload.now()).ok());
  const std::string blob = engine->Checkpoint().value();

  // Garbage and truncation.
  EXPECT_EQ(engine->Restore("not json").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Restore("{").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Restore("{}").code(), StatusCode::kInvalidArgument);

  // Unknown version.
  std::string tampered = blob;
  const size_t at = tampered.find("digest-checkpoint-v3");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 20, "digest-checkpoint-v9");
  EXPECT_EQ(engine->Restore(tampered).code(),
            StatusCode::kInvalidArgument);

  // Blob from a different sampler construction.
  DigestEngineOptions exact_options = options;
  exact_options.sampler = SamplerKind::kExactCentral;
  MessageMeter exact_meter;
  Rng exact_rng(kEngineSeed);
  std::unique_ptr<DigestEngine> exact_engine =
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, exact_rng.Fork(), &exact_meter,
                           exact_options)
          .value();
  EXPECT_EQ(exact_engine->Restore(blob).code(),
            StatusCode::kInvalidArgument);

  // Every rejection left the engine intact: it keeps ticking, and a
  // valid round-trip still works.
  ASSERT_TRUE(workload.Advance().ok());
  ASSERT_TRUE(engine->Tick(workload.now()).ok());
  EXPECT_TRUE(engine->Restore(engine->Checkpoint().value()).ok());
}

}  // namespace
}  // namespace digest
