// Hedged walks on the worker pool: straggler detection
// (against the threshold frozen at batch start), donor-fork selection,
// the virtual-time race, and hedge-win accounting must all resolve
// identically for any thread count — the walk_hedged trace lines, the
// hedge meter categories, and the per-walk hedge telemetry are compared
// bit-for-bit across num_threads in {1, 2, 4, 8}. Runs under
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

/// Static-membership AR(1) workload, same shape as the other stress
/// batteries.
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

constexpr uint64_t kWorkloadSeed = 777;
constexpr uint64_t kFaultSeed = 4242;
constexpr uint64_t kEngineSeed = 11;

FaultPlanConfig HeavyStallFaults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.10;
  faults.stall_fraction = 0.3;
  faults.stall_every = 6;
  faults.stall_length = 3;
  return faults;
}

struct HedgeRun {
  uint64_t hedge_launches = 0;
  uint64_t hedged_duplicates = 0;
  std::vector<double> reported;
  std::vector<std::string> trace;        ///< All events, normalized.
  std::vector<std::string> hedge_lines;  ///< walk_hedged lines only.
};

/// Drives a heavy-stall hedged session and extracts everything the
/// hedge subsystem observably produces.
Result<HedgeRun> DriveHedged(size_t num_threads) {
  StaticDriftWorkload workload(MakeMesh(8, 8).value(), kWorkloadSeed);
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9}));
  FaultPlanConfig faults = HeavyStallFaults();
  DIGEST_RETURN_IF_ERROR(faults.Validate());
  FaultPlan plan(faults, kFaultSeed);
  obs::MemoryTracer tracer;
  plan.SetTracer(&tracer);

  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.num_threads = num_threads;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.sampling_options.hedge = true;
  options.fault_plan = &plan;
  options.tracer = &tracer;

  HedgeRun out;
  MessageMeter meter;
  Rng rng(kEngineSeed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying);
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, rng.Fork(), &meter, options));
  for (size_t t = 0; t < 30; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    plan.set_now(workload.now());
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult tick,
                            engine->Tick(workload.now()));
    out.reported.push_back(tick.reported_value);
  }
  out.hedge_launches = meter.hedge_launches();
  out.hedged_duplicates = meter.hedged_duplicates();
  for (const obs::TraceEvent& event : tracer.events()) {
    const std::string line = obs::EventToJsonLine(event);
    const std::string normalized = line.substr(line.find(",\"t\":"));
    out.trace.push_back(normalized);
    if (normalized.find("\"event\":\"walk_hedged\"") != std::string::npos) {
      out.hedge_lines.push_back(normalized);
    }
  }
  return out;
}

TEST(HedgeParallelTest, HedgeAccountingIdenticalAcrossThreadCounts) {
  Result<HedgeRun> reference = DriveHedged(1);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  // Heavy stalls really produced stragglers, and some hedges launched.
  EXPECT_GT(reference->hedge_launches, 0u);
  EXPECT_LE(reference->hedged_duplicates, reference->hedge_launches);
  ASSERT_FALSE(reference->hedge_lines.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<HedgeRun> run = DriveHedged(threads);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->hedge_launches, reference->hedge_launches);
    EXPECT_EQ(run->hedged_duplicates, reference->hedged_duplicates);
    EXPECT_EQ(run->reported, reference->reported);
    // The walk_hedged lines carry (agent_index, attempts, threshold):
    // identical sequences mean straggler detection, donor-fork choice,
    // and race resolution were schedule-independent.
    ASSERT_EQ(run->hedge_lines.size(), reference->hedge_lines.size());
    for (size_t i = 0; i < run->hedge_lines.size(); ++i) {
      EXPECT_EQ(run->hedge_lines[i], reference->hedge_lines[i])
          << "hedge event " << i;
    }
    ASSERT_EQ(run->trace.size(), reference->trace.size());
    for (size_t i = 0; i < run->trace.size(); ++i) {
      EXPECT_EQ(run->trace[i], reference->trace[i]) << "event " << i;
    }
  }
}

struct OperatorHedgeRun {
  std::vector<NodeId> samples;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t done_walks = 0;
  uint64_t done_attempts = 0;
  uint64_t done_steps = 0;
  uint64_t hedge_launches = 0;
  uint64_t hedged_duplicates = 0;
};

/// Operator-level variant: drives hedged batches directly and reads the
/// per-walk hedge telemetry plus the completed-walk statistics that
/// feed the (frozen) straggler threshold.
OperatorHedgeRun RunOperatorHedged(size_t num_threads) {
  const Graph graph = MakeMesh(8, 8).value();
  MessageMeter meter;
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.num_threads = num_threads;
  options.hedge = true;
  SamplingOperator op(&graph, UniformWeight(), Rng(2024), &meter, options);
  FaultPlan plan(HeavyStallFaults(), kFaultSeed);
  op.SetFaultPlan(&plan);
  const NodeId origin = *graph.LiveNodes().begin();
  OperatorHedgeRun run;
  // Enough batches for a straggler past 3x the observed mean to occur.
  for (int batch = 0; batch < 30; ++batch) {
    plan.set_now(batch + 1);
    Result<PartialBatch> result = op.SampleNodes(origin, /*n=*/12);
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (!result.ok()) break;
    run.samples.insert(run.samples.end(), result->nodes.begin(),
                       result->nodes.end());
    run.hedges += op.last_telemetry().hedges;
    run.hedge_wins += op.last_telemetry().hedge_wins;
  }
  run.done_walks = op.hedge_done_walks();
  run.done_attempts = op.hedge_done_attempts();
  run.done_steps = op.hedge_done_steps();
  run.hedge_launches = meter.hedge_launches();
  run.hedged_duplicates = meter.hedged_duplicates();
  return run;
}

TEST(HedgeParallelTest, OperatorHedgeTelemetryIdenticalAcrossThreadCounts) {
  const OperatorHedgeRun reference = RunOperatorHedged(1);
  // The straggler threshold really hedged, and launches were metered
  // one-for-one with the telemetry.
  EXPECT_GT(reference.hedges, 0u);
  EXPECT_EQ(reference.hedge_launches, reference.hedges);
  EXPECT_LE(reference.hedge_wins, reference.hedges);
  EXPECT_GT(reference.done_walks, 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const OperatorHedgeRun run = RunOperatorHedged(threads);
    EXPECT_EQ(run.samples, reference.samples);
    EXPECT_EQ(run.hedges, reference.hedges);
    EXPECT_EQ(run.hedge_wins, reference.hedge_wins);
    EXPECT_EQ(run.done_walks, reference.done_walks);
    EXPECT_EQ(run.done_attempts, reference.done_attempts);
    EXPECT_EQ(run.done_steps, reference.done_steps);
    EXPECT_EQ(run.hedge_launches, reference.hedge_launches);
    EXPECT_EQ(run.hedged_duplicates, reference.hedged_duplicates);
  }
}

TEST(HedgeParallelTest, DisabledHedgePaysNothingInParallelMode) {
  // With hedging off no batch may launch or meter any hedge traffic,
  // faults or not, on a 4-thread pool as on one thread.
  const Graph graph = MakeMesh(8, 8).value();
  MessageMeter meter;
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.num_threads = 4;
  SamplingOperator op(&graph, UniformWeight(), Rng(2024), &meter, options);
  FaultPlan plan(HeavyStallFaults(), kFaultSeed);
  op.SetFaultPlan(&plan);
  const NodeId origin = *graph.LiveNodes().begin();
  for (int batch = 0; batch < 4; ++batch) {
    plan.set_now(batch + 1);
    Result<PartialBatch> result = op.SampleNodes(origin, /*n=*/12);
    ASSERT_TRUE(result.ok()) << result.status().message();
  }
  EXPECT_EQ(meter.hedge_launches(), 0u);
  EXPECT_EQ(meter.hedged_duplicates(), 0u);
  EXPECT_EQ(op.last_telemetry().hedges, 0u);
  EXPECT_EQ(op.last_telemetry().hedge_wins, 0u);
}

}  // namespace
}  // namespace digest
