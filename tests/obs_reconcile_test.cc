// Reconciliation of the three observability views over a faulty engine
// run: EngineStats (engine's own counters), MessageMeter (network
// accounting), FaultPlan injection counters, the metrics registry both
// views bridge into, and the structured event trace. Each view is
// produced independently; the test pins down the exact identities and
// inequalities that must hold between them.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "workload/experiment.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Static-membership workload: AR(1) values on a fixed mesh so injected
/// faults are the only source of disruption.
class DriftWorkload : public Workload {
 public:
  explicit DriftWorkload(uint64_t seed)
      : graph_(MakeMesh(7, 7).value()),
        rng_(seed),
        db_(std::make_unique<P2PDatabase>(
            Schema::Create({"load"}).value())) {
    for (NodeId node : graph_.LiveNodes()) {
      (void)db_->AddNode(node);
      LocalStore* store = db_->StoreAt(node).value();
      for (size_t i = 0; i < 6; ++i) {
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

constexpr size_t kTicks = 16;

template <typename Payload>
size_t CountEvents(const std::vector<obs::TraceEvent>& events) {
  size_t n = 0;
  for (const obs::TraceEvent& event : events) {
    n += std::holds_alternative<Payload>(event.payload);
  }
  return n;
}

TEST(ObsReconcileTest, ViewsAgreeOverFaultyRun) {
  DriftWorkload workload(/*seed=*/777);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.message_loss = 0.08;
  config.agent_drop = 0.04;
  ASSERT_TRUE(config.Validate().ok());
  FaultPlan plan(config, /*seed=*/4242);

  obs::MemoryTracer tracer;
  obs::Registry registry;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.fault_plan = &plan;
  options.tracer = &tracer;
  options.registry = &registry;

  Result<RunResult> run =
      RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/11,
                          "reconcile");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EngineStats& stats = run->stats;
  const MessageMeter& meter = run->meter;

  // The run actually exercised faults.
  EXPECT_GT(plan.losses_injected(), 0u);
  EXPECT_GT(plan.drops_injected(), 0u);

  // --- MessageMeter vs EngineStats ---------------------------------
  // Every fresh sample is reported back as one transfer message, but a
  // batch that times out mid-way has already charged transfers for its
  // completed agents, and node-level samples that yield no qualifying
  // tuple also cost a transfer — so transfers dominate fresh samples.
  EXPECT_GE(meter.sample_transfers(), stats.fresh_samples);

  // --- MessageMeter vs FaultPlan -----------------------------------
  // Agents are only dropped by the plan, and every drop is metered as
  // exactly one restart message: the two views must agree exactly.
  EXPECT_EQ(meter.agent_restarts(), plan.drops_injected());
  // Blackholed receivers lose transmissions without consulting
  // LoseMessage, so the meter (which counts both) dominates the plan's
  // own injection counter.
  EXPECT_GE(meter.losses(), plan.losses_injected());

  // --- Trace vs FaultPlan / meter ----------------------------------
  const std::vector<obs::TraceEvent>& events = tracer.events();
  ASSERT_FALSE(events.empty());
  // LoseMessage emits one FaultLossEvent per injected loss.
  EXPECT_EQ(CountEvents<obs::FaultLossEvent>(events),
            plan.losses_injected());
  // The operator emits one AgentRestartEvent per observed drop.
  EXPECT_EQ(CountEvents<obs::AgentRestartEvent>(events),
            plan.drops_injected());
  // One TickEvent per engine tick, stamped with increasing sim time.
  EXPECT_EQ(CountEvents<obs::TickEvent>(events), stats.ticks);
  int64_t prev_time = -1;
  uint64_t prev_seq = 0;
  for (const obs::TraceEvent& event : events) {
    EXPECT_GE(event.sim_time, prev_time);
    if (&event != &events.front()) {
      EXPECT_GT(event.seq, prev_seq);
    }
    prev_time = std::max(prev_time, event.sim_time);
    prev_seq = event.seq;
  }
  // ALL scheduler: one SnapshotEvent per successful occasion.
  EXPECT_EQ(CountEvents<obs::SnapshotEvent>(events), stats.snapshots);

  // --- Registry vs both ad-hoc views -------------------------------
  // RunEngineExperiment bridges the final meter and stats; the bridged
  // counters must equal the originals.
  EXPECT_EQ(registry.CounterValue("net.messages{category=sample_transfer}"),
            meter.sample_transfers());
  EXPECT_EQ(registry.CounterValue("net.messages{category=agent_restart}"),
            meter.agent_restarts());
  EXPECT_EQ(registry.CounterValue("net.messages{category=loss}"),
            meter.losses());
  EXPECT_EQ(registry.CounterValue("net.messages{category=retry}"),
            meter.retries());
  EXPECT_EQ(registry.CounterValue("net.messages_total"), meter.Total());
  EXPECT_EQ(registry.CounterValue("engine.ticks{run=reconcile}"),
            stats.ticks);
  EXPECT_EQ(registry.CounterValue("engine.snapshots{run=reconcile}"),
            stats.snapshots);
  EXPECT_EQ(registry.CounterValue("engine.fresh_samples{run=reconcile}"),
            stats.fresh_samples);
  // The operator-level restart counter sees the same drops the plan
  // injected (every drop happens inside a SampleNodes batch).
  EXPECT_EQ(registry.CounterValue("walk.agent_restarts"),
            plan.drops_injected());
}

TEST(ObsReconcileTest, FaultFreeRunReconcilesExactly) {
  DriftWorkload workload(/*seed=*/5);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  obs::MemoryTracer tracer;
  obs::Registry registry;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.tracer = &tracer;
  options.registry = &registry;

  Result<RunResult> run =
      RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/3,
                          "clean");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // No faults: no fault events, no restarts, no degradation anywhere.
  EXPECT_EQ(CountEvents<obs::FaultLossEvent>(tracer.events()), 0u);
  EXPECT_EQ(CountEvents<obs::AgentRestartEvent>(tracer.events()), 0u);
  EXPECT_EQ(CountEvents<obs::DegradedFallbackEvent>(tracer.events()), 0u);
  EXPECT_EQ(run->meter.agent_restarts(), 0u);
  EXPECT_EQ(registry.CounterValue("walk.timeouts"), 0u);
  // With no timeouts, every fresh tuple sample maps 1:1 onto node
  // samples drawn by walk batches.
  EXPECT_EQ(registry.CounterValue("net.messages{category=sample_transfer}"),
            run->meter.sample_transfers());
  // Walk instrumentation fired on the clean path too.
  EXPECT_GT(registry.CounterValue("walk.batches"), 0u);
  EXPECT_GT(registry.CounterValue("walk.samples"), 0u);

  // --- Metropolis counters vs MessageMeter -------------------------
  // Every proposal sends exactly one weight probe and every accepted
  // move exactly one forwarding hop (the lazy half-steps send nothing),
  // so on the fault-free path the operator's registry counters must
  // equal the network accounting to the message.
  EXPECT_GT(registry.CounterValue("walk.proposals"), 0u);
  EXPECT_EQ(registry.CounterValue("walk.proposals"),
            run->meter.weight_probes());
  EXPECT_EQ(registry.CounterValue("walk.accepted"),
            run->meter.walk_hops());
  EXPECT_EQ(registry.CounterValue("walk.rejected"),
            run->meter.weight_probes() - run->meter.walk_hops());
  // Lazy Metropolis accepts most proposals (the degree correction only
  // rejects into the tail): a grossly low acceptance rate would mean
  // the counters drifted apart.
  EXPECT_GE(2 * registry.CounterValue("walk.accepted"),
            registry.CounterValue("walk.proposals"));
}

}  // namespace
}  // namespace digest
