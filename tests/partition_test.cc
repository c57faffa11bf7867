// Acceptance battery for the peer-health layer under correlated
// partition/heal episodes: quarantine-aware routing must keep the
// un-widened (ε, p) coverage at or above the binomial floor while an
// ablated run (breakers disabled, everything else identical) breaches
// it; the health state must be bit-identical across worker-thread
// counts and across a mid-partition checkpoint/restore. Runs under
// ASan/UBSan and TSan in CI (the partition battery).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint_codec.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Static-membership workload whose truth TRENDS: every tuple follows a
/// random walk with a common positive drift, so the exact aggregate
/// moves steadily and a session that answers from a stale held value
/// accumulates error tick over tick. That is exactly the failure mode
/// partitions induce — the ablated run keeps timing out and holding,
/// the quarantine-aware run routes around the dead component and keeps
/// sampling fresh.
class TrendingWorkload : public Workload {
 public:
  static constexpr size_t kTuplesPerNode = 8;
  static constexpr double kDrift = 1.5;  ///< Truth moves this much per tick.

  TrendingWorkload(Graph graph, uint64_t seed)
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
        entry.value = rng_.NextGaussian(50.0, 6.0);
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
      entry.value += kDrift + rng_.NextGaussian(0.0, 0.5);
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

constexpr uint64_t kWorkloadSeed = 909;
constexpr uint64_t kFaultSeed = 2026;
constexpr uint64_t kEngineSeed = 5;
constexpr size_t kTicks = 48;

/// Seeded partition/heal schedule: every 16 ticks a fresh episode
/// splits the overlay in two (a different hash seam each time) for 8
/// ticks, on top of mild heterogeneous, asymmetric background loss.
FaultPlanConfig PartitionFaults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.02;
  faults.edge_spread = 0.5;
  faults.loss_asymmetry = 0.5;
  faults.partition_every = 16;
  faults.partition_length = 8;
  faults.partition_components = 2;
  return faults;
}

struct DriveConfig {
  bool breakers = true;    ///< false = ablated control.
  size_t num_threads = 1;
  int kill_after = -1;     ///< Checkpoint/kill/restore after this tick.
  size_t ticks = kTicks;
};

struct DriveResult {
  std::vector<double> reported;
  std::vector<double> truth;
  std::vector<double> ci;
  size_t degraded_ticks = 0;
  double coverage = 0.0;  ///< Un-widened |err| <= eps + delta fraction.
  SessionHealth final_health = SessionHealth::kHealthy;
  uint64_t opens = 0;
  uint64_t reopens = 0;
  uint64_t closes = 0;
  double flap_rate = 0.0;
  std::string health_summary;  ///< PeerHealthMonitor::SummaryJson().
  std::string health_state;    ///< ckpt::Encode of SaveState().
};

Result<DriveResult> Drive(const DriveConfig& cfg) {
  TrendingWorkload workload(MakeMesh(11, 11).value(), kWorkloadSeed);
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{2.0, 1.5, 0.9}));
  FaultPlan plan(PartitionFaults(), kFaultSeed);

  PeerHealthMonitor monitor(cfg.breakers);

  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.num_threads = cfg.num_threads;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  // A tight hop budget and no partial finalization make budget burn
  // the failure mode the breakers fight: a walk that keeps proposing
  // cross-seam neighbors pays retry + backoff for every abandoned
  // transmission and blows the 2x budget, failing the occasion, and
  // the INDEP session then holds its previous value while the truth
  // trends away. Quarantine-aware routing stops proposing the dead
  // half and stays comfortably inside the same budget.
  options.sampling_options.retry.hop_budget_factor = 2.0;
  options.estimator_options.allow_partial = false;
  options.fault_plan = &plan;
  options.health = &monitor;

  // The session starts on a healthy overlay: the 16/8 partition
  // schedule's first window covers ticks 0..7, and a session that
  // cannot even bootstrap has no previous result to hold — a different
  // failure mode than the steady-state one under test. Advancing the
  // workload past the first window puts the engine's first occasions
  // on healed ground (ticks 9..15) and the later windows (16..23,
  // 32..39, 48..55) mid-session.
  for (int warm = 0; warm < 8; ++warm) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
  }

  DriveResult out;
  MessageMeter meter;
  Rng rng(kEngineSeed);
  DIGEST_ASSIGN_OR_RETURN(NodeId querying,
                          workload.graph().RandomLiveNode(rng));
  workload.ProtectNode(querying);
  DIGEST_ASSIGN_OR_RETURN(
      std::unique_ptr<DigestEngine> engine,
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, rng.Fork(), &meter, options));
  for (size_t t = 0; t < cfg.ticks; ++t) {
    DIGEST_RETURN_IF_ERROR(workload.Advance());
    plan.set_now(workload.now());
    DIGEST_ASSIGN_OR_RETURN(const double oracle,
                            workload.db().ExactAggregate(spec.query));
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult tick,
                            engine->Tick(workload.now()));
    out.reported.push_back(tick.reported_value);
    out.truth.push_back(oracle);
    out.ci.push_back(tick.ci_halfwidth);
    if (tick.degraded) ++out.degraded_ticks;
    if (static_cast<int>(t) == cfg.kill_after) {
      // Kill mid-run: checkpoint, drop the engine, wipe the monitor (a
      // fresh process starts with a blank one), reconstruct, restore.
      DIGEST_ASSIGN_OR_RETURN(std::string blob, engine->Checkpoint());
      engine.reset();
      monitor.Reset();
      meter.Reset();
      Rng fresh_rng(kEngineSeed);
      DIGEST_ASSIGN_OR_RETURN(NodeId fresh_querying,
                              workload.graph().RandomLiveNode(fresh_rng));
      DIGEST_ASSIGN_OR_RETURN(
          engine, DigestEngine::Create(&workload.graph(), &workload.db(),
                                       spec, fresh_querying,
                                       fresh_rng.Fork(), &meter, options));
      DIGEST_RETURN_IF_ERROR(engine->Restore(blob));
    }
  }
  DIGEST_ASSIGN_OR_RETURN(
      const PrecisionReport report,
      EvaluatePrecision(out.reported, out.truth, spec.precision));
  out.coverage = report.within_tolerance_fraction;
  out.final_health = engine->health();
  out.opens = monitor.opens();
  out.reopens = monitor.reopens();
  out.closes = monitor.closes();
  out.flap_rate = monitor.FlapRate();
  out.health_summary = monitor.SummaryJson();
  ckpt::Encode(&out.health_state, monitor.SaveState());
  return out;
}

/// Binomial floor for the (ε, p) contract over n occasions — the same
/// two-sigma allowance the precision auditor grants
/// (audit::CoverageFloor): p minus two standard errors of a p-coin
/// estimate from n flips.
double CoverageFloor(double p, size_t n) {
  return p - 2.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

TEST(PartitionTest, QuarantineAwareRoutingHoldsCoverageAblationBreaches) {
  DriveConfig aware_cfg;
  Result<DriveResult> aware = Drive(aware_cfg);
  ASSERT_TRUE(aware.ok()) << aware.status().message();

  DriveConfig ablated_cfg;
  ablated_cfg.breakers = false;
  Result<DriveResult> ablated = Drive(ablated_cfg);
  ASSERT_TRUE(ablated.ok()) << ablated.status().message();

  const double floor = CoverageFloor(0.9, kTicks);

  // The scenario is non-trivial on both sides: the aware run actually
  // opened breakers, the ablated run never did.
  EXPECT_GT(aware->opens, 0u);
  EXPECT_EQ(ablated->opens, 0u);

  // The robustness headline: same faults, same seeds, same engine —
  // quarantine-aware routing meets the binomial coverage floor, the
  // ablation breaches it.
  EXPECT_GE(aware->coverage, floor)
      << "aware coverage " << aware->coverage << " vs floor " << floor
      << " (degraded " << aware->degraded_ticks << "/" << kTicks << ")";
  EXPECT_LT(ablated->coverage, floor)
      << "ablated coverage " << ablated->coverage << " vs floor " << floor
      << " (degraded " << ablated->degraded_ticks << "/" << kTicks << ")";

  // Mechanism check, not just outcome: routing around the dead
  // component means fewer ticks spent degraded-holding a stale value.
  EXPECT_LT(aware->degraded_ticks, ablated->degraded_ticks);
  // Breakers hold rather than bounce (the digest_report.py health gate,
  // at test scale).
  EXPECT_LE(aware->flap_rate, 0.5)
      << "opens=" << aware->opens << " reopens=" << aware->reopens;
}

TEST(PartitionTest, HealthStateBitIdenticalAcrossThreadCounts) {
  DriveConfig cfg;
  cfg.num_threads = 1;
  Result<DriveResult> reference = Drive(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_GT(reference->opens, 0u)
      << "no breaker ever opened: the comparison would be vacuous";

  for (size_t threads : {4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Result<DriveResult> run = Drive(cfg);
    ASSERT_TRUE(run.ok()) << run.status().message();
    // Byte-identical health state: same peers, same breaker ladder
    // positions, same counters — the walk-index-ordered fold leaves no
    // room for scheduling to leak in.
    EXPECT_EQ(reference->health_state, run->health_state);
    EXPECT_EQ(reference->health_summary, run->health_summary);
    // And the steered estimates agree exactly, tick for tick.
    ASSERT_EQ(reference->reported.size(), run->reported.size());
    for (size_t i = 0; i < reference->reported.size(); ++i) {
      EXPECT_EQ(reference->reported[i], run->reported[i]) << "tick " << i;
      EXPECT_EQ(reference->ci[i], run->ci[i]) << "tick " << i;
    }
    EXPECT_EQ(reference->degraded_ticks, run->degraded_ticks);
    EXPECT_EQ(reference->final_health, run->final_health);
  }
}

TEST(PartitionTest, CheckpointRestoreMidPartitionIsBitIdentical) {
  // Loop index 26 is workload tick 35 — inside the 32..39 partition
  // window of the 16/8 schedule: breakers are open, trial windows are
  // pending, and the quarantine picture is non-trivial at kill time.
  DriveConfig uninterrupted_cfg;
  Result<DriveResult> uninterrupted = Drive(uninterrupted_cfg);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();

  DriveConfig restored_cfg;
  restored_cfg.kill_after = 26;
  Result<DriveResult> restored = Drive(restored_cfg);
  ASSERT_TRUE(restored.ok()) << restored.status().message();

  ASSERT_GT(uninterrupted->opens, 0u);

  // The restored session continues exactly where the killed one left
  // off: same reported series, same degraded ticks, and a byte-
  // identical final health state — quarantine survived the restart.
  ASSERT_EQ(uninterrupted->reported.size(), restored->reported.size());
  for (size_t i = 0; i < uninterrupted->reported.size(); ++i) {
    EXPECT_EQ(uninterrupted->reported[i], restored->reported[i])
        << "tick " << i;
    EXPECT_EQ(uninterrupted->ci[i], restored->ci[i]) << "tick " << i;
  }
  EXPECT_EQ(uninterrupted->degraded_ticks, restored->degraded_ticks);
  EXPECT_EQ(uninterrupted->health_state, restored->health_state);
  EXPECT_EQ(uninterrupted->health_summary, restored->health_summary);
  EXPECT_EQ(uninterrupted->final_health, restored->final_health);
}

TEST(PartitionTest, CheckpointWithoutMonitorRejectsMonitoredBlob) {
  // A blob checkpointed WITH a health section must not restore into an
  // engine running WITHOUT a monitor (and vice versa): silently
  // dropping quarantine state on restore would un-quarantine every
  // peer without anyone noticing.
  TrendingWorkload workload(MakeMesh(6, 6).value(), kWorkloadSeed);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{2.0, 1.5, 0.9})
          .value();
  PeerHealthMonitor monitor;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.sampling_options.walk_length = 12;
  options.sampling_options.reset_length = 4;
  options.health = &monitor;

  MessageMeter meter;
  Rng rng(kEngineSeed);
  const NodeId querying = workload.graph().RandomLiveNode(rng).value();
  workload.ProtectNode(querying);
  auto engine = DigestEngine::Create(&workload.graph(), &workload.db(),
                                     spec, querying, rng.Fork(), &meter,
                                     options)
                    .value();
  ASSERT_TRUE(workload.Advance().ok());
  ASSERT_TRUE(engine->Tick(workload.now()).ok());
  const std::string monitored_blob = engine->Checkpoint().value();

  DigestEngineOptions bare_options = options;
  bare_options.health = nullptr;
  MessageMeter bare_meter;
  Rng bare_rng(kEngineSeed);
  auto bare_engine =
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, bare_rng.Fork(), &bare_meter,
                           bare_options)
          .value();
  EXPECT_EQ(bare_engine->Restore(monitored_blob).code(),
            StatusCode::kInvalidArgument);

  const std::string bare_blob = bare_engine->Checkpoint().value();
  EXPECT_EQ(engine->Restore(bare_blob).code(),
            StatusCode::kInvalidArgument);

  // Matching presence still round-trips.
  EXPECT_TRUE(engine->Restore(monitored_blob).ok());
  EXPECT_TRUE(bare_engine->Restore(bare_blob).ok());
}

}  // namespace
}  // namespace digest
