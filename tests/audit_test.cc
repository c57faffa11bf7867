// Unit battery for the precision audit ledger (src/audit/): coverage
// accounting and budget math, structural miss attribution precedence,
// the skip-path δ-compliance fold, EWMA/CUSUM drift detection with the
// supervisor breach flip, the State JSON codec, and the engine-level
// checkpoint-v2 integration (audit state rides the blob; presence
// mismatches are rejected both ways).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "audit/audit.h"
#include "common/checkpoint_codec.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/supervisor.h"
#include "db/p2p_database.h"
#include "net/message_meter.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/tracer.h"

namespace digest {
namespace audit {
namespace {

SnapshotObservation MakeObs(int64_t tick, double estimate, double ci) {
  SnapshotObservation obs;
  obs.tick = tick;
  obs.estimate = estimate;
  obs.ci_halfwidth = ci;
  obs.total_samples = 10;
  obs.fresh_samples = 10;
  obs.message_cost = 100;
  return obs;
}

TEST(MissCauseTest, NamesAreStable) {
  EXPECT_STREQ(MissCauseName(MissCause::kNone), "none");
  EXPECT_STREQ(MissCauseName(MissCause::kVarianceUndershoot),
               "variance_undershoot");
  EXPECT_STREQ(MissCauseName(MissCause::kPredResidual), "pred_residual");
  EXPECT_STREQ(MissCauseName(MissCause::kPartialSnapshot),
               "partial_snapshot");
  EXPECT_STREQ(MissCauseName(MissCause::kRetainedPoolFallback),
               "retained_pool");
  EXPECT_STREQ(MissCauseName(MissCause::kHedgeTimeout), "hedge_timeout");
  EXPECT_STREQ(MissCauseName(MissCause::kPoorMixing), "poor_mixing");
}

TEST(PrecisionAuditorTest, CoverageAndBudgetMath) {
  PrecisionAuditor auditor;
  auditor.AttachContract(/*delta=*/0.0, /*epsilon=*/2.0,
                         /*confidence=*/0.9);
  auditor.BeginRun("budget");
  // 10 occasions: 8 hits (estimate == truth), 2 misses (error beyond
  // the reported CI).
  for (int64_t t = 1; t <= 10; ++t) {
    const bool miss = t <= 2;
    auditor.RecordSnapshot(MakeObs(t, miss ? 10.0 : 50.0, 1.0));
    auditor.RecordTruth(t, 50.0);
  }
  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.occasions, 10u);
  EXPECT_EQ(s.hits, 8u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_DOUBLE_EQ(s.coverage, 0.8);
  // Floor: p − 2·sqrt(p(1 − p)/n) with p = 0.9, n = 10.
  const double floor = 0.9 - 2.0 * std::sqrt(0.9 * 0.1 / 10.0);
  EXPECT_DOUBLE_EQ(s.coverage_floor, floor);
  EXPECT_TRUE(s.coverage_ok);  // 0.8 >= 0.710...
  // Burn: miss_rate / (1 − p) = 0.2 / 0.1 = 2 budgets burned.
  EXPECT_DOUBLE_EQ(s.budget_burn, 2.0);
  EXPECT_DOUBLE_EQ(s.budget_remaining, 0.0);
  EXPECT_EQ(s.ledger_records, 10u);
}

TEST(PrecisionAuditorTest, EmptyRunPassesVacuously) {
  PrecisionAuditor auditor;
  auditor.AttachContract(1.0, 2.0, 0.9);
  auditor.BeginRun("empty");
  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.occasions, 0u);
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
  EXPECT_DOUBLE_EQ(s.coverage_floor, 0.0);
  EXPECT_TRUE(s.coverage_ok);
  EXPECT_DOUBLE_EQ(s.delta_compliance, 1.0);
  EXPECT_DOUBLE_EQ(s.budget_burn, 0.0);
}

TEST(PrecisionAuditorTest, AttributionPrecedence) {
  PrecisionAuditor auditor;
  auditor.AttachContract(0.0, 2.0, 0.9);
  auditor.BeginRun("attribution");
  // Every occasion misses (estimate 0 vs truth 50, ci 1); the flags
  // decide the cause. Worst state wins: timeout > degraded (retained
  // pool) > partial > poor mixing > clean variance undershoot.
  SnapshotObservation degraded_partial = MakeObs(1, 0.0, 1.0);
  degraded_partial.degraded = true;
  degraded_partial.partial = true;
  auditor.RecordSnapshot(degraded_partial);
  auditor.RecordTruth(1, 50.0);

  SnapshotObservation partial = MakeObs(2, 0.0, 1.0);
  partial.partial = true;
  // A stationary-gap breach rides along but loses to the structural
  // partial-snapshot flag.
  partial.mixing_breach = true;
  auditor.RecordSnapshot(partial);
  auditor.RecordTruth(2, 50.0);

  auditor.RecordSnapshot(MakeObs(3, 0.0, 1.0));  // Clean miss.
  auditor.RecordTruth(3, 50.0);

  auditor.RecordTimeout(/*tick=*/4, /*held_value=*/0.0,
                        /*ci_halfwidth=*/1.0, /*message_cost=*/40,
                        /*health=*/1);
  auditor.RecordTruth(4, 50.0);

  // A structurally clean miss whose walk batches breached the
  // stationary-gap tolerance: re-attributed to the sampler.
  SnapshotObservation poorly_mixed = MakeObs(5, 0.0, 1.0);
  poorly_mixed.mixing_breach = true;
  auditor.RecordSnapshot(poorly_mixed);
  auditor.RecordTruth(5, 50.0);

  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(
                MissCause::kRetainedPoolFallback)], 1u);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(
                MissCause::kPartialSnapshot)], 1u);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(
                MissCause::kVarianceUndershoot)], 1u);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(MissCause::kHedgeTimeout)],
            1u);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(MissCause::kPoorMixing)],
            1u);
  // The ledger kept the structural flags.
  ASSERT_EQ(auditor.records().size(), 5u);
  EXPECT_TRUE(auditor.records()[0].degraded);
  EXPECT_TRUE(auditor.records()[1].partial);
  EXPECT_TRUE(auditor.records()[1].mixing_breach);
  EXPECT_TRUE(auditor.records()[3].timeout);
  EXPECT_TRUE(auditor.records()[4].mixing_breach);
  EXPECT_FALSE(auditor.records()[4].partial);
}

TEST(PrecisionAuditorTest, SkipPathDeltaCompliance) {
  PrecisionAuditor auditor;
  auditor.AttachContract(/*delta=*/1.0, /*epsilon=*/2.0,
                         /*confidence=*/0.9);
  auditor.BeginRun("skips");
  // Widened skip contract: |reported − truth| <= max(ε, ci) + δ = 3.
  auditor.RecordSkip(/*tick=*/1, /*reported=*/10.0, /*ci=*/0.5);
  auditor.RecordTruth(1, 12.9);  // Within: compliant.
  auditor.RecordSkip(2, 10.0, 0.5);
  auditor.RecordTruth(2, 13.1);  // Beyond: a δ miss.
  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.occasions, 0u);  // Skips are not snapshot occasions.
  EXPECT_EQ(s.delta_ticks, 2u);
  EXPECT_EQ(s.delta_misses, 1u);
  EXPECT_DOUBLE_EQ(s.delta_compliance, 0.5);
  EXPECT_EQ(s.cause_counts[static_cast<size_t>(MissCause::kPredResidual)],
            1u);
}

TEST(PrecisionAuditorTest, UnresolvedAndUnmatchedObservations) {
  PrecisionAuditor auditor;
  auditor.AttachContract(0.0, 2.0, 0.9);
  auditor.BeginRun("pending");
  auditor.RecordSnapshot(MakeObs(1, 50.0, 1.0));
  // Never resolved: the next observation flushes it to the ledger as a
  // truth-less record that counts no coverage occasion.
  auditor.RecordSnapshot(MakeObs(2, 50.0, 1.0));
  auditor.RecordTruth(2, 50.0);
  auditor.RecordTruth(7, 50.0);  // No pending tick 7: counted, ignored.
  auditor.FinalizeRun();
  ASSERT_EQ(auditor.records().size(), 2u);
  EXPECT_FALSE(auditor.records()[0].has_truth);
  EXPECT_TRUE(auditor.records()[1].has_truth);
  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.occasions, 1u);
  EXPECT_EQ(s.ledger_records, 2u);
}

TEST(PrecisionAuditorTest, SustainedErrorDriftFlipsSupervisor) {
  PrecisionAuditor auditor;
  obs::MemoryTracer tracer;
  auditor.SetTracer(&tracer);
  auditor.AttachContract(0.0, /*epsilon=*/1.0, 0.9);
  auditor.BeginRun("drift");
  // Standardized error +5ε per occasion: CUSUM pos grows by
  // (5 − slack 0.5) = 4.5 per resolution → in breach from the 2nd
  // resolution (9.0 > threshold 8.0), flip after patience = 3 in-breach
  // resolutions.
  int flips = 0;
  for (int64_t t = 1; t <= 4; ++t) {
    tracer.set_now(t);
    auditor.RecordSnapshot(MakeObs(t, 55.0, 1.0));
    auditor.RecordTruth(t, 50.0);
    while (auditor.TakePendingBreachFlip()) ++flips;
  }
  EXPECT_EQ(flips, 1);
  EXPECT_FALSE(auditor.TakePendingBreachFlip());
  const PrecisionAuditor::Summary s = auditor.Summarize();
  EXPECT_EQ(s.supervisor_flips, 1u);
  EXPECT_GE(s.error_breaches, 2u);
  // The breach trail is visible in the trace.
  int drift_events = 0;
  int flip_events = 0;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (const auto* drift =
            std::get_if<obs::AuditDriftEvent>(&event.payload)) {
      ++drift_events;
      EXPECT_EQ(drift->detector, "signed_error");
      if (drift->flip) ++flip_events;
    }
  }
  EXPECT_EQ(drift_events, 3);
  EXPECT_EQ(flip_events, 1);
  // The flip reset the detector: its one-sided sums re-arm from zero.
  const PrecisionAuditor::State state = auditor.SaveState();
  EXPECT_DOUBLE_EQ(state.error_detector.cusum_pos, 0.0);
  EXPECT_EQ(state.error_detector.streak, 0u);
}

TEST(SupervisorAuditBreachTest, OnlyDegradesFromHealthy) {
  SessionSupervisor supervisor;
  EXPECT_EQ(supervisor.RecordAuditBreach(), SessionHealth::kDegraded);
  EXPECT_EQ(supervisor.transitions(), 1u);
  // Already degraded: the breach carries no extra news.
  EXPECT_EQ(supervisor.RecordAuditBreach(), SessionHealth::kDegraded);
  EXPECT_EQ(supervisor.transitions(), 1u);
}

TEST(PrecisionAuditorTest, StateJsonRoundTrips) {
  PrecisionAuditor auditor;
  auditor.AttachContract(1.0, 2.0, 0.9);
  auditor.BeginRun("round-trip");
  auditor.RecordSnapshot(MakeObs(1, 50.0, 1.0));
  auditor.RecordTruth(1, 50.0);
  SnapshotObservation degraded = MakeObs(2, 10.0, 1.0);
  degraded.degraded = true;
  auditor.RecordSnapshot(degraded);
  auditor.RecordTruth(2, 50.0);
  auditor.RecordSkip(3, 50.0, 0.5);
  auditor.RecordTruth(3, 90.0);
  SnapshotObservation breached = MakeObs(4, 10.0, 1.0);
  breached.mixing_breach = true;  // The codec must carry the flag.
  auditor.RecordSnapshot(breached);
  auditor.RecordTruth(4, 50.0);
  auditor.RecordSnapshot(MakeObs(5, 50.0, 1.0));  // Left pending.

  const PrecisionAuditor::State state = auditor.SaveState();
  EXPECT_TRUE(state.pending_snapshot);
  std::string encoded;
  ckpt::Encode(&encoded, state);
  const Result<json::Value> parsed = json::Parse(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  PrecisionAuditor::State decoded;
  const Status read = ckpt::Decode(parsed.value(), &decoded);
  ASSERT_TRUE(read.ok()) << read.ToString();

  PrecisionAuditor restored;
  restored.AttachContract(1.0, 2.0, 0.9);
  restored.RestoreState(decoded);
  EXPECT_EQ(restored.SummaryJson(), auditor.SummaryJson());
  // The breached record survived the round trip with flag and cause.
  ASSERT_FALSE(restored.records().empty());
  const CoverageRecord& breached_restored = restored.records().back();
  EXPECT_EQ(breached_restored.tick, 4);
  EXPECT_TRUE(breached_restored.mixing_breach);
  EXPECT_EQ(breached_restored.cause, MissCause::kPoorMixing);
  // The pending observation survived: resolving it after restore works.
  restored.RecordTruth(5, 50.0);
  auditor.RecordTruth(5, 50.0);
  EXPECT_EQ(restored.SummaryJson(), auditor.SummaryJson());
  // Re-encoding the restored state is byte-identical.
  std::string re_encoded;
  ckpt::Encode(&re_encoded, restored.SaveState());
  std::string original_after;
  ckpt::Encode(&original_after, auditor.SaveState());
  EXPECT_EQ(re_encoded, original_after);
}

TEST(PrecisionAuditorTest, ParseStateJsonRejectsMalformedInput) {
  const Result<json::Value> not_object = json::Parse("[1,2]");
  ASSERT_TRUE(not_object.ok());
  PrecisionAuditor::State decoded;
  EXPECT_EQ(ckpt::Decode(not_object.value(), &decoded).code(),
            StatusCode::kInvalidArgument);
  // A record with an out-of-range cause index must not install.
  PrecisionAuditor::State state;
  CoverageRecord bad;
  bad.cause = static_cast<MissCause>(99);
  state.records.push_back(bad);
  std::string encoded;
  ckpt::Encode(&encoded, state);
  const Result<json::Value> parsed = json::Parse(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ckpt::Decode(parsed.value(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

// --- Engine-level checkpoint-v2 integration ---

/// Minimal static-membership session fixture: a mesh whose per-node
/// "load" values drift by AR(1), driven directly (no Workload harness).
struct SessionFixture {
  static constexpr uint64_t kSeed = 311;

  SessionFixture()
      : graph(MakeMesh(6, 6).value()),
        rng(kSeed),
        db(Schema::Create({"load"}).value()) {
    for (NodeId node : graph.LiveNodes()) {
      (void)db.AddNode(node);
      LocalStore* store = db.StoreAt(node).value();
      Entry entry;
      entry.node = node;
      entry.value = rng.NextGaussian(50.0, 10.0);
      entry.id = store->Insert({entry.value});
      entries.push_back(entry);
    }
  }

  void Advance() {
    ++now;
    for (Entry& entry : entries) {
      entry.value =
          50.0 + 0.8 * (entry.value - 50.0) + rng.NextGaussian(0.0, 2.0);
      ASSERT_OK_OR_DIE(db.StoreAt(entry.node).value()->UpdateAttribute(
          entry.id, 0, entry.value));
    }
  }

  static void ASSERT_OK_OR_DIE(const Status& status) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  struct Entry {
    NodeId node = kInvalidNode;
    LocalTupleId id = 0;
    double value = 0.0;
  };

  Graph graph;
  Rng rng;
  P2PDatabase db;
  std::vector<Entry> entries;
  int64_t now = 0;
};

DigestEngineOptions EngineOptions(PrecisionAuditor* auditor) {
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 12;
  options.sampling_options.reset_length = 4;
  options.auditor = auditor;
  return options;
}

std::unique_ptr<DigestEngine> MakeEngine(SessionFixture* fixture,
                                         const ContinuousQuerySpec& spec,
                                         MessageMeter* meter,
                                         const DigestEngineOptions& options) {
  Rng rng(7);
  const NodeId querying = fixture->graph.RandomLiveNode(rng).value();
  return DigestEngine::Create(&fixture->graph, &fixture->db, spec, querying,
                              rng.Fork(), meter, options)
      .value();
}

TEST(AuditCheckpointTest, LedgerRidesTheBlobBitIdentically) {
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  constexpr size_t kTicks = 16;
  constexpr size_t kKillAfter = 8;

  // Uninterrupted audited session.
  std::string uninterrupted_summary;
  {
    SessionFixture fixture;
    PrecisionAuditor auditor;
    MessageMeter meter;
    auto engine =
        MakeEngine(&fixture, spec, &meter, EngineOptions(&auditor));
    auditor.BeginRun("recovery");
    for (size_t t = 0; t < kTicks; ++t) {
      fixture.Advance();
      const double truth = fixture.db.ExactAggregate(spec.query).value();
      ASSERT_TRUE(engine->Tick(fixture.now).ok());
      auditor.RecordTruth(fixture.now, truth);
    }
    auditor.FinalizeRun();
    uninterrupted_summary = auditor.SummaryJson();
  }

  // Same session killed mid-run: the rebuilt process starts with a
  // fresh auditor whose ledger is restored from the blob.
  std::string recovered_summary;
  {
    SessionFixture fixture;
    auto auditor = std::make_unique<PrecisionAuditor>();
    MessageMeter meter;
    auto engine =
        MakeEngine(&fixture, spec, &meter, EngineOptions(auditor.get()));
    auditor->BeginRun("recovery");
    for (size_t t = 0; t < kTicks; ++t) {
      fixture.Advance();
      const double truth = fixture.db.ExactAggregate(spec.query).value();
      ASSERT_TRUE(engine->Tick(fixture.now).ok());
      auditor->RecordTruth(fixture.now, truth);
      if (t == kKillAfter) {
        const std::string blob = engine->Checkpoint().value();
        engine.reset();
        meter.Reset();
        auditor = std::make_unique<PrecisionAuditor>();  // Fresh process.
        engine = MakeEngine(&fixture, spec, &meter,
                            EngineOptions(auditor.get()));
        ASSERT_TRUE(engine->Restore(blob).ok());
      }
    }
    auditor->FinalizeRun();
    recovered_summary = auditor->SummaryJson();
  }
  EXPECT_EQ(recovered_summary, uninterrupted_summary);
}

TEST(AuditCheckpointTest, PresenceMismatchIsRejectedBothWays) {
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();

  // Audited blob into an unaudited engine.
  SessionFixture fixture_a;
  PrecisionAuditor auditor;
  MessageMeter meter_a;
  auto audited =
      MakeEngine(&fixture_a, spec, &meter_a, EngineOptions(&auditor));
  fixture_a.Advance();
  ASSERT_TRUE(audited->Tick(fixture_a.now).ok());
  const std::string audited_blob = audited->Checkpoint().value();

  SessionFixture fixture_b;
  MessageMeter meter_b;
  auto unaudited =
      MakeEngine(&fixture_b, spec, &meter_b, EngineOptions(nullptr));
  EXPECT_EQ(unaudited->Restore(audited_blob).code(),
            StatusCode::kInvalidArgument);

  // Unaudited blob into an audited engine.
  fixture_b.Advance();
  ASSERT_TRUE(unaudited->Tick(fixture_b.now).ok());
  const std::string unaudited_blob = unaudited->Checkpoint().value();
  SessionFixture fixture_c;
  PrecisionAuditor auditor_c;
  MessageMeter meter_c;
  auto audited_c =
      MakeEngine(&fixture_c, spec, &meter_c, EngineOptions(&auditor_c));
  EXPECT_EQ(audited_c->Restore(unaudited_blob).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace audit
}  // namespace digest
