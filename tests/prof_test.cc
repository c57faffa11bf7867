// The wall-clock profiling layer (src/prof/):
//  * aggregate per-phase accounting, span capture, and the span cap;
//  * the null fast path — a ScopedTimer with a null profiler records
//    nothing and an engine run with profiling attached is bit-identical
//    to an unprofiled run (same contract the tracer is held to);
//  * export integration — the `prof` section / wall track appear with a
//    profiler and the deterministic outputs are byte-identical without.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "prof/profiler.h"
#include "workload/experiment.h"
#include "workload/workload.h"

namespace digest {
namespace {

using prof::Phase;
using prof::Profiler;
using prof::ProfilerOptions;
using prof::ScopedTimer;

TEST(ProfilerTest, PhaseNamesAreStable) {
  // Pinned by tools/check_trace.py (PROF_PHASES) and the JSON schema.
  EXPECT_STREQ(prof::PhaseName(Phase::kEngineTick), "engine_tick");
  EXPECT_STREQ(prof::PhaseName(Phase::kExtrapolatorFit),
               "extrapolator_fit");
  EXPECT_STREQ(prof::PhaseName(Phase::kExtrapolatorPredict),
               "extrapolator_predict");
  EXPECT_STREQ(prof::PhaseName(Phase::kEstimatorEvaluate),
               "estimator_evaluate");
  EXPECT_STREQ(prof::PhaseName(Phase::kWalkBatch), "walk_batch");
  EXPECT_STREQ(prof::PhaseName(Phase::kWalkAdvance), "walk_advance");
  EXPECT_STREQ(prof::PhaseName(Phase::kFaultDraw), "fault_draw");
}

TEST(ProfilerTest, RecordAccumulatesPhaseStats) {
  Profiler profiler;
  profiler.Record(Phase::kWalkAdvance, 100, 150, 3);
  profiler.Record(Phase::kWalkAdvance, 200, 220, 2);
  profiler.Record(Phase::kWalkAdvance, 300, 400, 0);
  const prof::PhaseStats& s = profiler.stats(Phase::kWalkAdvance);
  EXPECT_EQ(s.calls, 3u);
  EXPECT_EQ(s.total_ns, 50u + 20u + 100u);
  EXPECT_EQ(s.min_ns, 20u);
  EXPECT_EQ(s.max_ns, 100u);
  EXPECT_EQ(s.items, 5u);
  // Untouched phases stay zero.
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, 0u);
}

TEST(ProfilerTest, RecordToleratesNonMonotoneClockReadings) {
  Profiler profiler;
  profiler.Record(Phase::kEngineTick, 500, 400, 0);  // end < start
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, 1u);
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).total_ns, 0u);
}

TEST(ProfilerTest, SpanCaptureOnlyForCoarsePhases) {
  Profiler profiler;
  profiler.Record(Phase::kEngineTick, 0, 10, 0);      // captured
  profiler.Record(Phase::kWalkBatch, 10, 20, 4);      // captured
  profiler.Record(Phase::kWalkAdvance, 20, 30, 100);  // counters only
  profiler.Record(Phase::kFaultDraw, 30, 31, 1);      // counters only
  ASSERT_EQ(profiler.spans().size(), 2u);
  EXPECT_EQ(profiler.spans()[0].phase, Phase::kEngineTick);
  EXPECT_EQ(profiler.spans()[1].phase, Phase::kWalkBatch);
  EXPECT_EQ(profiler.spans()[1].items, 4u);
  EXPECT_EQ(profiler.spans_dropped(), 0u);
  // The high-frequency phases still aggregated.
  EXPECT_EQ(profiler.stats(Phase::kWalkAdvance).items, 100u);
}

TEST(ProfilerTest, SpanCapBoundsMemoryAndCountsDrops) {
  Profiler profiler;
  for (size_t i = 0; i < prof::kMaxSpans + 3; ++i) {
    profiler.Record(Phase::kEngineTick, i * 10, i * 10 + 5, 0);
  }
  EXPECT_EQ(profiler.spans().size(), prof::kMaxSpans);
  EXPECT_EQ(profiler.spans_dropped(), 3u);
  // Aggregates are unaffected by the cap.
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, prof::kMaxSpans + 3);
}

TEST(ProfilerTest, CaptureSpansFalseKeepsOnlyAggregates) {
  ProfilerOptions options;
  options.capture_spans = false;
  Profiler profiler(options);
  profiler.Record(Phase::kEngineTick, 0, 10, 0);
  EXPECT_TRUE(profiler.spans().empty());
  EXPECT_EQ(profiler.spans_dropped(), 0u);
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, 1u);
}

TEST(ProfilerTest, ResetClearsCountersAndSpans) {
  Profiler profiler;
  profiler.Record(Phase::kEngineTick, 0, 10, 0);
  profiler.AddItems(Phase::kWalkAdvance, 7);
  profiler.Reset();
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, 0u);
  EXPECT_EQ(profiler.stats(Phase::kWalkAdvance).items, 0u);
  EXPECT_TRUE(profiler.spans().empty());
}

TEST(ProfilerTest, ToJsonOmitsEmptyPhasesAndOrdersByEnum) {
  Profiler profiler;
  EXPECT_EQ(profiler.ToJson(),
            "{\"phases\":{},\"spans_captured\":0,\"spans_dropped\":0}");
  profiler.Record(Phase::kWalkAdvance, 0, 40, 8);
  profiler.Record(Phase::kEngineTick, 0, 100, 0);
  EXPECT_EQ(profiler.ToJson(),
            "{\"phases\":{"
            "\"engine_tick\":{\"calls\":1,\"total_ns\":100,\"min_ns\":100,"
            "\"max_ns\":100,\"items\":0},"
            "\"walk_advance\":{\"calls\":1,\"total_ns\":40,\"min_ns\":40,"
            "\"max_ns\":40,\"items\":8}"
            "},\"spans_captured\":1,\"spans_dropped\":0}");
}

TEST(ProfilerTest, ScopedTimerRecordsIntervalAndItems) {
  Profiler profiler;
  {
    ScopedTimer timer(&profiler, Phase::kEstimatorEvaluate);
    timer.AddItems(12);
  }
  const prof::PhaseStats& s = profiler.stats(Phase::kEstimatorEvaluate);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.items, 12u);
  EXPECT_GE(s.max_ns, s.min_ns);
}

TEST(ProfilerTest, ScopedTimerWithNullProfilerIsANoOp) {
  ScopedTimer timer(nullptr, Phase::kEngineTick);
  timer.AddItems(5);  // Must not crash; nothing to record into.
}

TEST(ProfilerTest, RenderProfSummaryListsRecordedPhases) {
  Profiler profiler;
  const std::string empty = prof::RenderProfSummary(profiler);
  EXPECT_NE(empty.find("(no phases recorded)"), std::string::npos);
  profiler.Record(Phase::kWalkBatch, 0, 2000000, 50);
  const std::string out = prof::RenderProfSummary(profiler);
  EXPECT_NE(out.find("walk_batch"), std::string::npos);
  EXPECT_EQ(out.find("engine_tick"), std::string::npos);
}

// ---------------------------------------------------------------------
// Engine integration: the same drifting-overlay workload the obs
// determinism battery uses, reproducible from its seed alone.

class DriftWorkload : public Workload {
 public:
  explicit DriftWorkload(uint64_t seed)
      : graph_(MakeMesh(6, 6).value()),
        rng_(seed),
        db_(std::make_unique<P2PDatabase>(
            Schema::Create({"load"}).value())) {
    for (NodeId node : graph_.LiveNodes()) {
      (void)db_->AddNode(node);
      LocalStore* store = db_->StoreAt(node).value();
      for (size_t i = 0; i < 5; ++i) {
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

constexpr size_t kTicks = 14;

RunResult RunEngine(Profiler* profiler, bool with_faults) {
  DriftWorkload workload(/*seed=*/99);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.message_loss = with_faults ? 0.06 : 0.0;
  config.agent_drop = with_faults ? 0.03 : 0.0;
  FaultPlan plan(config, /*seed=*/31);

  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 14;
  options.sampling_options.reset_length = 4;
  if (with_faults) options.fault_plan = &plan;
  options.profiler = profiler;
  return RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/7,
                             "prof")
      .value();
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.reported.size(), b.reported.size());
  for (size_t i = 0; i < b.reported.size(); ++i) {
    EXPECT_EQ(a.reported[i], b.reported[i]) << "tick " << i;
    EXPECT_EQ(a.ci_halfwidths[i], b.ci_halfwidths[i]) << "tick " << i;
  }
  EXPECT_EQ(a.meter.Total(), b.meter.Total());
  EXPECT_EQ(a.meter.walk_hops(), b.meter.walk_hops());
  EXPECT_EQ(a.meter.losses(), b.meter.losses());
  EXPECT_EQ(a.meter.retries(), b.meter.retries());
  EXPECT_EQ(a.meter.agent_restarts(), b.meter.agent_restarts());
  EXPECT_EQ(a.stats.snapshots, b.stats.snapshots);
  EXPECT_EQ(a.stats.total_samples, b.stats.total_samples);
  EXPECT_EQ(a.stats.degraded_ticks, b.stats.degraded_ticks);
  EXPECT_EQ(a.correlation_estimate, b.correlation_estimate);
}

TEST(ProfilerEngineTest, ProfilingIsPureObservationCleanRun) {
  Profiler profiler;
  const RunResult profiled = RunEngine(&profiler, /*with_faults=*/false);
  const RunResult plain = RunEngine(nullptr, /*with_faults=*/false);
  ExpectBitIdentical(profiled, plain);
}

TEST(ProfilerEngineTest, ProfilingIsPureObservationFaultyRun) {
  Profiler profiler;
  const RunResult profiled = RunEngine(&profiler, /*with_faults=*/true);
  const RunResult plain = RunEngine(nullptr, /*with_faults=*/true);
  ExpectBitIdentical(profiled, plain);
}

TEST(ProfilerEngineTest, EngineRunPopulatesExpectedPhases) {
  Profiler profiler;
  const RunResult run = RunEngine(&profiler, /*with_faults=*/true);
  EXPECT_EQ(profiler.stats(Phase::kEngineTick).calls, kTicks);
  // Every snapshot occasion evaluates at least once (degraded occasions
  // evaluate twice).
  EXPECT_GE(profiler.stats(Phase::kEstimatorEvaluate).calls,
            run.stats.snapshots);
  EXPECT_GT(profiler.stats(Phase::kWalkBatch).calls, 0u);
  EXPECT_GT(profiler.stats(Phase::kWalkAdvance).items, 0u);
  // PRED fits history and predicts gaps once warm.
  EXPECT_GT(profiler.stats(Phase::kExtrapolatorFit).calls, 0u);
  EXPECT_GT(profiler.stats(Phase::kExtrapolatorPredict).calls, 0u);
  // Faulty run: the plan drew randomness under the timer.
  EXPECT_GT(profiler.stats(Phase::kFaultDraw).calls, 0u);
  // Coarse phases captured spans on the one shared wall axis.
  EXPECT_FALSE(profiler.spans().empty());
  for (const prof::WallSpan& span : profiler.spans()) {
    EXPECT_TRUE(prof::PhaseCapturesSpans(span.phase));
  }
}

TEST(ProfilerEngineTest, FaultDrawsUntimedWithoutProfiler) {
  // Sanity for the null path through the fault plan: no profiler, no
  // crash, and the injected schedule is the same (covered bit-exactly
  // by ProfilingIsPureObservationFaultyRun above).
  const RunResult run = RunEngine(nullptr, /*with_faults=*/true);
  EXPECT_GT(run.meter.Total(), 0u);
}

// ---------------------------------------------------------------------
// Exporter integration.

TEST(ProfilerExportTest, NullProfilerLeavesExportsByteIdentical) {
  obs::MemoryTracer tracer;
  obs::Registry registry;
  registry.GetCounter("walk.batches")->Increment(3);
  tracer.Emit(obs::RunBeginEvent{"x"});

  EXPECT_EQ(obs::RenderJsonLines(tracer.events()),
            obs::RenderJsonLines(tracer.events(), nullptr));
  EXPECT_EQ(obs::RenderChromeTrace(tracer.events()),
            obs::RenderChromeTrace(tracer.events(), nullptr));
  EXPECT_EQ(obs::RenderMetricsJson(registry, nullptr), registry.ToJson());
}

TEST(ProfilerExportTest, ProfilerAppendsProfSectionsToAllFormats) {
  obs::MemoryTracer tracer;
  obs::Registry registry;
  registry.GetCounter("walk.batches")->Increment(3);
  tracer.Emit(obs::RunBeginEvent{"x"});

  Profiler profiler;
  profiler.Record(Phase::kEngineTick, 1000, 51000, 0);
  profiler.Record(Phase::kWalkAdvance, 2000, 3000, 9);

  const std::string jsonl =
      obs::RenderJsonLines(tracer.events(), &profiler);
  EXPECT_NE(jsonl.find("\"event\":\"prof_phase\",\"phase\":\"engine_tick\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"phase\":\"walk_advance\""), std::string::npos);
  // prof lines trail the event lines.
  EXPECT_LT(jsonl.find("run_begin"), jsonl.find("prof_phase"));

  const std::string chrome =
      obs::RenderChromeTrace(tracer.events(), &profiler);
  EXPECT_NE(chrome.find("wall-clock profiler"), std::string::npos);
  // Only span-capturing phases appear on the wall track.
  EXPECT_NE(chrome.find("\"name\":\"engine_tick\",\"cat\":\"wall\""),
            std::string::npos);
  EXPECT_EQ(chrome.find("\"name\":\"walk_advance\",\"cat\":\"wall\""),
            std::string::npos);

  const std::string metrics = obs::RenderMetricsJson(registry, &profiler);
  EXPECT_NE(metrics.find("\"prof\":{\"phases\":{\"engine_tick\""),
            std::string::npos);
  // The registry body is untouched ahead of the prof splice.
  EXPECT_EQ(metrics.compare(0, registry.ToJson().size() - 1,
                            registry.ToJson(), 0,
                            registry.ToJson().size() - 1),
            0);
}

TEST(ProfilerExportTest, WallSpansSortedByStartInChromeTrace) {
  obs::MemoryTracer tracer;
  tracer.Emit(obs::RunBeginEvent{"x"});
  Profiler profiler;
  // Recorded out of order (completion order); export must sort.
  profiler.Record(Phase::kWalkBatch, 5000, 6000, 1);
  profiler.Record(Phase::kEngineTick, 1000, 9000, 0);
  const std::string chrome =
      obs::RenderChromeTrace(tracer.events(), &profiler);
  const size_t tick_pos =
      chrome.find("\"name\":\"engine_tick\",\"cat\":\"wall\"");
  const size_t batch_pos =
      chrome.find("\"name\":\"walk_batch\",\"cat\":\"wall\"");
  ASSERT_NE(tick_pos, std::string::npos);
  ASSERT_NE(batch_pos, std::string::npos);
  EXPECT_LT(tick_pos, batch_pos);
}

}  // namespace
}  // namespace digest
