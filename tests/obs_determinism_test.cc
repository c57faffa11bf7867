// Determinism guarantees of the observability layer:
//  1. two same-seed traced runs export byte-identical JSONL / Chrome
//     trace / registry JSON — events are stamped with simulated time
//     and sequence numbers only, never wall clock;
//  2. tracing is pure observation — a fully traced run produces
//     bit-identical engine estimates and MessageMeter totals to an
//     untraced run of the same seed (the null fast path changes
//     nothing).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "audit/audit.h"
#include "core/engine.h"
#include "diag/diag.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "workload/experiment.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Same static-membership AR(1) workload as the fault battery: a fixed
/// overlay with drifting values, reproducible from the seed alone.
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

struct TracedRun {
  RunResult result;
  std::string jsonl;
  std::string chrome;
  std::string metrics_json;
};

TracedRun RunTraced(bool with_faults) {
  DriftWorkload workload(/*seed=*/99);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.message_loss = with_faults ? 0.06 : 0.0;
  config.agent_drop = with_faults ? 0.03 : 0.0;
  FaultPlan plan(config, /*seed=*/31);

  obs::MemoryTracer tracer;
  obs::Registry registry;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 14;
  options.sampling_options.reset_length = 4;
  if (with_faults) options.fault_plan = &plan;
  options.tracer = &tracer;
  options.registry = &registry;

  TracedRun out;
  out.result = RunEngineExperiment(workload, spec, options, kTicks,
                                   /*seed=*/7, "determinism")
                   .value();
  out.jsonl = obs::RenderJsonLines(tracer.events());
  out.chrome = obs::RenderChromeTrace(tracer.events());
  out.metrics_json = registry.ToJson();
  return out;
}

RunResult RunUntraced(bool with_faults) {
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
  return RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/7)
      .value();
}

TEST(ObsDeterminismTest, SameSeedRunsExportByteIdenticalTraces) {
  const TracedRun a = RunTraced(/*with_faults=*/true);
  const TracedRun b = RunTraced(/*with_faults=*/true);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(ObsDeterminismTest, TracingIsPureObservationCleanRun) {
  const TracedRun traced = RunTraced(/*with_faults=*/false);
  const RunResult plain = RunUntraced(/*with_faults=*/false);
  ASSERT_EQ(traced.result.reported.size(), plain.reported.size());
  for (size_t i = 0; i < plain.reported.size(); ++i) {
    EXPECT_EQ(traced.result.reported[i], plain.reported[i]) << "tick " << i;
    EXPECT_EQ(traced.result.ci_halfwidths[i], plain.ci_halfwidths[i]);
  }
  EXPECT_EQ(traced.result.meter.Total(), plain.meter.Total());
  EXPECT_EQ(traced.result.meter.walk_hops(), plain.meter.walk_hops());
  EXPECT_EQ(traced.result.meter.weight_probes(),
            plain.meter.weight_probes());
  EXPECT_EQ(traced.result.stats.snapshots, plain.stats.snapshots);
  EXPECT_EQ(traced.result.stats.total_samples, plain.stats.total_samples);
  EXPECT_EQ(traced.result.correlation_estimate,
            plain.correlation_estimate);
}

TEST(ObsDeterminismTest, TracingIsPureObservationFaultyRun) {
  const TracedRun traced = RunTraced(/*with_faults=*/true);
  const RunResult plain = RunUntraced(/*with_faults=*/true);
  ASSERT_EQ(traced.result.reported.size(), plain.reported.size());
  for (size_t i = 0; i < plain.reported.size(); ++i) {
    EXPECT_EQ(traced.result.reported[i], plain.reported[i]) << "tick " << i;
    EXPECT_EQ(traced.result.ci_halfwidths[i], plain.ci_halfwidths[i]);
  }
  EXPECT_EQ(traced.result.meter.Total(), plain.meter.Total());
  EXPECT_EQ(traced.result.meter.losses(), plain.meter.losses());
  EXPECT_EQ(traced.result.meter.retries(), plain.meter.retries());
  EXPECT_EQ(traced.result.meter.agent_restarts(),
            plain.meter.agent_restarts());
  EXPECT_EQ(traced.result.stats.degraded_ticks,
            plain.stats.degraded_ticks);
}

/// Renders the trace as JSONL lines with the seq stamp stripped and —
/// when `drop_audit` / `drop_diag` — the audit_* / sampler-diagnostic
/// lines removed, so an instrumented trace can be compared
/// line-for-line against a plain one (extra events shift every later
/// seq).
std::vector<std::string> NormalizedLines(
    const std::vector<obs::TraceEvent>& events, bool drop_audit,
    bool drop_diag = false) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& event : events) {
    if (drop_audit &&
        (std::holds_alternative<obs::AuditCoverageEvent>(event.payload) ||
         std::holds_alternative<obs::AuditBudgetEvent>(event.payload) ||
         std::holds_alternative<obs::AuditDriftEvent>(event.payload) ||
         std::holds_alternative<obs::AuditSloEvent>(event.payload))) {
      continue;
    }
    if (drop_diag &&
        (std::holds_alternative<obs::WalkMixingEvent>(event.payload) ||
         std::holds_alternative<obs::StationaryGapEvent>(event.payload) ||
         std::holds_alternative<obs::PeerLoadEvent>(event.payload) ||
         std::holds_alternative<obs::AcceptanceRateEvent>(event.payload))) {
      continue;
    }
    const std::string line = obs::EventToJsonLine(event);
    out.push_back(line.substr(line.find(",\"t\":")));
  }
  return out;
}

struct AuditedRun {
  RunResult result;
  std::string summary_json;
  uint64_t supervisor_flips = 0;
  std::vector<obs::TraceEvent> events;
};

AuditedRun RunAudited(bool with_audit, bool with_faults,
                      size_t num_threads = 1) {
  DriftWorkload workload(/*seed=*/99);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.message_loss = with_faults ? 0.06 : 0.0;
  config.agent_drop = with_faults ? 0.03 : 0.0;
  FaultPlan plan(config, /*seed=*/31);

  obs::MemoryTracer tracer;
  audit::PrecisionAuditor auditor;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 14;
  options.sampling_options.reset_length = 4;
  options.sampling_options.num_threads = num_threads;
  if (with_faults) options.fault_plan = &plan;
  options.tracer = &tracer;
  if (with_audit) options.auditor = &auditor;

  AuditedRun out;
  out.result = RunEngineExperiment(workload, spec, options, kTicks,
                                   /*seed=*/7, "determinism")
                   .value();
  out.summary_json = auditor.SummaryJson();
  out.supervisor_flips = auditor.Summarize().supervisor_flips;
  out.events = tracer.events();
  return out;
}

TEST(ObsDeterminismTest, AuditOffIsBitIdenticalToUnaudited) {
  // With the auditor detached (the null fast path), the run must match
  // an audited run of the same seed in everything except the audit_*
  // events — the auditor observes but never steers. (Holds as long as
  // no drift breach flips the supervisor; this config has none, which
  // the flip counter pins down.)
  const AuditedRun audited =
      RunAudited(/*with_audit=*/true, /*with_faults=*/true);
  const AuditedRun plain =
      RunAudited(/*with_audit=*/false, /*with_faults=*/true);
  ASSERT_EQ(audited.supervisor_flips, 0u);
  ASSERT_EQ(audited.result.reported.size(), plain.result.reported.size());
  for (size_t i = 0; i < plain.result.reported.size(); ++i) {
    EXPECT_EQ(audited.result.reported[i], plain.result.reported[i])
        << "tick " << i;
    EXPECT_EQ(audited.result.ci_halfwidths[i],
              plain.result.ci_halfwidths[i]);
  }
  EXPECT_EQ(audited.result.meter.Total(), plain.result.meter.Total());
  EXPECT_EQ(audited.result.meter.walk_hops(),
            plain.result.meter.walk_hops());
  EXPECT_EQ(audited.result.stats.snapshots, plain.result.stats.snapshots);
  EXPECT_EQ(audited.result.stats.total_samples,
            plain.result.stats.total_samples);
  EXPECT_EQ(audited.result.final_health, plain.result.final_health);
  const std::vector<std::string> audited_lines =
      NormalizedLines(audited.events, /*drop_audit=*/true);
  const std::vector<std::string> plain_lines =
      NormalizedLines(plain.events, /*drop_audit=*/false);
  ASSERT_EQ(audited_lines.size(), plain_lines.size());
  for (size_t i = 0; i < plain_lines.size(); ++i) {
    EXPECT_EQ(audited_lines[i], plain_lines[i]) << "line " << i;
  }
  // And the audited trace really did carry audit events.
  EXPECT_GT(audited.events.size(), plain.events.size());
}

TEST(ObsDeterminismTest, AuditLedgerIsThreadCountInvariant) {
  // The ledger is a pure fold over the observation sequence, which the
  // deterministic parallel executor keeps identical for every worker
  // count: the full summary (coverage, attribution, drift state,
  // quantiles) must be byte-identical for 1 vs 4 threads.
  const AuditedRun serial =
      RunAudited(/*with_audit=*/true, /*with_faults=*/true,
                 /*num_threads=*/1);
  const AuditedRun parallel =
      RunAudited(/*with_audit=*/true, /*with_faults=*/true,
                 /*num_threads=*/4);
  ASSERT_FALSE(serial.summary_json.empty());
  EXPECT_EQ(serial.summary_json, parallel.summary_json);
  EXPECT_EQ(obs::RenderJsonLines(serial.events),
            obs::RenderJsonLines(parallel.events));
}

struct DiaggedRun {
  RunResult result;
  std::string diag_summary;
  std::vector<obs::TraceEvent> events;
};

DiaggedRun RunDiagged(bool with_diag, bool with_faults,
                      size_t num_threads = 1) {
  DriftWorkload workload(/*seed=*/99);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.message_loss = with_faults ? 0.06 : 0.0;
  config.agent_drop = with_faults ? 0.03 : 0.0;
  FaultPlan plan(config, /*seed=*/31);

  obs::MemoryTracer tracer;
  diag::SamplerDiag diag;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 14;
  options.sampling_options.reset_length = 4;
  options.sampling_options.num_threads = num_threads;
  if (with_faults) options.fault_plan = &plan;
  options.tracer = &tracer;
  if (with_diag) options.diag = &diag;

  DiaggedRun out;
  out.result = RunEngineExperiment(workload, spec, options, kTicks,
                                   /*seed=*/7, "determinism")
                   .value();
  out.diag_summary = diag.SummaryJson();
  out.events = tracer.events();
  return out;
}

TEST(ObsDeterminismTest, DiagOffIsBitIdenticalToUndiagged) {
  // With the sampler diagnostics detached (the null fast path), the run
  // must match a diagnosed run of the same seed in everything except the
  // four per-batch diagnostic events — SamplerDiag observes the walks
  // but consumes no RNG and never steers them.
  const DiaggedRun diagged =
      RunDiagged(/*with_diag=*/true, /*with_faults=*/true);
  const DiaggedRun plain =
      RunDiagged(/*with_diag=*/false, /*with_faults=*/true);
  ASSERT_EQ(diagged.result.reported.size(), plain.result.reported.size());
  for (size_t i = 0; i < plain.result.reported.size(); ++i) {
    EXPECT_EQ(diagged.result.reported[i], plain.result.reported[i])
        << "tick " << i;
    EXPECT_EQ(diagged.result.ci_halfwidths[i],
              plain.result.ci_halfwidths[i]);
  }
  EXPECT_EQ(diagged.result.meter.Total(), plain.result.meter.Total());
  EXPECT_EQ(diagged.result.meter.walk_hops(),
            plain.result.meter.walk_hops());
  EXPECT_EQ(diagged.result.meter.weight_probes(),
            plain.result.meter.weight_probes());
  EXPECT_EQ(diagged.result.stats.snapshots, plain.result.stats.snapshots);
  EXPECT_EQ(diagged.result.stats.total_samples,
            plain.result.stats.total_samples);
  EXPECT_EQ(diagged.result.final_health, plain.result.final_health);
  const std::vector<std::string> diagged_lines = NormalizedLines(
      diagged.events, /*drop_audit=*/false, /*drop_diag=*/true);
  const std::vector<std::string> plain_lines =
      NormalizedLines(plain.events, /*drop_audit=*/false);
  ASSERT_EQ(diagged_lines.size(), plain_lines.size());
  for (size_t i = 0; i < plain_lines.size(); ++i) {
    EXPECT_EQ(diagged_lines[i], plain_lines[i]) << "line " << i;
  }
  // And the diagnosed trace really did carry the diagnostic events.
  EXPECT_GT(diagged.events.size(), plain.events.size());
}

TEST(ObsDeterminismTest, DiagStateIsThreadCountInvariant) {
  // The diagnostics fold per-walk buffers in walk-index order on the
  // main thread, so the full run summary (counts, TV, ESS, R-hat — all
  // %.17g) must be byte-identical for 1 vs 4 worker threads, and so
  // must the exported trace.
  const DiaggedRun serial =
      RunDiagged(/*with_diag=*/true, /*with_faults=*/true,
                 /*num_threads=*/1);
  const DiaggedRun parallel =
      RunDiagged(/*with_diag=*/true, /*with_faults=*/true,
                 /*num_threads=*/4);
  ASSERT_FALSE(serial.diag_summary.empty());
  EXPECT_EQ(serial.diag_summary, parallel.diag_summary);
  EXPECT_EQ(obs::RenderJsonLines(serial.events),
            obs::RenderJsonLines(parallel.events));
}

TEST(ObsDeterminismTest, NullTracerMatchesNoTracer) {
  // A NullTracer attached through the whole stack must behave exactly
  // like no tracer: enabled() == false short-circuits before payload
  // assembly.
  DriftWorkload workload(/*seed=*/12);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  obs::NullTracer null_tracer;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampling_options.walk_length = 14;
  options.sampling_options.reset_length = 4;
  options.tracer = &null_tracer;
  const RunResult with_null =
      RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/2)
          .value();
  EXPECT_EQ(null_tracer.events_emitted(), 0u);

  DriftWorkload workload2(/*seed=*/12);
  options.tracer = nullptr;
  const RunResult without =
      RunEngineExperiment(workload2, spec, options, kTicks, /*seed=*/2)
          .value();
  ASSERT_EQ(with_null.reported.size(), without.reported.size());
  for (size_t i = 0; i < without.reported.size(); ++i) {
    EXPECT_EQ(with_null.reported[i], without.reported[i]);
  }
  EXPECT_EQ(with_null.meter.Total(), without.meter.Total());
}

}  // namespace
}  // namespace digest
