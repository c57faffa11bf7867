// Unified performance suite: runs a fixed set of engine scenarios with
// warmup + repeated measurement, computes robust wall-clock statistics
// (median, MAD, p10/p90) and throughput (ticks/walks/samples/hops per
// second) from the prof layer, and writes the machine-readable perf
// trajectory: one BENCH_<scenario>.json per scenario plus a merged
// BENCH_SUITE.json. `tools/bench_compare.py` diffs two such files with
// noise-aware thresholds; CI runs it against the committed baseline.
//
// Scenario work is deterministic per (seed, scale): the suite verifies
// that every repeat of a scenario performs identical work (ticks,
// snapshots, samples, messages) and fails loudly if not — only the wall
// clock may vary between repeats.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "core/digest_node.h"
#include "core/engine.h"
#include "net/fault_plan.h"
#include "prof/profiler.h"
#include "workload/experiment.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace bench {
namespace {

// ---------------------------------------------------------------------
// Robust statistics over the per-repeat wall times.

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median absolute deviation — the suite's noise estimate. Unscaled (no
// 1.4826 normal-consistency factor); bench_compare.py applies its own
// multiplier.
double Mad(const std::vector<double>& v) {
  const double med = Median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::fabs(x - med));
  return Median(std::move(dev));
}

// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::string FmtMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", ms);
  return buf;
}

std::string FmtRate(double rate) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", rate);
  return buf;
}

// ---------------------------------------------------------------------
// Deterministic per-repeat work counts, for the exact-match half of the
// regression gate (and the repeat-stability check).

struct WorkCounts {
  uint64_t ticks = 0;
  uint64_t snapshots = 0;
  uint64_t total_samples = 0;
  uint64_t messages = 0;
  uint64_t degraded_ticks = 0;
  uint64_t walk_batches = 0;
  uint64_t walk_hops = 0;

  bool operator==(const WorkCounts& o) const {
    return ticks == o.ticks && snapshots == o.snapshots &&
           total_samples == o.total_samples && messages == o.messages &&
           degraded_ticks == o.degraded_ticks &&
           walk_batches == o.walk_batches && walk_hops == o.walk_hops;
  }
};

struct Scenario {
  const char* name;
  const char* description;
  // Builds the workload/spec/options, runs the engine experiment once
  // with `in` attached, and returns the run result. `in.profiler` is
  // always set; the auditor, diag and health monitor are the --audit /
  // --diag / --health instruments (null when off). Scenarios attach
  // them to their measured run, and the suite driver splices their
  // summaries into the extra object afterwards (--health steers walk
  // routing, so --health runs legitimately do different work than plain
  // runs). `wall_ns` receives the wall time of the engine run alone —
  // workload construction is setup, not measured. A scenario may
  // deposit a deterministic JSON object into `extra`; it is emitted
  // verbatim as the scenario's "extra" field.
  std::function<RunResult(const BenchArgs&, const obs::Instruments& in,
                          uint64_t* wall_ns, std::string* extra)>
      run;
};

// The summaries of the attached --audit / --diag / --health instruments,
// keyed and ordered as they appear in a scenario's extra object.
std::vector<std::pair<const char*, std::string>> InstrumentSummaries(
    const obs::Instruments& in) {
  std::vector<std::pair<const char*, std::string>> out;
  if (in.auditor != nullptr) {
    out.emplace_back("audit", in.auditor->SummaryJson());
  }
  if (in.diag != nullptr) out.emplace_back("diag", in.diag->SummaryJson());
  if (in.health != nullptr) {
    out.emplace_back("health", in.health->SummaryJson());
  }
  return out;
}

RunResult TimedExperiment(Workload& workload,
                          const ContinuousQuerySpec& spec,
                          const DigestEngineOptions& options, size_t ticks,
                          uint64_t seed, const char* label,
                          uint64_t* wall_ns) {
  const uint64_t t0 = options.profiler->ElapsedNs();
  RunResult run = UnwrapOrDie(
      RunEngineExperiment(workload, spec, options, ticks, seed, label),
      label);
  *wall_ns = options.profiler->ElapsedNs() - t0;
  return run;
}

ContinuousQuerySpec AvgSpec(const char* query, double delta, double eps,
                            double p) {
  return UnwrapOrDie(ContinuousQuerySpec::Create(
                         query, PrecisionSpec{delta, eps, p}),
                     "spec");
}

std::vector<Scenario> BuildScenarios() {
  std::vector<Scenario> scenarios;

  // PRED-3 scheduling over the exact central oracle: isolates the
  // extrapolator + scheduler cost (no walks at all).
  scenarios.push_back(
      {"pred_indep_exact",
       "PRED-3 + INDEP over the exact central oracle (TEMPERATURE): "
       "extrapolator/scheduler cost, no walks",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* /*extra*/) {
         TemperatureConfig config;
         config.num_units = args.Scaled(8000, 200);
         config.num_nodes = args.Scaled(530, 16);
         config.seed = args.seed;
         auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                     "workload");
         ContinuousQuerySpec spec =
             AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
         DigestEngineOptions options;
         options.scheduler = SchedulerKind::kPred;
         options.estimator = EstimatorKind::kIndependent;
         options.sampler = SamplerKind::kExactCentral;
         options.extrapolator.history_points = 3;
         options.Attach(in);
         return TimedExperiment(*workload, spec, options,
                                args.quick ? 120 : 400, args.seed,
                                "pred_indep_exact", wall_ns);
       }});

  // The full distributed pipeline the paper is about: PRED-3 + RPT over
  // the two-stage MCMC sampler. Walk-heavy; the headline scenario.
  scenarios.push_back(
      {"pred_rpt_mcmc",
       "PRED-3 + RPT over the two-stage MCMC sampler (TEMPERATURE): the "
       "full distributed query path",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* /*extra*/) {
         TemperatureConfig config;
         config.num_units = args.Scaled(2000, 200);
         config.num_nodes = args.Scaled(530, 16);
         config.seed = args.seed;
         auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                     "workload");
         ContinuousQuerySpec spec =
             AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
         DigestEngineOptions options;
         options.scheduler = SchedulerKind::kPred;
         options.estimator = EstimatorKind::kRepeated;
         options.sampler = SamplerKind::kTwoStageMcmc;
         options.extrapolator.history_points = 3;
         options.Attach(in);
         return TimedExperiment(*workload, spec, options,
                                args.quick ? 40 : 120, args.seed,
                                "pred_rpt_mcmc", wall_ns);
       }});

  // ALL scheduling: every tick samples, the densest walk workload per
  // simulated tick.
  scenarios.push_back(
      {"all_indep_mcmc",
       "ALL + INDEP over the two-stage MCMC sampler (TEMPERATURE): a "
       "snapshot query every tick",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* /*extra*/) {
         TemperatureConfig config;
         config.num_units = args.Scaled(2000, 200);
         config.num_nodes = args.Scaled(530, 16);
         config.seed = args.seed;
         auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                     "workload");
         ContinuousQuerySpec spec =
             AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
         DigestEngineOptions options;
         options.scheduler = SchedulerKind::kAll;
         options.estimator = EstimatorKind::kIndependent;
         options.sampler = SamplerKind::kTwoStageMcmc;
         options.Attach(in);
         return TimedExperiment(*workload, spec, options,
                                args.quick ? 25 : 80, args.seed,
                                "all_indep_mcmc", wall_ns);
       }});

  // Churning membership (MEMORY workload): stresses warm-agent reuse
  // and the estimator's retained-pool bookkeeping.
  scenarios.push_back(
      {"churn_rpt_mcmc",
       "PRED-3 + RPT over MCMC on the churning MEMORY workload",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* /*extra*/) {
         MemoryConfig config;
         config.num_units = args.Scaled(1000, 200);
         config.num_nodes = args.Scaled(820, 150);
         config.seed = args.seed + 17;
         auto workload =
             UnwrapOrDie(MemoryWorkload::Create(config), "workload");
         ContinuousQuerySpec spec =
             AvgSpec("SELECT AVG(memory) FROM R", 1.0, 2.0, 0.9);
         DigestEngineOptions options;
         options.scheduler = SchedulerKind::kPred;
         options.estimator = EstimatorKind::kRepeated;
         options.sampler = SamplerKind::kTwoStageMcmc;
         options.extrapolator.history_points = 3;
         options.Attach(in);
         return TimedExperiment(*workload, spec, options,
                                args.quick ? 30 : 90, args.seed,
                                "churn_rpt_mcmc", wall_ns);
       }});

  // Fault injection: retry/backoff, agent restarts, degraded fallback —
  // the robustness machinery's own cost, including fault-plan draws.
  scenarios.push_back(
      {"faults_mcmc",
       "ALL + RPT over MCMC under injected faults (5% loss, 2% drop, "
       "stalls): retry + degradation overhead",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* /*extra*/) {
         MemoryConfig config;
         config.num_units = args.Scaled(1000, 200);
         config.num_nodes = args.Scaled(820, 150);
         config.seed = args.seed + 17;
         auto workload =
             UnwrapOrDie(MemoryWorkload::Create(config), "workload");
         ContinuousQuerySpec spec =
             AvgSpec("SELECT AVG(memory) FROM R", 1.0, 2.0, 0.9);
         FaultPlanConfig faults;
         faults.message_loss = 0.05;
         faults.agent_drop = 0.05;
         faults.edge_spread = 0.5;
         faults.stall_fraction = 0.1;
         CheckOk(faults.Validate(), "fault config");
         FaultPlan plan(faults, args.seed + 1);
         DigestEngineOptions options;
         options.scheduler = SchedulerKind::kAll;
         options.estimator = EstimatorKind::kRepeated;
         options.fault_plan = &plan;
         options.sampling_options.walk_length = 60;
         options.sampling_options.reset_length = 15;
         options.Attach(in);
         return TimedExperiment(*workload, spec, options,
                                args.quick ? 20 : 60, args.seed,
                                "faults_mcmc", wall_ns);
       }});

  // Recovery path: ALL + RPT over MCMC under stall-heavy faults with a
  // checkpoint/kill/restore in the middle of the run. The hedged run is
  // the one measured and gated; an unhedged uninterrupted control run
  // feeds the "extra" object so the per-snapshot p90 message cost of
  // hedging-on vs hedging-off is part of the committed trajectory.
  scenarios.push_back(
      {"recovery_rpt_mcmc",
       "ALL + RPT over MCMC under stall-heavy faults with a mid-run "
       "kill/checkpoint/restore; extra compares hedged vs unhedged p90 "
       "per-snapshot message cost",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* extra) {
         const size_t ticks = args.quick ? 24 : 72;
         // Heterogeneous loss (edge_spread 1.0 puts concrete edges
         // anywhere from lossless to 2× the base rate) is what gives
         // hedging its edge: a walk stuck retrying in a lossy
         // neighborhood keeps burning messages there, while the
         // redundant walk forks from a donor agent somewhere cheaper.
         FaultPlanConfig faults;
         faults.message_loss = 0.15;
         faults.agent_drop = 0.02;
         faults.edge_spread = 1.0;
         faults.stall_fraction = 0.2;
         faults.stall_every = 6;
         faults.stall_length = 3;
         CheckOk(faults.Validate(), "fault config");

         struct PhaseOut {
           RunResult run;
           std::vector<double> snapshot_msgs;  // Meter delta per occasion.
         };
         // The auditor and diagnostics ride only the measured (hedged,
         // killed) run, so the ledger round-trips through the mid-run
         // checkpoint blob and the diag summary covers one run's walks.
         auto drive = [&](bool hedge, bool kill_mid_run,
                          const obs::Instruments& attached,
                          uint64_t* ns) -> PhaseOut {
           TemperatureConfig config;
           config.num_units = args.Scaled(2000, 200);
           config.num_nodes = args.Scaled(530, 16);
           config.seed = args.seed;
           auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                       "workload");
           ContinuousQuerySpec spec =
               AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
           FaultPlan plan(faults, args.seed + 1);
           DigestEngineOptions options;
           options.scheduler = SchedulerKind::kAll;
           options.estimator = EstimatorKind::kRepeated;
           options.sampler = SamplerKind::kTwoStageMcmc;
           options.sampling_options.walk_length = 60;
           options.sampling_options.reset_length = 15;
           options.sampling_options.hedge = hedge;
           options.estimator_options.allow_partial = true;
           options.fault_plan = &plan;
           options.Attach(attached);
           BeginInstrumentedRun(attached, workload->now(),
                                "recovery_rpt_mcmc");

           PhaseOut out;
           Rng rng(args.seed);
           const NodeId querying = UnwrapOrDie(
               workload->graph().RandomLiveNode(rng), "origin");
           workload->ProtectNode(querying);
           const uint64_t t0 = attached.profiler->ElapsedNs();
           auto engine = UnwrapOrDie(
               DigestEngine::Create(&workload->graph(), &workload->db(),
                                    spec, querying, rng.Fork(),
                                    &out.run.meter, options),
               "engine");
           uint64_t prev_total = 0;
           for (size_t t = 0; t < ticks; ++t) {
             CheckOk(workload->Advance(), "advance");
             plan.set_now(workload->now());
             const double truth = UnwrapOrDie(
                 workload->db().ExactAggregate(spec.query), "oracle");
             EngineTickResult tick =
                 UnwrapOrDie(engine->Tick(workload->now()), "tick");
             out.run.reported.push_back(tick.reported_value);
             out.run.truth.push_back(truth);
             out.run.ci_halfwidths.push_back(tick.ci_halfwidth);
             if (tick.degraded) ++out.run.degraded_ticks;
             if (attached.auditor != nullptr) {
               attached.auditor->RecordTruth(workload->now(), truth);
             }
             const uint64_t total = out.run.meter.Total();
             if (tick.snapshot_executed) {
               out.snapshot_msgs.push_back(
                   static_cast<double>(total - prev_total));
             }
             prev_total = total;
             if (kill_mid_run && t + 1 == ticks / 2) {
               // The session dies and a fresh process recovers it; the
               // fault plan and overlay live on (they are the network).
               const std::string blob =
                   UnwrapOrDie(engine->Checkpoint(), "checkpoint");
               engine.reset();
               out.run.meter.Reset();
               Rng fresh(args.seed);
               const NodeId requery = UnwrapOrDie(
                   workload->graph().RandomLiveNode(fresh), "origin");
               engine = UnwrapOrDie(
                   DigestEngine::Create(&workload->graph(),
                                        &workload->db(), spec, requery,
                                        fresh.Fork(), &out.run.meter,
                                        options),
                   "engine");
               CheckOk(engine->Restore(blob), "restore");
               prev_total = out.run.meter.Total();
             }
           }
           out.run.stats = engine->stats();
           out.run.correlation_estimate = engine->correlation_estimate();
           out.run.final_health = engine->health();
           if (attached.auditor != nullptr) attached.auditor->FinalizeRun();
           *ns += attached.profiler->ElapsedNs() - t0;
           out.run.precision = UnwrapOrDie(
               EvaluatePrecision(out.run.reported, out.run.truth,
                                 spec.precision),
               "precision");
           out.run.widened_precision = UnwrapOrDie(
               EvaluatePrecisionWidened(out.run.reported, out.run.truth,
                                        out.run.ci_halfwidths,
                                        spec.precision),
               "widened precision");
           return out;
         };

         uint64_t ns = 0;
         PhaseOut hedged =
             drive(/*hedge=*/true, /*kill_mid_run=*/true, in, &ns);
         PhaseOut unhedged = drive(/*hedge=*/false, /*kill_mid_run=*/false,
                                   {.profiler = in.profiler}, &ns);
         *wall_ns = ns;
         std::string x = "{\"p90_snapshot_msgs_hedged\":";
         x += FmtRate(Percentile(hedged.snapshot_msgs, 90));
         x += ",\"p90_snapshot_msgs_unhedged\":";
         x += FmtRate(Percentile(unhedged.snapshot_msgs, 90));
         x += ",\"hedge_launches\":";
         x += std::to_string(hedged.run.meter.hedge_launches());
         x += ",\"hedged_duplicates\":";
         x += std::to_string(hedged.run.meter.hedged_duplicates());
         x += ",\"partial_snapshots\":";
         x += std::to_string(hedged.run.stats.partial_snapshots);
         x += ",\"final_health\":\"";
         x += SessionHealthName(hedged.run.final_health);
         x += "\"}";
         *extra = std::move(x);
         return hedged.run;
       }});

  // Partition recovery: seeded partition/heal episodes split the overlay
  // into components while the engine keeps answering. The measured run
  // routes around the quarantine set its breakers build (peer-health
  // steering is always on here — it is the thing being measured); the
  // extra also carries a breakers-off ablated control, so the committed
  // trajectory records what the steering buys: un-widened (eps+delta)
  // per-tick coverage of both runs against the binomial floor.
  scenarios.push_back(
      {"partition_rpt_mcmc",
       "ALL + RPT over MCMC through seeded partition/heal episodes: "
       "quarantine-aware routing (measured) vs a breakers-off ablation; "
       "extra compares both coverages against the binomial floor",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* extra) {
         const size_t ticks = args.quick ? 24 : 72;
         FaultPlanConfig faults;
         faults.message_loss = 0.02;
         faults.edge_spread = 0.5;
         faults.loss_asymmetry = 0.5;
         faults.partition_every = 12;
         faults.partition_length = 6;
         faults.partition_components = 2;
         CheckOk(faults.Validate(), "fault config");

         auto drive = [&](const obs::Instruments& attached,
                          uint64_t* ns) -> RunResult {
           TemperatureConfig config;
           config.num_units = args.Scaled(2000, 200);
           config.num_nodes = args.Scaled(530, 16);
           config.seed = args.seed;
           auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                       "workload");
           ContinuousQuerySpec spec =
               AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
           FaultPlan plan(faults, args.seed + 1);
           DigestEngineOptions options;
           options.scheduler = SchedulerKind::kAll;
           options.estimator = EstimatorKind::kRepeated;
           options.sampler = SamplerKind::kTwoStageMcmc;
           options.sampling_options.walk_length = 60;
           options.sampling_options.reset_length = 15;
           options.estimator_options.allow_partial = true;
           options.fault_plan = &plan;
           options.Attach(attached);
           const uint64_t t0 = attached.profiler->ElapsedNs();
           RunResult run = UnwrapOrDie(
               RunEngineExperiment(*workload, spec, options, ticks,
                                   args.seed, "partition_rpt_mcmc"),
               "partition_rpt_mcmc");
           *ns += attached.profiler->ElapsedNs() - t0;
           return run;
         };

         uint64_t ns = 0;
         // Measured run: quarantine-aware. Rides the suite monitor when
         // --health is on (so the driver's spliced summary reflects this
         // run), else a scenario-local one — steering is on either way.
         PeerHealthMonitor local_monitor;
         obs::Instruments steered_in = in;
         if (steered_in.health == nullptr) steered_in.health = &local_monitor;
         RunResult steered = drive(steered_in, &ns);
         const PeerHealthMonitor* aware = steered_in.health;
         const uint64_t opens = aware->opens();
         const uint64_t reopens = aware->reopens();
         const double flap = aware->FlapRate();
         // Ablated control: same faults and monitor, but breakers never
         // open — walks keep proposing into the partition.
         PeerHealthMonitor ablated_monitor(/*breakers_enabled=*/false);
         RunResult ablated = drive(
             {.profiler = in.profiler, .health = &ablated_monitor}, &ns);
         *wall_ns = ns;

         const double p = 0.95;
         const double floor =
             p - 2.0 * std::sqrt(p * (1.0 - p) /
                                 static_cast<double>(ticks));
         const double cov_aware =
             steered.precision.within_tolerance_fraction;
         const double cov_ablated =
             ablated.precision.within_tolerance_fraction;
         std::string x = "{\"coverage_aware\":";
         x += FmtRate(cov_aware);
         x += ",\"coverage_ablated\":";
         x += FmtRate(cov_ablated);
         x += ",\"coverage_floor\":";
         x += FmtRate(floor);
         x += ",\"aware_above_floor\":";
         x += cov_aware >= floor ? "true" : "false";
         x += ",\"ablated_breached\":";
         x += cov_ablated < floor ? "true" : "false";
         x += ",\"breaker_opens\":";
         x += std::to_string(opens);
         x += ",\"breaker_reopens\":";
         x += std::to_string(reopens);
         x += ",\"flap_rate\":";
         x += FmtRate(flap);
         x += ",\"degraded_ticks_aware\":";
         x += std::to_string(steered.degraded_ticks);
         x += ",\"degraded_ticks_ablated\":";
         x += std::to_string(ablated.degraded_ticks);
         x += "}";
         *extra = std::move(x);
         return steered;
       }});

  // Deterministic parallel walk execution: the full distributed
  // pipeline with the sampling tier fanned out over a worker pool. Each
  // repeat drives the identical session at 1/2/4/8 threads (verifying
  // the reported series stay bit-identical across thread counts — this
  // is a regression gate, not just a timer) and the measured wall time
  // is the 4-thread run. The extra object carries the thread/wall-ms
  // speedup curve; it is computed once on the first repeat and reused
  // verbatim so the repeat-stability check sees one deterministic
  // string (wall clocks differ between repeats, the work never does).
  // host_cores records the machine the curve was taken on: speedup is
  // bounded by physical cores, so a 1-core container honestly reports
  // ~1x at every thread count.
  scenarios.push_back(
      {"parallel_rpt_mcmc",
       "PRED-3 + RPT over MCMC with the parallel walk executor: "
       "bit-identical across 1/2/4/8 threads; extra holds the speedup "
       "curve (4-thread run is the one measured)",
       [cached_extra = std::make_shared<std::string>()](
           const BenchArgs& args, const obs::Instruments& in,
           uint64_t* wall_ns, std::string* extra) {
         const size_t kThreadCounts[] = {1, 2, 4, 8};
         std::vector<double> curve_ms;
         RunResult measured;
         std::vector<double> reference_reported;
         std::vector<std::pair<const char*, std::string>>
             reference_summaries;
         for (size_t threads : kThreadCounts) {
           TemperatureConfig config;
           config.num_units = args.Scaled(2000, 200);
           config.num_nodes = args.Scaled(530, 16);
           config.seed = args.seed;
           auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                       "workload");
           ContinuousQuerySpec spec =
               AvgSpec("SELECT AVG(temperature) FROM R", 4.0, 2.0, 0.95);
           DigestEngineOptions options;
           options.scheduler = SchedulerKind::kPred;
           options.estimator = EstimatorKind::kRepeated;
           options.sampler = SamplerKind::kTwoStageMcmc;
           options.extrapolator.history_points = 3;
           options.sampling_options.num_threads = threads;
           options.Attach(in);
           uint64_t ns = 0;
           RunResult run = TimedExperiment(*workload, spec, options,
                                           args.quick ? 40 : 120, args.seed,
                                           "parallel_rpt_mcmc", &ns);
           curve_ms.push_back(static_cast<double>(ns) / 1e6);
           if (threads == kThreadCounts[0]) {
             reference_reported = run.reported;
           } else if (run.reported != reference_reported) {
             std::fprintf(stderr,
                          "FATAL: parallel_rpt_mcmc reported different "
                          "estimates at %zu threads than at 1 — the "
                          "parallel executor is not deterministic\n",
                          threads);
             std::abort();
           }
           // The instrument summaries must be byte-identical at any
           // thread count too: the audit ledger is a deterministic fold
           // over the reported series, and every diag and health fold
           // happens in walk-index order on the calling thread.
           const auto summaries = InstrumentSummaries(in);
           if (threads == kThreadCounts[0]) reference_summaries = summaries;
           for (size_t k = 0; k < summaries.size(); ++k) {
             if (summaries[k].second != reference_summaries[k].second) {
               std::fprintf(stderr,
                            "FATAL: parallel_rpt_mcmc %s summary differs "
                            "at %zu threads vs 1 — it is not "
                            "thread-count-invariant\n",
                            summaries[k].first, threads);
               std::abort();
             }
           }
           if (threads == 4) {
             measured = std::move(run);
             *wall_ns = ns;
           }
         }
         if (cached_extra->empty()) {
           std::string x = "{\"threads\":[1,2,4,8],\"wall_ms\":[";
           for (size_t i = 0; i < curve_ms.size(); ++i) {
             if (i > 0) x.push_back(',');
             x += FmtMs(curve_ms[i]);
           }
           x += "],\"speedup\":[";
           for (size_t i = 0; i < curve_ms.size(); ++i) {
             if (i > 0) x.push_back(',');
             x += FmtRate(curve_ms[i] > 0 ? curve_ms[0] / curve_ms[i] : 0);
           }
           x += "],\"speedup_at_4\":";
           x += FmtRate(curve_ms[2] > 0 ? curve_ms[0] / curve_ms[2] : 0);
           x += ",\"host_cores\":";
           x += std::to_string(std::thread::hardware_concurrency());
           x += ",\"bit_identical_across_counts\":true}";
           *cached_extra = std::move(x);
         }
         *extra = *cached_extra;
         return measured;
       }});

  // --- multiquery_rpt_mcmc -------------------------------------------
  // The per-node multi-tenant runtime: 1/2/4/8 concurrent AVG queries
  // on one DigestNode, swept in both node modes — coalesced snapshot
  // scheduling vs the warm-pool-only ablation. The measured run (work
  // counts, wall clock, --audit/--diag/--health attachments) is the
  // 8-query coalesced one; every other run exists to chart the
  // marginal message cost of an added query in each mode. The extra
  // object commits both curves plus ratio_q8 (coalesced 4->8 marginal
  // over the ablation's — the sharing headline bench_compare.py gates
  // at <= 0.6) and coverage_ok_all (per-query auditors over the
  // measured run: every tenant's (ε, p) floor must hold under the
  // shared sample pool). All fields are deterministic counts, so the
  // extra participates in the repeat-stability check directly.
  scenarios.push_back(
      {"multiquery_rpt_mcmc",
       "1/2/4/8 concurrent AVG queries on one DigestNode (RPT over "
       "MCMC), coalesced vs warm-pool-only; extra holds both marginal-"
       "message curves, ratio_q8, and the per-query coverage verdict "
       "(8-query coalesced run is the one measured)",
       [](const BenchArgs& args, const obs::Instruments& in,
          uint64_t* wall_ns, std::string* extra) {
         const size_t kQueryCounts[] = {1, 2, 4, 8};
         const size_t ticks = args.quick ? 16 : 40;
         struct NodeRunOut {
           uint64_t messages = 0;
           uint64_t coalesced_ticks = 0;
           bool coverage_ok_all = true;
           EngineStats stats;     // Summed across the node's tenants.
           MessageMeter meter;
           size_t degraded = 0;
         };
         auto drive = [&](bool coalesce, size_t q, bool measured,
                          uint64_t* ns) {
           NodeRunOut out;
           TemperatureConfig config;
           config.num_units = args.Scaled(2000, 300);
           config.num_nodes = args.Scaled(132, 36);
           config.seed = args.seed;
           auto workload = UnwrapOrDie(
               TemperatureWorkload::Create(config), "workload");
           DigestEngineOptions options;
           options.scheduler = SchedulerKind::kAll;
           options.estimator = EstimatorKind::kRepeated;
           options.sampler = SamplerKind::kTwoStageMcmc;
           options.sampling_options.walk_length = 500;  // Mesh mixing.
           options.sampling_options.reset_length = 72;
           if (measured) {
             // Each query below swaps in its own auditor.
             options.Attach(in);
             if (in.diag != nullptr) in.diag->Reset();
             if (in.health != nullptr) in.health->Reset();
           }
           DigestNodeOptions node_options;
           node_options.coalesce_snapshots = coalesce;
           Rng rng(args.seed);
           const NodeId self = UnwrapOrDie(
               workload->graph().RandomLiveNode(rng), "node");
           MessageMeter meter;
           const uint64_t t0 = in.profiler->ElapsedNs();
           auto node = UnwrapOrDie(
               DigestNode::Create(&workload->graph(), &workload->db(),
                                  self, rng.Fork(), &meter, options,
                                  node_options),
               "DigestNode");
           // Per-query auditors for the measured run: the suite's
           // --audit auditor takes the tightest-ε tenant (one auditor
           // pins one contract, and its summary is what the driver
           // splices into the extra), scenario-local ones the rest.
           std::vector<std::unique_ptr<audit::PrecisionAuditor>> local;
           std::vector<audit::PrecisionAuditor*> query_auditors;
           const ContinuousQuerySpec oracle_spec =
               AvgSpec("SELECT AVG(temperature) FROM R", 8.0, 0.5, 0.95);
           std::vector<QueryId> ids;
           for (size_t i = 0; i < q; ++i) {
             const double eps =
                 0.5 + 1.5 * static_cast<double>(i) /
                           static_cast<double>(std::max<size_t>(q - 1, 1));
             ContinuousQuerySpec spec =
                 AvgSpec("SELECT AVG(temperature) FROM R", 8.0, eps, 0.95);
             DigestEngineOptions per_query = options;
             if (measured) {
               audit::PrecisionAuditor* qa;
               if (i == 0 && in.auditor != nullptr) {
                 qa = in.auditor;
               } else {
                 local.push_back(
                     std::make_unique<audit::PrecisionAuditor>());
                 qa = local.back().get();
               }
               qa->BeginRun("multiquery q" + std::to_string(i + 1));
               per_query.auditor = qa;
               query_auditors.push_back(qa);
             }
             ids.push_back(
                 UnwrapOrDie(node->IssueQuery(spec, per_query),
                             "IssueQuery"));
           }
           for (size_t t = 1; t <= ticks; ++t) {
             CheckOk(workload->Advance(), "Advance");
             CheckOk(node->Tick(static_cast<int64_t>(t)).status(),
                     "Tick");
             if (!query_auditors.empty()) {
               const double oracle = UnwrapOrDie(
                   workload->db().ExactAggregate(oracle_spec.query),
                   "oracle");
               for (audit::PrecisionAuditor* qa : query_auditors) {
                 qa->RecordTruth(static_cast<int64_t>(t), oracle);
               }
             }
           }
           *ns = in.profiler->ElapsedNs() - t0;
           for (audit::PrecisionAuditor* qa : query_auditors) {
             qa->FinalizeRun();
             out.coverage_ok_all =
                 out.coverage_ok_all && qa->Summarize().coverage_ok;
           }
           out.messages = meter.Total();
           out.coalesced_ticks = node->coalesced_ticks();
           for (QueryId id : ids) {
             const EngineStats& s =
                 UnwrapOrDie(node->engine(id), "engine")->stats();
             out.stats.ticks += s.ticks;
             out.stats.snapshots += s.snapshots;
             out.stats.result_updates += s.result_updates;
             out.stats.total_samples += s.total_samples;
             out.stats.fresh_samples += s.fresh_samples;
             out.stats.retained_samples += s.retained_samples;
             out.stats.degraded_ticks += s.degraded_ticks;
             out.stats.partial_snapshots += s.partial_snapshots;
             out.degraded += s.degraded_ticks;
           }
           out.meter = meter;
           return out;
         };
         std::vector<uint64_t> msgs_coalesced, msgs_warm;
         NodeRunOut measured_out;
         for (int mode = 0; mode < 2; ++mode) {
           const bool coalesce = mode == 0;
           for (size_t q : kQueryCounts) {
             const bool measured = coalesce && q == 8;
             uint64_t ns = 0;
             NodeRunOut out = drive(coalesce, q, measured, &ns);
             (coalesce ? msgs_coalesced : msgs_warm).push_back(
                 out.messages);
             if (measured) {
               measured_out = std::move(out);
               *wall_ns = ns;
             }
           }
         }
         auto marginals = [&](const std::vector<uint64_t>& msgs) {
           std::vector<double> m;
           for (size_t k = 1; k < msgs.size(); ++k) {
             m.push_back(static_cast<double>(msgs[k] - msgs[k - 1]) /
                         static_cast<double>(kQueryCounts[k] -
                                             kQueryCounts[k - 1]));
           }
           return m;
         };
         const std::vector<double> marg_c = marginals(msgs_coalesced);
         const std::vector<double> marg_w = marginals(msgs_warm);
         const double ratio_q8 =
             marg_w.back() > 0 ? marg_c.back() / marg_w.back() : 0;
         auto append_u64s = [](std::string* x,
                               const std::vector<uint64_t>& v) {
           for (size_t i = 0; i < v.size(); ++i) {
             if (i > 0) x->push_back(',');
             *x += std::to_string(v[i]);
           }
         };
         auto append_rates = [](std::string* x,
                                const std::vector<double>& v) {
           for (size_t i = 0; i < v.size(); ++i) {
             if (i > 0) x->push_back(',');
             *x += FmtRate(v[i]);
           }
         };
         std::string x = "{\"queries\":[1,2,4,8],\"messages_coalesced\":[";
         append_u64s(&x, msgs_coalesced);
         x += "],\"messages_warm_pool\":[";
         append_u64s(&x, msgs_warm);
         x += "],\"marginal_coalesced\":[";
         append_rates(&x, marg_c);
         x += "],\"marginal_warm_pool\":[";
         append_rates(&x, marg_w);
         x += "],\"ratio_q8\":";
         x += FmtRate(ratio_q8);
         x += ",\"coalesced_ticks_q8\":";
         x += std::to_string(measured_out.coalesced_ticks);
         x += ",\"coverage_ok_all\":";
         x += measured_out.coverage_ok_all ? "true" : "false";
         x += "}";
         *extra = std::move(x);
         RunResult run;
         run.stats = measured_out.stats;
         run.meter = measured_out.meter;
         run.degraded_ticks = measured_out.degraded;
         return run;
       }});

  return scenarios;
}

// ---------------------------------------------------------------------
// JSON rendering. Layout is pinned by tools/bench_compare.py and
// documented in results/README.md; bump the schema string on change.

constexpr const char* kScenarioSchema = "digest-bench-v1";
constexpr const char* kSuiteSchema = "digest-bench-suite-v1";

struct ScenarioReport {
  std::string name;
  std::string description;
  WorkCounts counts;
  std::vector<double> wall_ms;  // One per measured repeat.
  std::string prof_json;        // Aggregated Profiler::ToJson().
  std::string extra_json;       // Scenario-deposited object; may be empty.
};

std::string RenderScenarioJson(const ScenarioReport& r,
                               const BenchArgs& args, size_t warmup) {
  std::string out = "{\"schema\":\"";
  out += kScenarioSchema;
  out += "\",\"scenario\":\"";
  out += r.name;
  out += "\",\"description\":\"";
  AppendJsonEscaped(&out, r.description);
  out += "\",\"config\":{\"scale\":";
  out += FmtRate(args.scale);
  out += ",\"seed\":";
  out += std::to_string(args.seed);
  out += ",\"quick\":";
  out += args.quick ? "true" : "false";
  out += ",\"warmup\":";
  out += std::to_string(warmup);
  out += ",\"repeats\":";
  out += std::to_string(r.wall_ms.size());
  out += "},\"counts\":{\"ticks\":";
  out += std::to_string(r.counts.ticks);
  out += ",\"snapshots\":";
  out += std::to_string(r.counts.snapshots);
  out += ",\"total_samples\":";
  out += std::to_string(r.counts.total_samples);
  out += ",\"messages\":";
  out += std::to_string(r.counts.messages);
  out += ",\"degraded_ticks\":";
  out += std::to_string(r.counts.degraded_ticks);
  out += ",\"walk_batches\":";
  out += std::to_string(r.counts.walk_batches);
  out += ",\"walk_hops\":";
  out += std::to_string(r.counts.walk_hops);
  out += "},\"wall_ms\":{\"median\":";
  const double median = Median(r.wall_ms);
  out += FmtMs(median);
  out += ",\"mad\":";
  out += FmtMs(Mad(r.wall_ms));
  out += ",\"p10\":";
  out += FmtMs(Percentile(r.wall_ms, 10));
  out += ",\"p90\":";
  out += FmtMs(Percentile(r.wall_ms, 90));
  out += ",\"min\":";
  out += FmtMs(*std::min_element(r.wall_ms.begin(), r.wall_ms.end()));
  out += ",\"max\":";
  out += FmtMs(*std::max_element(r.wall_ms.begin(), r.wall_ms.end()));
  out += ",\"repeats\":[";
  for (size_t i = 0; i < r.wall_ms.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += FmtMs(r.wall_ms[i]);
  }
  out += "]},\"throughput\":{";
  const double secs = median / 1e3;
  out += "\"ticks_per_sec\":";
  out += FmtRate(secs > 0 ? static_cast<double>(r.counts.ticks) / secs : 0);
  out += ",\"samples_per_sec\":";
  out += FmtRate(
      secs > 0 ? static_cast<double>(r.counts.total_samples) / secs : 0);
  out += ",\"walks_per_sec\":";
  out += FmtRate(
      secs > 0 ? static_cast<double>(r.counts.walk_batches) / secs : 0);
  out += ",\"hops_per_sec\":";
  out += FmtRate(
      secs > 0 ? static_cast<double>(r.counts.walk_hops) / secs : 0);
  out += "},\"prof\":";
  out += r.prof_json;
  if (!r.extra_json.empty()) {
    out += ",\"extra\":";
    out += r.extra_json;
  }
  out.push_back('}');
  return out;
}

// ---------------------------------------------------------------------

int Run(int argc, char** argv) {
  const std::vector<ExtraFlag> suite_flags = {
      {"--repeats=", "measured repeats per scenario (default 5; 3 with "
                     "--quick)"},
      {"--warmup=", "unmeasured warmup runs per scenario (default 1)"},
      {"--out-dir=", "directory for BENCH_*.json (default .)"},
      {"--scenario=", "run only the named scenario (repeatable)"}};
  const BenchArgs args = BenchArgs::Parse(argc, argv, suite_flags);
  // The suite owns its profiler (one per scenario) and its repeat
  // structure; the per-bench export flags don't compose with that.
  // --audit and --diag DO compose: both are deterministic per run, so
  // their summaries join each scenario's extra object and the
  // repeat-stability check. One consistent rejection message for the
  // rest (RejectFlag).
  const char* why =
      "the suite always profiles internally; use the individual bench "
      "binaries for trace exports";
  if (args.prof) RejectFlag(argv[0], "--prof", why);
  if (!args.trace_path.empty()) RejectFlag(argv[0], "--trace", why);
  if (!args.trace_jsonl_path.empty()) {
    RejectFlag(argv[0], "--trace-jsonl", why);
  }
  if (!args.metrics_path.empty()) RejectFlag(argv[0], "--metrics", why);
  size_t repeats = args.quick ? 3 : 5;
  size_t warmup = 1;
  std::string out_dir = ".";
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = BenchArgs::ParseUintFlag(argv[0], "--repeats", argv[i] + 10,
                                         1, suite_flags);
    } else if (std::strncmp(argv[i], "--warmup=", 9) == 0) {
      warmup = BenchArgs::ParseUintFlag(argv[0], "--warmup", argv[i] + 9, 0,
                                        suite_flags);
    } else if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      only.push_back(argv[i] + 11);
    }
  }

  std::vector<Scenario> scenarios = BuildScenarios();
  if (!only.empty()) {
    std::vector<Scenario> filtered;
    for (const Scenario& s : scenarios) {
      if (std::find(only.begin(), only.end(), s.name) != only.end()) {
        filtered.push_back(s);
      }
    }
    if (filtered.size() != only.size()) {
      std::fprintf(stderr, "bench_suite: unknown scenario in --scenario "
                           "(known:");
      for (const Scenario& s : scenarios) {
        std::fprintf(stderr, " %s", s.name);
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    scenarios = std::move(filtered);
  }

  std::printf("=== bench_suite: %zu scenario(s), %zu warmup + %zu "
              "measured repeats, scale=%.2f seed=%llu ===\n\n",
              scenarios.size(), warmup, repeats, args.scale,
              static_cast<unsigned long long>(args.seed));

  // One auditor, diagnostics aggregator and health monitor for the
  // whole suite, as the flags ask: each engine run opens its own audit
  // window and resets the other two (BeginInstrumentedRun), so the
  // summaries spliced into a scenario's extra reflect that scenario's
  // measured run alone.
  audit::PrecisionAuditor suite_auditor;
  diag::SamplerDiag suite_diag;
  PeerHealthMonitor suite_health;
  const obs::Instruments instruments{
      .auditor = args.audit ? &suite_auditor : nullptr,
      .diag = args.diag ? &suite_diag : nullptr,
      .health = args.health ? &suite_health : nullptr};

  std::vector<ScenarioReport> reports;
  for (const Scenario& scenario : scenarios) {
    std::fprintf(stderr, "[bench_suite] %s ...\n", scenario.name);
    // One profiler per scenario, spans off (aggregates only): phase
    // totals accumulate over the measured repeats; warmups run against
    // a throwaway profiler so they never pollute the stats.
    prof::ProfilerOptions popt;
    popt.capture_spans = false;
    for (size_t w = 0; w < warmup; ++w) {
      prof::Profiler scratch(popt);
      obs::Instruments warm = instruments;
      warm.profiler = &scratch;
      uint64_t ignored = 0;
      std::string scratch_extra;
      scenario.run(args, warm, &ignored, &scratch_extra);
    }
    prof::Profiler profiler(popt);
    obs::Instruments measured = instruments;
    measured.profiler = &profiler;
    ScenarioReport report;
    report.name = scenario.name;
    report.description = scenario.description;
    for (size_t rep = 0; rep < repeats; ++rep) {
      const uint64_t batches0 =
          profiler.stats(prof::Phase::kWalkBatch).calls;
      const uint64_t hops0 =
          profiler.stats(prof::Phase::kWalkAdvance).items;
      uint64_t wall_ns = 0;
      std::string extra;
      RunResult run = scenario.run(args, measured, &wall_ns, &extra);
      // Splice the measured run's instrument summaries into the extra
      // object — audit coverage, δ-compliance, budget burn and
      // attribution; diag mixing and load; health breakers and
      // quarantine — so they land in BENCH_*.json and bench_compare.py
      // gates them alongside the perf counters.
      for (const auto& [key, json] : InstrumentSummaries(measured)) {
        const std::string field = "\"" + std::string(key) + "\":" + json;
        if (extra.empty()) {
          extra = "{" + field + "}";
        } else {
          extra.insert(extra.size() - 1, "," + field);
        }
      }
      WorkCounts counts;
      counts.ticks = run.stats.ticks;
      counts.snapshots = run.stats.snapshots;
      counts.total_samples = run.stats.total_samples;
      counts.messages = run.meter.Total();
      counts.degraded_ticks = run.degraded_ticks;
      counts.walk_batches =
          profiler.stats(prof::Phase::kWalkBatch).calls - batches0;
      counts.walk_hops =
          profiler.stats(prof::Phase::kWalkAdvance).items - hops0;
      if (rep == 0) {
        report.counts = counts;
        report.extra_json = extra;
      } else if (!(counts == report.counts) || extra != report.extra_json) {
        std::fprintf(stderr,
                     "FATAL: scenario '%s' repeat %zu did different work "
                     "than repeat 0 — the run is not deterministic\n",
                     scenario.name, rep);
        return 1;
      }
      report.wall_ms.push_back(static_cast<double>(wall_ns) / 1e6);
    }
    report.prof_json = profiler.ToJson();
    reports.push_back(std::move(report));
  }

  // Human-readable roll-up.
  TablePrinter table({"scenario", "median ms", "mad", "p10", "p90",
                      "samples/s", "hops/s"});
  for (const ScenarioReport& r : reports) {
    const double median = Median(r.wall_ms);
    const double secs = median / 1e3;
    table.AddRow(
        {r.name, Fmt("%.2f", median), Fmt("%.2f", Mad(r.wall_ms)),
         Fmt("%.2f", Percentile(r.wall_ms, 10)),
         Fmt("%.2f", Percentile(r.wall_ms, 90)),
         Fmt("%.3g",
             secs > 0 ? static_cast<double>(r.counts.total_samples) / secs
                      : 0),
         Fmt("%.3g", secs > 0
                         ? static_cast<double>(r.counts.walk_hops) / secs
                         : 0)});
  }
  table.Print();

  // Machine-readable trajectory: one file per scenario + the merged
  // suite file bench_compare.py consumes.
  std::string suite = "{\"schema\":\"";
  suite += kSuiteSchema;
  suite += "\",\"config\":{\"scale\":";
  suite += FmtRate(args.scale);
  suite += ",\"seed\":";
  suite += std::to_string(args.seed);
  suite += ",\"quick\":";
  suite += args.quick ? "true" : "false";
  suite += ",\"warmup\":";
  suite += std::to_string(warmup);
  suite += ",\"repeats\":";
  suite += std::to_string(repeats);
  suite += "},\"scenarios\":{";
  bool first = true;
  for (const ScenarioReport& r : reports) {
    const std::string json = RenderScenarioJson(r, args, warmup);
    const std::string path = out_dir + "/BENCH_" + r.name + ".json";
    CheckOk(obs::WriteFile(path, json + "\n"), path.c_str());
    std::printf("wrote %s\n", path.c_str());
    if (!first) suite.push_back(',');
    first = false;
    suite.push_back('"');
    suite += r.name;
    suite += "\":";
    suite += json;
  }
  suite += "}}";
  const std::string suite_path = out_dir + "/BENCH_SUITE.json";
  CheckOk(obs::WriteFile(suite_path, suite + "\n"), suite_path.c_str());
  std::printf("wrote %s\n", suite_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
