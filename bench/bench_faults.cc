// Robustness datapoints under deterministic fault injection: sweeps
// message-loss and agent-drop rates over the churning MEMORY workload
// and reports, per fault level, how often the engine had to degrade,
// what the retry/restart overhead cost in messages, and how well the
// reported series tracked ground truth under the widened per-tick
// contract (max(ε, ci[t]) + δ).
//
// The engine runs ALL+RPT so every tick is a sampling occasion — the
// densest possible exposure to the injected faults.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "obs/bridge.h"
#include "core/engine.h"
#include "net/fault_plan.h"
#include "workload/experiment.h"
#include "workload/memory.h"

namespace digest {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsSession obs(args);
  std::printf("=== Robustness under injected faults (fault plan sweep) ===\n");
  std::printf(
      "MEMORY workload (churning membership), ALL+RPT engine, AVG query\n"
      "epsilon=2 delta=1 p=0.9; per-edge loss heterogeneity 0.5, retries\n"
      "per RetryPolicy defaults; 'overhead' = (retries + restarts) /\n"
      "total messages, 'within (widened)' = ticks meeting the per-tick\n"
      "contract max(eps, ci[t]) + delta\n\n");

  const size_t ticks = args.quick ? 30 : 100;
  const std::vector<double> losses =
      args.quick ? std::vector<double>{0.0, 0.10}
                 : std::vector<double>{0.0, 0.02, 0.05, 0.10};
  const std::vector<double> drops = args.quick
                                        ? std::vector<double>{0.0, 0.05}
                                        : std::vector<double>{0.0, 0.02, 0.05};

  TablePrinter table({"loss", "drop", "ticks", "degraded", "losses",
                      "retries", "restarts", "total msgs", "overhead",
                      "mean |err|", "within (widened)"});
  for (double loss : losses) {
    for (double drop : drops) {
      MemoryConfig config;
      config.num_units = args.Scaled(1000, 200);
      config.num_nodes = args.Scaled(820, 150);
      config.seed = args.seed + 17;
      auto workload = UnwrapOrDie(MemoryWorkload::Create(config), "workload");
      ContinuousQuerySpec spec = UnwrapOrDie(
          ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                      PrecisionSpec{1.0, 2.0, 0.9}),
          "spec");

      std::fprintf(stderr, "[bench_faults] loss=%.0f%% drop=%.0f%% ...\n",
                   100.0 * loss, 100.0 * drop);
      FaultPlanConfig faults;
      faults.message_loss = loss;
      faults.agent_drop = drop;
      faults.edge_spread = 0.5;
      CheckOk(faults.Validate(), "fault config");
      FaultPlan plan(faults, args.seed + 1);

      DigestEngineOptions options;
      options.scheduler = SchedulerKind::kAll;
      options.estimator = EstimatorKind::kRepeated;
      options.fault_plan = &plan;
      // Tuned walk lengths: a full ln²N cold walk at this scale takes
      // ~180 hops, which a 5% per-hop agent-drop rate almost never lets
      // finish — including on the very first occasion, where no retained
      // pool exists to degrade to. These lengths keep the fault sweep in
      // the regime where retry + degradation (not guaranteed timeout) is
      // what is being measured.
      options.sampling_options.walk_length = 60;
      options.sampling_options.reset_length = 15;
      options.Attach(obs.instruments());
      const std::string run_label = "loss=" + Fmt("%.0f%%", 100.0 * loss) +
                                    " drop=" + Fmt("%.0f%%", 100.0 * drop);
      RunResult run = UnwrapOrDie(
          RunEngineExperiment(*workload, spec, options, ticks, args.seed,
                              run_label),
          "run");

      const double overhead =
          run.meter.Total() > 0
              ? 100.0 * static_cast<double>(run.meter.FaultOverhead()) /
                    static_cast<double>(run.meter.Total())
              : 0.0;
      table.AddRow(
          {Fmt("%.0f%%", 100.0 * loss), Fmt("%.0f%%", 100.0 * drop),
           FmtInt(ticks), FmtInt(run.degraded_ticks),
           FmtInt(run.meter.losses()), FmtInt(run.meter.retries()),
           FmtInt(run.meter.agent_restarts()), FmtInt(run.meter.Total()),
           Fmt("%.2f%%", overhead),
           Fmt("%.3f", run.precision.mean_abs_error),
           Fmt("%.1f%%",
               100.0 * run.widened_precision.within_tolerance_fraction)});
    }
  }
  table.Print();

  // Second axis: how tight the walk-timeout budget is. The engine warms
  // up fault-free (building its retained pool), then loss/drop spike to
  // the harshest level of the sweep. Shrinking hop_budget_factor turns
  // retry slack into timeouts, so ticks start answering degraded from
  // the retained pool — the graceful-degradation path itself.
  std::printf(
      "\n--- degradation vs hop budget (spike to loss=10%%, drop=5%%) "
      "---\n");
  TablePrinter degraded_table({"budget factor", "degraded ticks",
                               "total msgs", "mean |err|",
                               "within (widened)"});
  for (double factor : {8.0, 4.0, 2.0}) {
    std::fprintf(stderr, "[bench_faults] budget factor=%.0f ...\n", factor);
    MemoryConfig config;
    config.num_units = args.Scaled(1000, 200);
    config.num_nodes = args.Scaled(820, 150);
    config.seed = args.seed + 17;
    auto workload = UnwrapOrDie(MemoryWorkload::Create(config), "workload");
    ContinuousQuerySpec spec = UnwrapOrDie(
        ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                    PrecisionSpec{1.0, 2.0, 0.9}),
        "spec");
    FaultPlanConfig faults;  // Rates start at zero: healthy warm-up.
    faults.edge_spread = 0.5;
    FaultPlan plan(faults, args.seed + 1);
    DigestEngineOptions options;
    options.scheduler = SchedulerKind::kAll;
    options.estimator = EstimatorKind::kRepeated;
    options.fault_plan = &plan;
    options.sampling_options.walk_length = 60;
    options.sampling_options.reset_length = 15;
    options.sampling_options.retry.hop_budget_factor = factor;
    options.Attach(obs.instruments());
    const std::string run_label = "budget " + Fmt("%.0fx", factor);
    BeginInstrumentedRun(options, workload->now(), run_label);

    Rng rng(args.seed);
    const NodeId querying =
        UnwrapOrDie(workload->graph().RandomLiveNode(rng), "origin");
    workload->ProtectNode(querying);
    MessageMeter meter;
    auto engine = UnwrapOrDie(
        DigestEngine::Create(&workload->graph(), &workload->db(), spec,
                             querying, rng.Fork(), &meter, options),
        "engine");
    for (int t = 0; t < 5; ++t) {
      CheckOk(workload->Advance(), "warmup advance");
      plan.set_now(workload->now());
      UnwrapOrDie(engine->Tick(workload->now()), "warmup tick");
    }
    CheckOk(plan.set_message_loss(0.10), "burst loss rate");
    CheckOk(plan.set_agent_drop(0.05), "burst drop rate");
    std::vector<double> reported, truth, cis;
    for (size_t t = 0; t < ticks; ++t) {
      CheckOk(workload->Advance(), "advance");
      plan.set_now(workload->now());
      const double oracle =
          UnwrapOrDie(workload->db().ExactAggregate(spec.query), "oracle");
      EngineTickResult tick =
          UnwrapOrDie(engine->Tick(workload->now()), "tick");
      reported.push_back(tick.reported_value);
      truth.push_back(oracle);
      cis.push_back(tick.ci_halfwidth);
      if (options.auditor != nullptr) {
        options.auditor->RecordTruth(workload->now(), oracle);
      }
    }
    if (options.auditor != nullptr) options.auditor->FinalizeRun();
    PrecisionReport plain = UnwrapOrDie(
        EvaluatePrecision(reported, truth, spec.precision), "precision");
    PrecisionReport widened = UnwrapOrDie(
        EvaluatePrecisionWidened(reported, truth, cis, spec.precision),
        "widened precision");
    degraded_table.AddRow(
        {Fmt("%.0fx", factor), FmtInt(engine->stats().degraded_ticks),
         FmtInt(meter.Total()), Fmt("%.3f", plain.mean_abs_error),
         Fmt("%.1f%%", 100.0 * widened.within_tolerance_fraction)});
    ExportToRegistry(engine->stats(), options.registry, run_label);
    obs::BridgeMessageMeter(meter, options.registry);
    if (options.auditor != nullptr && options.registry != nullptr) {
      options.auditor->ExportToRegistry(options.registry);
    }
  }
  degraded_table.Print();
  std::printf(
      "\nlost transmissions are retried with exponential backoff, dropped\n"
      "agents restart from the origin, and ticks whose sampling times out\n"
      "answer from the retained pool with an honestly widened interval —\n"
      "so coverage under the widened contract stays high while the message\n"
      "overhead grows smoothly with the injected fault rates.\n");
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
