// Reproduces Figure 5-a of the paper: overall efficiency of Digest in
// total samples. For the query (δ/σ̂ = 1, ε/σ̂ = 0.25, p = 0.95) the
// total number of samples drawn over the whole continuous query is
// reported for the four combinations {ALL, PRED-3} x {INDEP, RPT}.
//
// Paper's shape: Digest (PRED3 + RPT) outperforms the naive solution
// (ALL + INDEP) by up to ~320% on TEMPERATURE; ordering
// ALL+INDEP > ALL+RPT > PRED3+INDEP > PRED3+RPT (samples, lower better).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "workload/experiment.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace bench {
namespace {

std::unique_ptr<Workload> MakeWorkload(const std::string& dataset,
                                       const BenchArgs& args) {
  if (dataset == "TEMPERATURE") {
    TemperatureConfig config;
    config.num_units = args.Scaled(8000, 200);
    config.num_nodes = args.Scaled(530, 16);
    config.seed = args.seed;
    return UnwrapOrDie(TemperatureWorkload::Create(config), "temperature");
  }
  MemoryConfig config;
  config.num_units = args.Scaled(1000, 100);
  config.num_nodes = args.Scaled(820, 60);
  config.seed = args.seed;
  return UnwrapOrDie(MemoryWorkload::Create(config), "memory");
}

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsSession obs(args);
  std::printf("=== Figure 5-a: total samples per configuration ===\n");
  std::printf("delta/sigma=1 epsilon/sigma=0.25 p=0.95 scale=%.2f\n\n",
              args.scale);

  struct Dataset {
    const char* name;
    const char* attribute;
    double sigma_hat;
    size_t ticks;
  };
  const std::vector<Dataset> datasets = {
      {"TEMPERATURE", "temperature", 8.0, args.quick ? 150u : 1095u},
      {"MEMORY", "memory", 10.0, args.quick ? 100u : 512u},
  };
  struct Combo {
    const char* name;
    SchedulerKind scheduler;
    EstimatorKind estimator;
  };
  const std::vector<Combo> combos = {
      {"ALL + INDEP", SchedulerKind::kAll, EstimatorKind::kIndependent},
      {"ALL + RPT", SchedulerKind::kAll, EstimatorKind::kRepeated},
      {"PRED3 + INDEP", SchedulerKind::kPred, EstimatorKind::kIndependent},
      {"PRED3 + RPT (Digest)", SchedulerKind::kPred,
       EstimatorKind::kRepeated},
  };

  for (const Dataset& ds : datasets) {
    std::printf("--- %s ---\n", ds.name);
    char query[128];
    std::snprintf(query, sizeof(query), "SELECT AVG(%s) FROM R",
                  ds.attribute);
    ContinuousQuerySpec spec = UnwrapOrDie(
        ContinuousQuerySpec::Create(
            query, PrecisionSpec{ds.sigma_hat, 0.25 * ds.sigma_hat, 0.95}),
        "spec");

    TablePrinter table({"configuration", "snapshots", "total samples",
                        "fresh samples", "vs naive"});
    uint64_t naive_samples = 0;
    for (const Combo& combo : combos) {
      auto workload = MakeWorkload(ds.name, args);
      DigestEngineOptions options;
      options.scheduler = combo.scheduler;
      options.estimator = combo.estimator;
      options.sampler = SamplerKind::kExactCentral;
      options.extrapolator.history_points = 3;  // PRED-3.
      options.Attach(obs.instruments());
      RunResult run = UnwrapOrDie(
          RunEngineExperiment(*workload, spec, options, ds.ticks,
                              args.seed,
                              std::string(ds.name) + " " + combo.name),
          combo.name);
      if (naive_samples == 0) naive_samples = run.stats.total_samples;
      const double gain =
          100.0 * (static_cast<double>(naive_samples) /
                       static_cast<double>(run.stats.total_samples) -
                   1.0);
      table.AddRow({combo.name, FmtInt(run.stats.snapshots),
                    FmtInt(run.stats.total_samples),
                    FmtInt(run.stats.fresh_samples),
                    Fmt("+%.0f%%", gain)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "paper: Digest (PRED3+RPT) up to ~320%% better than ALL+INDEP on "
      "TEMPERATURE.\n");
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
