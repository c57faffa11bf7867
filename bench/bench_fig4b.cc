// Reproduces Figure 4-b of the paper: effect of the repeated sampling
// algorithm. With fixed resolution (δ/σ̂ = 1) and confidence level
// (p = 0.95), the confidence-interval half-width ε is swept and the
// average number of samples per snapshot query (retained + fresh) is
// reported for independent sampling (INDEP) and repeated sampling (RPT),
// on both workloads.
//
// Paper's shape: RPT consistently below INDEP; average improvement
// factor I = n_indep / n_rpt ≈ 1.63 on TEMPERATURE and ≈ 1.21 on MEMORY
// (the TEMPERATURE gain is larger because ρ is higher and churn lower).
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

std::unique_ptr<Workload> MakeWorkload(const char* dataset,
                                       const BenchArgs& args) {
  if (std::string(dataset) == "TEMPERATURE") {
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

struct DatasetSpec {
  const char* name;
  const char* attribute;
  double sigma_hat;
  size_t ticks;
};

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsSession obs(args);
  std::printf("=== Figure 4-b: samples per snapshot vs epsilon ===\n");
  std::printf("delta/sigma=1 p=0.95 scale=%.2f\n\n", args.scale);

  const std::vector<DatasetSpec> datasets = {
      {"TEMPERATURE", "temperature", 8.0, args.quick ? 60u : 400u},
      {"MEMORY", "memory", 10.0, args.quick ? 60u : 400u},
  };
  std::vector<double> eps_over_sigma = {0.0625, 0.125, 0.1875, 0.25, 0.375};
  if (args.quick) eps_over_sigma = {0.125, 0.25};

  for (const DatasetSpec& ds : datasets) {
    std::printf("--- %s (sigma_hat=%.0f) ---\n", ds.name, ds.sigma_hat);
    TablePrinter table({"epsilon", "INDEP samples/snapshot",
                        "RPT samples/snapshot", "I = indep/rpt"});
    double improvement_sum = 0.0;
    for (double es : eps_over_sigma) {
      const double epsilon = es * ds.sigma_hat;
      char query[128];
      std::snprintf(query, sizeof(query), "SELECT AVG(%s) FROM R",
                    ds.attribute);
      ContinuousQuerySpec spec = UnwrapOrDie(
          ContinuousQuerySpec::Create(
              query, PrecisionSpec{ds.sigma_hat, epsilon, 0.95}),
          "spec");
      double per_snapshot[2] = {0.0, 0.0};
      const EstimatorKind kinds[2] = {EstimatorKind::kIndependent,
                                      EstimatorKind::kRepeated};
      for (int k = 0; k < 2; ++k) {
        auto workload = MakeWorkload(ds.name, args);
        DigestEngineOptions options;
        // ALL scheduler: every tick is a sampling occasion, isolating the
        // estimator effect exactly as the paper does.
        options.scheduler = SchedulerKind::kAll;
        options.estimator = kinds[k];
        options.sampler = SamplerKind::kExactCentral;
        // A small pilot keeps the CLT-sized sample count visible across
        // the whole epsilon sweep instead of clipping at the floor.
        options.estimator_options.pilot_samples = 10;
        options.Attach(obs.instruments());
        const std::string run_label =
            std::string(ds.name) + (k == 0 ? " INDEP" : " RPT") +
            " eps=" + Fmt("%.3f", epsilon);
        RunResult run = UnwrapOrDie(
            RunEngineExperiment(*workload, spec, options, ds.ticks,
                                args.seed, run_label),
            ds.name);
        per_snapshot[k] =
            static_cast<double>(run.stats.total_samples) /
            static_cast<double>(run.stats.snapshots);
      }
      const double improvement = per_snapshot[0] / per_snapshot[1];
      improvement_sum += improvement;
      table.AddRow({Fmt("%.3f", epsilon), Fmt("%.1f", per_snapshot[0]),
                    Fmt("%.1f", per_snapshot[1]),
                    Fmt("%.2f", improvement)});
    }
    table.Print();
    std::printf("average improvement factor I = %.2f  (paper: %s)\n\n",
                improvement_sum / eps_over_sigma.size(),
                std::string(ds.name) == "TEMPERATURE" ? "1.63" : "1.21");
  }
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
