// Reproduces Figure 4-a of the paper: effect of the extrapolation
// algorithm. On the TEMPERATURE workload, with fixed confidence (ε = 2,
// p = 0.95), the normalized resolution δ/σ̂ is swept and the number of
// snapshot queries executed by the naive continuous algorithm (ALL) and
// the extrapolation algorithms (PRED-k, k previous values) is reported.
//
// Paper's shape: all PRED-k behave similarly; ≈ ALL at small δ; up to
// ~75% fewer snapshots at δ/σ̂ = 1.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workload/experiment.h"
#include "workload/temperature.h"

namespace digest {
namespace bench {
namespace {

TemperatureConfig MakeConfig(const BenchArgs& args) {
  TemperatureConfig config;
  config.num_units = args.Scaled(8000, 200);
  config.num_nodes = args.Scaled(530, 16);
  config.seed = args.seed;
  return config;
}

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(
      argc, argv,
      {{"--strict", "measure drift from X̂[t_u] (strict-resolution "
                    "ablation)"}});
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--strict") strict = true;
  }
  ObsSession obs(args);
  const size_t ticks = args.quick ? 150 : 1095;  // 18 months at 12 h.
  const double sigma_hat = 8.0;                  // Table II.
  const double epsilon = 2.0;
  const double confidence = 0.95;

  std::printf("=== Figure 4-a: #snapshot queries vs normalized "
              "resolution (TEMPERATURE) ===\n");
  std::printf("epsilon=%.1f p=%.2f ticks=%zu scale=%.2f%s\n\n", epsilon,
              confidence, ticks, args.scale,
              strict ? " [strict resolution ablation]" : "");

  std::vector<double> delta_over_sigma = {0.0,  0.125, 0.25, 0.5,
                                          0.75, 1.0,   1.5,  2.0};
  if (args.quick) delta_over_sigma = {0.0, 0.5, 1.0, 2.0};

  struct Algo {
    const char* name;
    SchedulerKind scheduler;
    size_t history;
  };
  const std::vector<Algo> algos = {
      {"ALL", SchedulerKind::kAll, 0},
      {"PRED-2", SchedulerKind::kPred, 2},
      {"PRED-3", SchedulerKind::kPred, 3},
      {"PRED-4", SchedulerKind::kPred, 4},
      {"PRED-5", SchedulerKind::kPred, 5},
  };

  TablePrinter table({"delta/sigma", "ALL", "PRED-2", "PRED-3", "PRED-4",
                      "PRED-5", "reduction(PRED-3)"});
  for (double ds : delta_over_sigma) {
    std::vector<std::string> row = {Fmt("%.3f", ds)};
    size_t all_snapshots = 0;
    size_t pred3_snapshots = 0;
    for (const Algo& algo : algos) {
      auto workload =
          UnwrapOrDie(TemperatureWorkload::Create(MakeConfig(args)),
                      "workload");
      ContinuousQuerySpec spec = UnwrapOrDie(
          ContinuousQuerySpec::Create(
              "SELECT AVG(temperature) FROM R",
              PrecisionSpec{ds * sigma_hat, epsilon, confidence}),
          "spec");
      // Exact resolution (delta = 0) still needs a positive value for the
      // spec; the scheduler treats delta below one sample step as ALL.
      DigestEngineOptions options;
      options.scheduler = algo.scheduler;
      options.estimator = EstimatorKind::kIndependent;
      options.sampler = SamplerKind::kExactCentral;  // Count samples only.
      options.strict_resolution = strict;
      options.Attach(obs.instruments());
      if (algo.history > 0) {
        options.extrapolator.history_points = algo.history;
      }
      const std::string run_label =
          std::string(algo.name) + " d/s=" + Fmt("%.3f", ds);
      RunResult run = UnwrapOrDie(
          RunEngineExperiment(*workload, spec, options, ticks, args.seed,
                              run_label),
          algo.name);
      row.push_back(FmtInt(run.stats.snapshots));
      if (algo.scheduler == SchedulerKind::kAll) {
        all_snapshots = run.stats.snapshots;
      }
      if (algo.history == 3) pred3_snapshots = run.stats.snapshots;
    }
    const double reduction =
        all_snapshots == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(pred3_snapshots) /
                                 static_cast<double>(all_snapshots));
    row.push_back(Fmt("%.1f%%", reduction));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\npaper: PRED-k ~= ALL at small delta; up to ~75%% fewer "
      "snapshots by delta/sigma = 1.\n");

  if (args.ObservabilityRequested() || args.diag) {
    // Fig. 4-a proper samples through the exact central oracle (the
    // figure counts snapshot queries, not walks), so a trace of the
    // sweep alone would carry no walk events — and the sampler
    // diagnostics would have no chain to watch. Append one small run of
    // the full distributed pipeline — PRED-3 + RPT over the two-stage
    // MCMC sampler — so the exported trace shows walk batches nested
    // under engine ticks and --diag summarizes a real walk workload.
    // Its own workload and seed: the table above is untouched.
    const size_t showcase_ticks = args.quick ? 40 : 120;
    BenchArgs small = args;
    small.scale = std::min(args.scale, 0.05);
    auto workload = UnwrapOrDie(
        TemperatureWorkload::Create(MakeConfig(small)), "showcase workload");
    ContinuousQuerySpec spec = UnwrapOrDie(
        ContinuousQuerySpec::Create(
            "SELECT AVG(temperature) FROM R",
            PrecisionSpec{0.5 * sigma_hat, epsilon, confidence}),
        "showcase spec");
    DigestEngineOptions options;
    options.scheduler = SchedulerKind::kPred;
    options.estimator = EstimatorKind::kRepeated;
    options.sampler = SamplerKind::kTwoStageMcmc;
    options.Attach(obs.instruments());
    RunResult run = UnwrapOrDie(
        RunEngineExperiment(*workload, spec, options, showcase_ticks,
                            args.seed, "PRED-3 RPT mcmc showcase"),
        "showcase");
    std::printf("\n[trace] appended MCMC showcase run: %zu ticks, "
                "%zu snapshots, %zu samples\n",
                run.stats.ticks, run.stats.snapshots,
                run.stats.total_samples);
  }
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
