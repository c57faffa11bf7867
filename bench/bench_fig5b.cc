// Reproduces Figure 5-b of the paper: overall efficiency of Digest in
// communication cost (total messages; the paper plots a log-scale axis).
// For the query (δ/σ̂ = 1, ε/σ̂ = 0.25, p = 0.95), four approaches are
// compared on both workloads:
//
//   Digest        = PRED3 + RPT over the two-stage MCMC sampler (pull)
//   ALL + INDEP   = naive sampling, every tick, MCMC sampler (pull)
//   ALL + FILTER  = Olston-style adaptive filters (push)
//   ALL + ALL     = push every tuple every tick (exact baseline)
//
// Paper's shape: Digest beats ALL+FILTER by more than one order of
// magnitude and ALL+ALL by almost two; even ALL+INDEP beats ALL+FILTER;
// average walk cost per sample ≈ 65 messages (mesh) / 43 (power-law).
#include <cmath>
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
  std::printf("=== Figure 5-b: total communication cost (messages) ===\n");
  std::printf("delta/sigma=1 epsilon/sigma=0.25 p=0.95 scale=%.2f\n\n",
              args.scale);

  struct Dataset {
    const char* name;
    const char* attribute;
    double sigma_hat;
    size_t ticks;
    // Walk lengths reflect the topology's mixing behaviour: the mesh
    // (diameter ~ sqrt(N)) needs longer walks than the power-law overlay
    // (diameter ~ log N) — the source of the paper's 65 vs 43 messages
    // per sample.
    size_t walk_length;
    size_t reset_length;
  };
  const std::vector<Dataset> datasets = {
      {"TEMPERATURE", "temperature", 8.0, args.quick ? 100u : 600u, 500,
       72},
      {"MEMORY", "memory", 10.0, args.quick ? 80u : 400u, 250, 48},
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

    TablePrinter table({"approach", "messages", "log10(messages)",
                        "samples", "msgs/sample"});

    auto add_engine_row = [&](const char* name, SchedulerKind scheduler,
                              EstimatorKind estimator) {
      auto workload = MakeWorkload(ds.name, args);
      DigestEngineOptions options;
      options.scheduler = scheduler;
      options.estimator = estimator;
      options.sampler = SamplerKind::kTwoStageMcmc;
      options.extrapolator.history_points = 3;
      options.sampling_options.walk_length = ds.walk_length;
      options.sampling_options.reset_length = ds.reset_length;
      options.Attach(obs.instruments());
      RunResult run = UnwrapOrDie(
          RunEngineExperiment(*workload, spec, options, ds.ticks,
                              args.seed,
                              std::string(ds.name) + " " + name),
          name);
      const uint64_t messages = run.meter.Total();
      const double per_sample =
          run.stats.fresh_samples == 0
              ? 0.0
              : static_cast<double>(messages) /
                    static_cast<double>(run.stats.fresh_samples);
      table.AddRow({name, FmtInt(messages),
                    Fmt("%.2f", std::log10(double(messages) + 1.0)),
                    FmtInt(run.stats.total_samples),
                    Fmt("%.1f", per_sample)});
      return messages;
    };

    add_engine_row("Digest (PRED3+RPT)", SchedulerKind::kPred,
                   EstimatorKind::kRepeated);
    add_engine_row("ALL + INDEP", SchedulerKind::kAll,
                   EstimatorKind::kIndependent);
    {
      auto workload = MakeWorkload(ds.name, args);
      RunResult run = UnwrapOrDie(
          RunFilterExperiment(*workload, spec, ds.ticks, args.seed),
          "ALL + FILTER");
      table.AddRow({"ALL + FILTER", FmtInt(run.meter.Total()),
                    Fmt("%.2f", std::log10(double(run.meter.Total()) + 1.0)),
                    "-", "-"});
    }
    {
      auto workload = MakeWorkload(ds.name, args);
      RunResult run = UnwrapOrDie(
          RunPushAllExperiment(*workload, spec, ds.ticks, args.seed),
          "ALL + ALL");
      table.AddRow({"ALL + ALL", FmtInt(run.meter.Total()),
                    Fmt("%.2f", std::log10(double(run.meter.Total()) + 1.0)),
                    "-", "-"});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "paper: Digest > 1 order of magnitude cheaper than ALL+FILTER and\n"
      "~2 orders cheaper than ALL+ALL; avg messages/sample ~= 65 (mesh) "
      "and 43 (power-law).\n");
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
