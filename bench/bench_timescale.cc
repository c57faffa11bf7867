// Probes the paper's snapshot assumption (§II: the database is almost
// static during a sampling occasion; §VIII #3 asks about databases
// where the change time-scale is comparable to the sampling time).
//
// An independent AVG estimator draws its samples while the TEMPERATURE
// workload advances every k draws. Sweeping k from "effectively static"
// down to 1 quantifies when snapshot semantics break down: the estimate
// degrades from a point-in-time value to a smeared time-average, and
// its error vs the end-of-occasion oracle grows.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/snapshot_estimator.h"
#include "numeric/stats.h"
#include "workload/temperature.h"
#include "workload/timescale.h"

namespace digest {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  RejectObservabilityFlags(args, "bench_timescale");
  std::printf("=== Snapshot-assumption stress (paper §VIII #3) ===\n");
  std::printf("independent AVG estimator, epsilon=1 p=0.95; the workload "
              "advances every k draws\n\n");

  const int trials = args.quick ? 10 : 40;
  std::vector<size_t> ks = {1000000, 256, 64, 16, 4, 1};
  TablePrinter table({"draws per tick (k)", "mid-occasion ticks",
                      "RMS error vs end oracle", "mean |bias|"});
  for (size_t k : ks) {
    RunningStats sq_err;
    RunningStats bias;
    size_t advances = 0;
    for (int trial = 0; trial < trials; ++trial) {
      TemperatureConfig config;
      config.num_units = args.Scaled(2000, 300);
      config.num_nodes = args.Scaled(132, 16);
      config.seed = args.seed + trial;
      auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                  "workload");
      // Warm the workload a few ticks so the regional front is moving.
      for (int t = 0; t < 5; ++t) {
        CheckOk(workload->Advance(), "warmup");
      }
      ContinuousQuerySpec spec = UnwrapOrDie(
          ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                      PrecisionSpec{1.0, 1.0, 0.95}),
          "spec");
      MessageMeter meter;
      ExactTupleSampler sampler(&workload->db(), Rng(args.seed + trial),
                                &meter);
      InterleavingSampleSource source(&sampler, workload.get(), k);
      IndependentEstimator est(spec, &workload->db(), &source, nullptr,
                               &meter, Rng(1000 + trial));
      SnapshotEstimate e = UnwrapOrDie(est.Evaluate(0), "estimate");
      advances += source.mid_occasion_advances();
      AggregateQuery q = spec.query;
      const double oracle_end =
          UnwrapOrDie(workload->db().ExactAggregate(q), "oracle");
      const double err = e.value - oracle_end;
      sq_err.Add(err * err);
      bias.Add(std::fabs(err));
    }
    table.AddRow({k >= 1000000 ? "static (paper assumption)" : FmtInt(k),
                  Fmt("%.1f", double(advances) / trials),
                  Fmt("%.3f", std::sqrt(sq_err.Mean())),
                  Fmt("%.3f", bias.Mean())});
  }
  table.Print();
  std::printf(
      "\nas k shrinks the occasion smears across data versions: the\n"
      "estimate drifts from a snapshot toward a time-average, and its\n"
      "error against the end-of-occasion truth grows — the regime where\n"
      "the paper says new continuous-query semantics are needed.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
