// Operator-level microbenchmarks (google-benchmark): the hot paths of
// the library — expression evaluation, local-store operations, Metropolis
// walk steps, operator samples, whole walk batches, and snapshot
// estimation.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "core/snapshot_estimator.h"
#include "db/expression.h"
#include "db/local_store.h"
#include "net/topology.h"
#include "sampling/metropolis.h"
#include "sampling/sampling_operator.h"
#include "sampling/tuple_sampler.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace {

void BM_ExpressionParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Expression::Parse("2 * (memory + storage) - cpu / 4"));
  }
}
BENCHMARK(BM_ExpressionParse);

void BM_ExpressionEvaluate(benchmark::State& state) {
  Expression expr =
      Expression::Parse("2 * (memory + storage) - cpu / 4").value();
  Schema schema =
      Schema::Create({"cpu", "memory", "storage", "bandwidth"}).value();
  (void)expr.Bind(schema);
  const Tuple tuple = {1.0, 2.0, 3.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.Evaluate(tuple));
  }
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_LocalStoreInsertErase(benchmark::State& state) {
  LocalStore store;
  for (auto _ : state) {
    const LocalTupleId id = store.Insert({1.0, 2.0});
    benchmark::DoNotOptimize(store.Erase(id));
  }
}
BENCHMARK(BM_LocalStoreInsertErase);

void BM_LocalStoreUniformSample(benchmark::State& state) {
  LocalStore store;
  for (int i = 0; i < 1000; ++i) store.Insert({double(i)});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.UniformPick(rng));
  }
}
BENCHMARK(BM_LocalStoreUniformSample);

// One reset-length walk (26 steps, the reset length ceil(4 ln N) at
// the paper's N = 530) per iteration over an overlay of N = range(0)
// peers, continuing from where the last one stopped; items count steps,
// so the time per item is the time per step. range(1) picks the overlay:
// 0 a uniform-weight Barabási–Albert graph; 1 the TEMPERATURE mesh (the
// near-square grid TemperatureWorkload lays N stations on) with uniform
// weights, where nearly every acceptance is exactly 1; 2 the TEMPERATURE
// workload itself, its mesh weighted by content size, so many
// acceptances are fractional and draw. The overlay is static, so the
// snapshot holds its acceptance-coin table, as an operator's batch of
// clean walks over it would.
void BM_WalkStep(benchmark::State& state) {
  constexpr size_t kResetSteps = 26;
  const size_t n = size_t(state.range(0));
  Graph g;
  const Graph* graph = &g;
  WeightFn weight = UniformWeight();
  std::unique_ptr<TemperatureWorkload> workload;
  if (state.range(1) == 2) {
    TemperatureConfig config;
    config.num_nodes = n;
    workload = TemperatureWorkload::Create(config).value();
    graph = &workload->graph();
    weight = ContentSizeWeight(workload->db());
  } else if (state.range(1) == 1) {
    const size_t rows = size_t(std::floor(std::sqrt(double(n))));
    g = MakeMesh(rows, (n + rows - 1) / rows).value();
  } else {
    Rng topo_rng(2);
    g = MakeBarabasiAlbert(n, 3, topo_rng).value();
  }
  Rng rng(3);
  OverlaySnapshot overlay(*graph, weight);
  overlay.BuildCoins<MetropolisAcceptance>();
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0};
  RandomWalk walk(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Advance(ctx, kResetSteps));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kResetSteps);
}
BENCHMARK(BM_WalkStep)
    ->ArgNames({"n", "mesh"})
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({4096, 0})
    ->Args({530, 1})
    ->Args({530, 2});

// One whole walk batch: the operator's per-batch overlay refresh, plan,
// walks and merge, on a MEMORY power-law overlay of N = range(0) peers
// weighted by content size, with range(1) walks per batch. The cold
// first batch runs before timing, so every timed batch walks warm
// agents the reset length. With range(2) = 1 the workload advances one
// tick (churn at the MEMORY defaults, untimed) before every batch, so
// each timed batch also rebuilds the overlay rows and, its overlay
// having changed, steps without the acceptance-coin table. Without churn
// the first timed batch that plans a step per CSR entry (300 walks at
// 530 peers) builds the table, and later batches reuse it.
void BM_WalkBatch(benchmark::State& state) {
  const size_t n = size_t(state.range(0));
  const size_t walks = size_t(state.range(1));
  const bool churn = state.range(2) != 0;
  MemoryConfig config;
  config.num_nodes = n;
  config.num_units = n * 1000 / 820;  // MEMORY's units per peer.
  if (!churn) {
    config.join_rate = 0.0;
    config.leave_rate = 0.0;
  }
  std::unique_ptr<MemoryWorkload> workload =
      MemoryWorkload::Create(config).value();
  const NodeId origin = workload->graph().LiveNodes().front();
  workload->ProtectNode(origin);
  SamplingOperator op(&workload->graph(), ContentSizeWeight(workload->db()),
                      Rng(10), nullptr);
  (void)op.SampleNodes(origin, walks);
  for (auto _ : state) {
    if (churn) {
      state.PauseTiming();
      (void)workload->Advance();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(op.SampleNodes(origin, walks));
  }
}
BENCHMARK(BM_WalkBatch)
    ->ArgNames({"n", "walks", "churn"})
    ->Args({530, 1, 0})
    ->Args({530, 300, 0})
    ->Args({10000, 1, 0})
    ->Args({10000, 300, 0})
    ->Args({100000, 1, 0})
    ->Args({100000, 300, 0})
    ->Args({820, 300, 1})
    ->Args({100000, 300, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_OperatorSample(benchmark::State& state) {
  Rng topo_rng(4);
  Graph g = MakeBarabasiAlbert(size_t(state.range(0)), 3, topo_rng).value();
  SamplingOperator op(&g, UniformWeight(), Rng(5), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.SampleNode(0));
  }
}
BENCHMARK(BM_OperatorSample)->Arg(64)->Arg(512);

void BM_SnapshotIndependent(benchmark::State& state) {
  Rng topo_rng(6);
  Graph g = MakeComplete(16).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data_rng(7);
  for (NodeId node : g.LiveNodes()) {
    (void)db.AddNode(node);
    for (int i = 0; i < 200; ++i) {
      db.StoreAt(node).value()->Insert({data_rng.NextGaussian(50, 10)});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{0.0, 1.0, 0.95})
          .value();
  ExactTupleSampler sampler(&db, Rng(8), nullptr);
  IndependentEstimator est(spec, &db, &sampler, nullptr, nullptr, Rng(9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Evaluate(0));
  }
}
BENCHMARK(BM_SnapshotIndependent);

// One steady-state RPT occasion (retained refresh, fresh draws and
// top-up rounds) over the paper-scale TEMPERATURE database, 8000 units
// on the 552 stores of its 23 x 24 mesh (530 stations rounded up to a
// full rectangle), drawn through the exact source so no walk time is
// included: the estimator's own work per occasion. The world advances
// one tick between occasions, untimed, as it does between an engine's.
void BM_SnapshotRepeated(benchmark::State& state) {
  std::unique_ptr<TemperatureWorkload> workload =
      TemperatureWorkload::Create(TemperatureConfig()).value();
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                  PrecisionSpec{0.0, 0.5, 0.95})
          .value();
  ExactTupleSampler sampler(&workload->db(), Rng(10), nullptr);
  RepeatedSamplingEstimator est(spec, &workload->db(), &sampler, nullptr,
                                nullptr, Rng(11));
  // The first occasion is a plain independent draw; later ones retain.
  for (int i = 0; i < 3; ++i) {
    (void)est.Evaluate(0);
    (void)workload->Advance();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Evaluate(0));
    state.PauseTiming();
    (void)workload->Advance();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SnapshotRepeated)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace digest

BENCHMARK_MAIN();
