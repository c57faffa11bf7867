// Profiles the per-node runtime (DigestNode, §III's architecture): many
// concurrent continuous queries at one peer sharing a single sampling
// operator. Sharing pays twice. First, warm walk agents: only the first
// query's occasions pay cold mixing walks, so the per-query average
// falls as tenants join. Second, snapshot coalescing: queries whose
// occasions land on the same tick split ONE walk batch — the tightest-ε
// tenant sizes it and everyone else rides its prefix. The bench runs
// both modes (coalesced vs the warm-pool-only ablation) over the same
// workload and reports the marginal message cost of each added query,
// plus the coalesced/ablated ratio of the 4→8 marginal — the headline
// the suite's multiquery_rpt_mcmc scenario gates at <= 0.6.
//
// Observability composes: --trace/--trace-jsonl give every query its
// own lane (lane = QueryId; shared-operator walk events stay unlaned,
// and coalesced ticks emit one unlaned snapshot_coalesced event),
// --metrics exports the node.* registry (per-query message/snapshot
// attribution), --prof the phase profile, --audit attaches the
// precision auditor to the tightest-ε query of each run, and
// --diag/--health instrument the shared operator.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/digest_node.h"
#include "obs/bridge.h"
#include "workload/experiment.h"
#include "workload/temperature.h"

namespace digest {
namespace bench {
namespace {

struct ModeRun {
  uint64_t total_messages = 0;
  uint64_t coalesced_ticks = 0;
};

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsSession obs(args);
  const obs::Instruments& in = obs.instruments();
  std::printf("=== Multi-query runtime: cost vs concurrent queries ===\n");
  const size_t ticks = args.quick ? 20 : 60;
  std::printf("TEMPERATURE workload, %zu ticks, AVG queries with "
              "epsilon in {0.5 .. 2.0}\n\n",
              ticks);

  const std::vector<size_t> kQueryCounts = {1, 2, 4, 8};
  TablePrinter table({"mode", "queries", "total messages", "messages/query",
                      "marginal (vs prev)", "coalesced ticks"});
  // marginals[mode][k] = messages per added query between sweep point
  // k-1 and k; the q=4 -> q=8 entry is the headline ratio's input.
  std::vector<std::vector<double>> marginals(2);

  for (int mode = 0; mode < 2; ++mode) {
    const bool coalesce = mode == 0;
    uint64_t prev_total = 0;
    size_t prev_q = 0;
    for (size_t q : kQueryCounts) {
      TemperatureConfig config;
      config.num_units = args.Scaled(2000, 400);
      config.num_nodes = args.Scaled(132, 36);
      config.seed = args.seed;
      auto workload = UnwrapOrDie(TemperatureWorkload::Create(config),
                                  "workload");
      MessageMeter meter;
      DigestEngineOptions options;
      options.scheduler = SchedulerKind::kAll;  // Uniform load per tick.
      options.estimator = EstimatorKind::kRepeated;
      options.sampler = SamplerKind::kTwoStageMcmc;
      options.sampling_options.walk_length = 500;  // Mesh mixing.
      options.sampling_options.reset_length = 72;
      options.Attach(in);
      DigestNodeOptions node_options;
      node_options.coalesce_snapshots = coalesce;
      const std::string run_label =
          std::string(coalesce ? "coalesced" : "warm-pool") + " q=" +
          FmtInt(q);
      BeginInstrumentedRun(in, 0, run_label);
      Rng rng(args.seed);
      const NodeId self =
          UnwrapOrDie(workload->graph().RandomLiveNode(rng), "node");
      auto node = UnwrapOrDie(
          DigestNode::Create(&workload->graph(), &workload->db(), self,
                             rng.Fork(), &meter, options, node_options),
          "DigestNode");
      // All tenants run the same aggregate, so one oracle serves the
      // audited query.
      const ContinuousQuerySpec oracle_spec = UnwrapOrDie(
          ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                      PrecisionSpec{8.0, 0.5, 0.95}),
          "spec");
      for (size_t i = 0; i < q; ++i) {
        const double eps = 0.5 + 1.5 * static_cast<double>(i) /
                                     static_cast<double>(std::max<size_t>(
                                         q - 1, 1));
        ContinuousQuerySpec spec = UnwrapOrDie(
            ContinuousQuerySpec::Create(
                "SELECT AVG(temperature) FROM R",
                PrecisionSpec{8.0, eps, 0.95}),
            "spec");
        // One auditor pins one (δ, ε, p) contract, so it audits the
        // tightest-ε tenant; the others run unaudited here (the suite
        // scenario covers all eight with per-query auditors).
        DigestEngineOptions per_query = options;
        per_query.auditor = i == 0 ? in.auditor : nullptr;
        UnwrapOrDie(node->IssueQuery(spec, per_query), "IssueQuery");
      }
      for (size_t t = 1; t <= ticks; ++t) {
        CheckOk(workload->Advance(), "Advance");
        CheckOk(node->Tick(static_cast<int64_t>(t)).status(), "Tick");
        if (in.auditor != nullptr) {
          const double oracle = UnwrapOrDie(
              workload->db().ExactAggregate(oracle_spec.query), "oracle");
          in.auditor->RecordTruth(static_cast<int64_t>(t), oracle);
        }
      }
      if (in.auditor != nullptr) in.auditor->FinalizeRun();
      obs::BridgeMessageMeter(meter, in.registry);
      const uint64_t total = meter.Total();
      std::string marginal = "-";
      if (prev_q > 0) {
        const double m = static_cast<double>(total - prev_total) /
                         static_cast<double>(q - prev_q);
        marginals[mode].push_back(m);
        marginal = Fmt("%.0f", m);
      }
      table.AddRow({coalesce ? "coalesced" : "warm-pool", FmtInt(q),
                    FmtInt(total),
                    Fmt("%.0f", static_cast<double>(total) /
                                    static_cast<double>(q)),
                    marginal, FmtInt(node->coalesced_ticks())});
      prev_total = total;
      prev_q = q;
    }
  }
  table.Print();
  if (marginals[0].size() == 3 && marginals[1].size() == 3 &&
      marginals[1].back() > 0) {
    std::printf("\n8th-query marginal: coalesced %.0f vs warm-pool %.0f "
                "msgs/query (ratio %.2f)\n",
                marginals[0].back(), marginals[1].back(),
                marginals[0].back() / marginals[1].back());
  }
  std::printf(
      "\nwarm-pool mode already amortizes mixing (shared agents); the\n"
      "coalesced mode additionally merges same-tick snapshot demands\n"
      "into one walk batch sized by the tightest epsilon, so the\n"
      "marginal cost of an added query keeps falling with tenancy.\n");
  if (in.auditor != nullptr && in.registry != nullptr) {
    in.auditor->ExportToRegistry(in.registry);
  }
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
