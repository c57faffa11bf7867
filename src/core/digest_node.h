#ifndef DIGEST_CORE_DIGEST_NODE_H_
#define DIGEST_CORE_DIGEST_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/query_scheduler.h"

namespace digest {

/// Node-level runtime policy (the engine-level knobs stay per query in
/// DigestEngineOptions).
struct DigestNodeOptions {
  /// true: same-tick snapshot demands coalesce into one shared walk
  /// batch through a CoalescingSampleSource (the §III shared-operator
  /// architecture taken to its conclusion — one sample pool per
  /// occasion tick, every due query's estimator consumes it through
  /// its own (ε, p) plan). false: warm-pool-only ablation — queries
  /// share the operator's warm agents but each draws its own batch.
  bool coalesce_snapshots = true;
};

/// The per-peer Digest runtime of §III ("each node of the peer-to-peer
/// database operates its own individual instance of Digest to answer the
/// continuous queries received from the local user"): one sampling
/// operator per node, shared by an admission-controlled registry of
/// concurrently running continuous queries. Sharing matters twice over:
/// the operator keeps its random-walk agents warm (every query's samples
/// after the first cost only the reset time), and with coalescing on,
/// queries whose snapshot occasions land on the same tick split one walk
/// batch — the tightest-ε tenant sizes it, the rest ride its prefix.
///
/// Observability: the node drives one real tracer (default options) and
/// hands each engine a per-query lane view of it (lane = QueryId), so a
/// single trace carries every tenant's events separably; shared-operator
/// events stay unlaned. Per-query auditors are the caller's to supply
/// via per-query options — an auditor pins one (δ, ε, p) contract, so
/// sharing one across queries of different precisions is an error.
/// Cost attribution: each engine tick's MessageMeter delta is charged to
/// that query in the scheduler's ledger, so the node's single meter
/// reconciles exactly into per-tenant shares.
class DigestNode {
 public:
  /// Admission cap: IssueQuery past this fails with kFailedPrecondition
  /// instead of letting one tenant starve the shared operator.
  static constexpr size_t kMaxQueries = 64;

  /// Builds the runtime at `self`. The graph and database must outlive
  /// it. `meter` may be null; all queries charge the same meter, with
  /// per-query attribution kept by the scheduler.
  static Result<std::unique_ptr<DigestNode>> Create(
      const Graph* graph, const P2PDatabase* db, NodeId self, Rng rng,
      MessageMeter* meter, DigestEngineOptions default_options = {},
      DigestNodeOptions node_options = {});

  /// Registers a continuous query with the node's default options.
  Result<QueryId> IssueQuery(ContinuousQuerySpec spec);

  /// Registers a continuous query with explicit options. The sampler
  /// kind must match the node's default (the operator is shared).
  /// Fails with kFailedPrecondition at the admission cap.
  Result<QueryId> IssueQuery(ContinuousQuerySpec spec,
                             DigestEngineOptions options);

  /// Stops and forgets a query. Fails with kNotFound for unknown ids.
  Status CancelQuery(QueryId id);

  /// Advances every active query to tick `t` (strictly increasing per
  /// query; queries issued later simply start later). Due queries run
  /// tightest-ε first over the tick's shared sample pool; the result
  /// list is returned sorted by QueryId regardless. Emits one
  /// SnapshotCoalescedEvent (unlaned) when >= 2 due queries shared a
  /// batch.
  Result<std::vector<std::pair<QueryId, EngineTickResult>>> Tick(int64_t t);

  /// Read access to one query's engine; fails with kNotFound.
  Result<const DigestEngine*> engine(QueryId id) const;

  /// Per-query cumulative attribution; fails with kNotFound.
  Result<QueryCost> query_cost(QueryId id) const;

  /// Number of active queries.
  size_t active_queries() const { return engines_.size(); }

  /// Ticks on which >= 2 due queries shared one walk batch.
  uint64_t coalesced_ticks() const { return scheduler_.coalesced_ticks(); }

  /// The node this runtime lives on.
  NodeId self() const { return self_; }

  /// The node's runtime policy.
  const DigestNodeOptions& node_options() const { return node_options_; }

  /// Serializes the whole node — scheduler ledger, the shared
  /// operator's warm agents and RNG, the shared sampler's RNG, the
  /// node RNG, and every query's full engine checkpoint — into one
  /// versioned JSON blob ("digest-node-checkpoint-v1"). A node restored
  /// from it replays the exact tick/draw sequence an uninterrupted run
  /// would have produced, at any num_threads.
  Result<std::string> Checkpoint() const;

  /// Restores a checkpoint produced by a node of identical construction
  /// (same graph, database, seed, options, and issue history: query ids
  /// and specs must match). All state is parsed before any is
  /// installed; mismatches fail with InvalidArgument and leave the node
  /// untouched.
  Status Restore(std::string_view blob);

 private:
  DigestNode(const Graph* graph, const P2PDatabase* db, NodeId self,
             MessageMeter* meter, DigestEngineOptions default_options,
             DigestNodeOptions node_options)
      : graph_(graph),
        db_(db),
        self_(self),
        meter_(meter),
        default_options_(default_options),
        node_options_(node_options) {}

  /// Ticks one engine, charging its meter delta to `id`.
  Result<EngineTickResult> TickOne(QueryId id, int64_t t, bool coalesced);

  /// Publishes node.* gauges/counters into the default registry.
  void ExportRegistry();

  const Graph* graph_;
  const P2PDatabase* db_;
  NodeId self_;
  MessageMeter* meter_;
  DigestEngineOptions default_options_;
  DigestNodeOptions node_options_;
  Rng rng_{0};

  std::unique_ptr<SamplingOperator> operator_;  // Shared by all queries.
  /// Node-owned sampler over the shared operator; the coalescing source
  /// draws through it so every tenant shares one RNG stream. Null when
  /// coalescing is off (each engine then owns a sampler) or the node
  /// runs exact-central queries.
  std::unique_ptr<TwoStageTupleSampler> shared_sampler_;
  std::unique_ptr<CoalescingSampleSource> shared_source_;

  QueryScheduler scheduler_;
  std::map<QueryId, std::unique_ptr<DigestEngine>> engines_;
  /// Per-query lane views over the real tracer, keyed like engines_.
  std::map<QueryId, std::unique_ptr<obs::LaneTracer>> lanes_;
  QueryId next_id_ = 1;
};

}  // namespace digest

#endif  // DIGEST_CORE_DIGEST_NODE_H_
