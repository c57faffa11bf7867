#ifndef DIGEST_SAMPLING_SAMPLING_OPERATOR_H_
#define DIGEST_SAMPLING_SAMPLING_OPERATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "net/fault_plan.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "net/overlay_snapshot.h"
#include "numeric/rng.h"
#include "obs/instruments.h"
#include "sampling/random_walk.h"
#include "sampling/weight.h"

namespace digest {
namespace exec {
class WorkerPool;
}  // namespace exec

/// Tuning of the distributed sampling operator S.
struct SamplingOperatorOptions {
  /// Steps a cold agent walks before its position counts as a sample
  /// (the mixing time). 0 selects an automatic value of
  /// ceil(4 · ln²(N)), per Theorem 4's poly-log bound.
  size_t walk_length = 0;

  /// Steps a warm agent walks between successive samples (the reset
  /// time, §VI-A: much shorter than the mixing time). 0 selects
  /// ceil(4 · ln(N)).
  size_t reset_length = 0;

  /// Keep agents warm across invocations (continue the converged walk
  /// instead of restarting), as in the paper's experimental setup. When
  /// false every sample pays the full walk_length.
  bool warm_walks = true;

  /// Per-step self-loop probability of the walk. ½ per the paper
  /// (aperiodicity on any graph); 0 is the non-lazy ablation, unsafe on
  /// bipartite overlays (even rings, meshes).
  double laziness = 0.5;

  /// Retransmission/backoff policy and hop-budget timeout applied when a
  /// FaultPlan is attached (ignored otherwise).
  RetryPolicy retry;

  /// Straggler mitigation for fault-injected walks (only active under
  /// a FaultPlan): when one agent has consumed far more budget than
  /// completed walks typically need, launch a redundant (hedged) walk
  /// and let the two race; the first to finish delivers the sample and
  /// the loser's eventual delivery is suppressed as a duplicate. The
  /// duplicate is routed through a different replica when possible —
  /// walk i's hedge forks from walk i−1's start-of-batch agent position
  /// (already mixed when that agent is warm, so a reset suffices), away
  /// from whatever lossy or stalled neighborhood trapped the straggler
  /// — and the race resolves in virtual time (consumed attempt units),
  /// with the cheaper walker stepping next, the way two parallel walks
  /// would resolve in a real overlay. The straggler threshold is
  /// derived purely from the observed attempts-per-step distribution of
  /// walks completed in earlier batches, frozen at batch start — no
  /// wall clock — so hedged runs stay bit-reproducible from the seed.
  /// Off by default: disabled hedging is bit-identical to the pre-hedge
  /// sampler, faults or not.
  bool hedge = false;

  /// Worker threads a walk batch runs on (0 is treated as 1). Thread
  /// count changes only wall time: each batch derives one RNG substream
  /// per WALK (keyed by walk index via Rng::Split, never by thread), and
  /// results, meters and traces merge in walk-index order after the pool
  /// barrier, so every observable output is bit-identical at any thread
  /// count. 1 runs the walks inline on the caller with no pool thread.
  /// See DESIGN.md "Parallel execution & determinism model".
  size_t num_threads = 1;
};

/// One batch of sample nodes: every node asked for, or, when the hop
/// budget cut the batch (`timed_out`), the nodes that completed first.
struct PartialBatch {
  std::vector<NodeId> nodes;
  bool timed_out = false;
};

/// The distributed sampling operator S (paper §III, §V).
///
/// Given a weight function w over nodes, each invocation returns a node
/// v drawn with probability w_v / Σ_u w_u, by running a lazy Metropolis
/// random walk from the originating node until (approximately) mixed.
/// Batch mode runs several agents in one call; warm agents are reused
/// across calls so successive samples only pay the reset time.
///
/// The operator holds references to the graph (and through the weight
/// function, usually the database); both must outlive it. Each batch
/// steps over an OverlaySnapshot refreshed at batch start, so churn and
/// weight changes between invocations are seen by the next batch:
/// agents stranded on departed nodes restart from the origin.
///
/// With a FaultPlan attached (SetFaultPlan), walks run under injected
/// message loss, stalls, stale probes, and agent drops. Lost messages
/// are retransmitted per options.retry; an agent dropped in transit is
/// re-injected at the origin and walks a full cold mixing length again.
/// Each batch may spend at most retry.hop_budget_factor times its
/// planned hop count (retries and backoff delays included). The budget
/// cuts at walk granularity: walks are accepted in index order until
/// their attempts cross it, the walk that crosses it is charged but
/// delivers nothing, and later walks are discarded as if never launched.
/// A cut batch comes back with the nodes that completed and timed_out
/// set; the caller decides what the cut means (the estimators fail the
/// occasion or finalize a partial snapshot), instead of blocking forever
/// on an unreachable overlay.
class SamplingOperator {
 public:
  /// `meter` may be null to skip accounting.
  SamplingOperator(const Graph* graph, WeightFn weight, Rng rng,
                   MessageMeter* meter,
                   SamplingOperatorOptions options = {});
  ~SamplingOperator();

  /// Attaches (or detaches, with nullptr) a fault-injection plan. The
  /// plan is not owned and must outlive the operator. A plan with all
  /// rates zero leaves every draw bit-identical to no plan.
  void SetFaultPlan(FaultPlan* faults) { faults_ = faults; }

  /// Attaches the run's instruments (each may be null; none is owned;
  /// the auditor is not read here). The tracer receives walk-batch
  /// lifecycle events; the registry hop-count, acceptance and retry
  /// histograms and batch counters; the profiler times whole batches
  /// (kWalkBatch, items = samples) and stepping (kWalkAdvance, items =
  /// attempted transitions): one call per 16-walk chunk of a clean batch
  /// (no fault plan, diag or health), one per walk of any other. Diag and
  /// health make a batch hooked, so its walks never step on the lockstep
  /// kernel. Diag and health fold each delivered walk's record in
  /// walk-index order and close every batch with FinishBatch; health
  /// also STEERS, routing each batch around the quarantine view frozen
  /// at its start. The rest are pure observation: samples, RNG stream
  /// and meter are bit-identical with or without them, as they are with
  /// a monitor whose quarantine set is empty. Diag and health state are
  /// invariant across num_threads (test-enforced).
  void SetInstruments(const obs::Instruments& instruments) {
    instruments_ = instruments;
  }

  /// Draws one sample node, originating the walk at `origin`. Returning
  /// the sampled node id to the originator costs one transfer message.
  /// Fails if the graph is empty or the origin is dead with no live node
  /// remaining, and with kUnavailable when the hop budget cuts the walk.
  Result<NodeId> SampleNode(NodeId origin);

  /// Draws `n` sample nodes in batch mode (§VI-A): n agents with
  /// overlapping convergence, each contributing one node. Plans every
  /// walk, runs the walks on the worker pool, and merges them in
  /// walk-index order. A clean batch (no fault plan, diag or health)
  /// runs 16-walk chunks through StepCleanWalks (sampling/random_walk.h)
  /// and merges once; any other runs one slot per walk. Under faults the
  /// batch hop budget may cut it: the nodes that completed come back
  /// with timed_out = true.
  Result<PartialBatch> SampleNodes(NodeId origin, size_t n);

  /// Drops all warm agents (e.g., after a topology change large enough
  /// that their positions should not be trusted).
  void ResetAgents() { agents_.clear(); }

  /// Effective cold-walk length for the current graph size.
  size_t EffectiveWalkLength() const;

  /// Effective warm-walk (reset) length for the current graph size.
  size_t EffectiveResetLength() const;

  /// Walk accounting of the most recent SampleNodes call. The
  /// observability counters (attempts, proposals, accepted) are
  /// populated on every call; the fault categories stay zero when no
  /// fault plan is attached.
  const WalkTelemetry& last_telemetry() const { return last_telemetry_; }

  const SamplingOperatorOptions& options() const { return options_; }

  /// The snapshot the most recent batch stepped over, with its
  /// acceptance-coin table when that batch had or built one.
  const OverlaySnapshot& overlay() const { return overlay_; }

  /// Completed-walk statistics feeding the hedge straggler threshold
  /// (attempts and planned steps of every agent that delivered under
  /// faults this run).
  uint64_t hedge_done_walks() const { return done_walks_; }
  uint64_t hedge_done_attempts() const { return done_attempts_; }
  uint64_t hedge_done_steps() const { return done_steps_; }

  /// Serializable session state: warm-agent positions, the RNG stream,
  /// and the hedge statistics. Everything a restored operator needs to
  /// replay the exact draw sequence an uninterrupted run would have made.
  struct State {
    std::vector<NodeId> agent_positions;
    /// Always 0: every batch walks the warm agents from the first. The
    /// key stays so saved blobs keep their layout.
    uint64_t next_agent = 0;
    Rng::State rng;
    uint64_t done_walks = 0;
    uint64_t done_attempts = 0;
    uint64_t done_steps = 0;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("agent_positions", agent_positions);
      v("next_agent", next_agent);
      v("rng", rng);
      v("done_walks", done_walks);
      v("done_attempts", done_attempts);
      v("done_steps", done_steps);
      v.Check([&] { return next_agent == 0; }, "next_agent must be 0");
    }
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  /// Hedge straggler threshold in attempt units for an agent planned to
  /// walk `steps` steps; 0 means hedging is disarmed (disabled, or not
  /// enough completed walks observed yet).
  uint64_t HedgeThreshold(size_t steps) const;

  // What SampleNodes fixes for a batch before any walk is planned.
  struct BatchPlan {
    size_t n = 0;
    NodeId fallback = 0;  // Live in overlay_.
    size_t walk_len = 0;
    size_t reset_len = 0;
    uint64_t planned = 0;  // Steps over all walks.
    uint64_t budget = 0;   // Attempt units; read under a fault plan only.
    const QuarantineView* quarantine = nullptr;
    bool tracing = false;
  };

  // Walks of a clean batch per pool item: two lockstep groups.
  static constexpr size_t kChunkWalks = 2 * kLockstepLanes;

  // A clean batch: plans every walk, steps kChunkWalks-walk chunks on
  // the pool through StepCleanWalks, and merges once into `out`,
  // agents_, the meter and last_telemetry_.
  Status StepCleanBatch(const BatchPlan& plan, const Rng::Splitter& substream,
                        std::vector<NodeId>& out);

  // Any other batch: one slot per walk, stepped with its hooks and
  // merged in walk-index order into `out` and the same state. Returns
  // true when the hop budget cut the batch.
  Result<bool> StepHookedBatch(const BatchPlan& plan,
                               const Rng::Splitter& substream,
                               std::vector<NodeId>& out);

  const Graph* graph_;
  WeightFn weight_;
  Rng rng_;
  MessageMeter* meter_;
  SamplingOperatorOptions options_;
  FaultPlan* faults_ = nullptr;
  obs::Instruments instruments_;
  WalkTelemetry last_telemetry_;
  // Every walk's lazy coin: Rng::Coin::Of(options_.laziness).
  Rng::Coin lazy_coin_;
  // The batch's overlay: refreshed on the calling thread at batch start,
  // read by every walk and by the diag batch close.
  OverlaySnapshot overlay_;
  // Positions of the warm agents; every batch reuses them from the first.
  std::vector<NodeId> agents_;
  std::unique_ptr<exec::WorkerPool> pool_;
  // One plan + outcome slot per walk of the current hooked batch, and
  // one CleanWalk per walk of the current clean batch, reused across
  // batches so a batch allocates no per-walk state.
  struct WalkSlot;
  std::vector<WalkSlot> slots_;
  std::vector<CleanWalk> clean_walks_;
  // Completed-walk stats for the hedge threshold (faulted batches only).
  uint64_t done_walks_ = 0;
  uint64_t done_attempts_ = 0;
  uint64_t done_steps_ = 0;
};

}  // namespace digest

#endif  // DIGEST_SAMPLING_SAMPLING_OPERATOR_H_
