#ifndef DIGEST_SAMPLING_RANDOM_WALK_H_
#define DIGEST_SAMPLING_RANDOM_WALK_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/result.h"
#include "net/fault_plan.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "net/overlay_snapshot.h"
#include "numeric/rng.h"

namespace digest {

namespace diag {
struct WalkDiagBuffer;
}  // namespace diag

class QuarantineView;
struct WalkHealthBuffer;

/// Accounting of a walk, accumulated across Advance calls (fault-free
/// walks populate it too, for observability). `attempts` is the budget
/// currency: one unit per attempted transition plus the deterministic
/// backoff cost of every retransmission — the quantity a
/// SamplingOperator's hop budget bounds.
struct WalkTelemetry {
  uint64_t attempts = 0;       ///< Budget units consumed.
  uint64_t retries = 0;        ///< Retransmissions after a lost message.
  uint64_t losses = 0;         ///< Transmissions lost in transit.
  uint64_t drops = 0;          ///< Agents lost and re-injected at origin.
  uint64_t abandoned = 0;      ///< Transitions given up after retry budget.
  uint64_t stale_probes = 0;   ///< Probes answered with stale weights.
  uint64_t stalled_steps = 0;  ///< Steps frozen on a blackholed host.
  uint64_t proposals = 0;      ///< Metropolis moves proposed (probes sent).
  uint64_t accepted = 0;       ///< Proposals the acceptance test took.
  uint64_t backoff_units = 0;  ///< Retry latency paid, in budget ticks.
  uint64_t hedges = 0;         ///< Redundant walks launched vs stragglers.
  uint64_t hedge_wins = 0;     ///< Hedges that delivered before the primary.

  /// Adds every counter of `other` into this one (a batch's ordered
  /// merge of its walks). The two budget counters, `attempts` and
  /// `backoff_units`, saturate at UINT64_MAX as Advance's do, so a
  /// saturated walk pins the sum instead of wrapping it.
  void Merge(const WalkTelemetry& other);

  bool operator==(const WalkTelemetry&) const = default;
};

/// Everything one walk's transitions read or write besides the agent's
/// own position, built once per walk (by SamplingOperator's batch, or by
/// a caller driving a walk directly) and passed to every Advance. Only
/// `overlay`, `rng` and `fallback` are required; every pointer may be
/// null, which turns its hook off.
struct WalkContext {
  /// Topology and weights the walk steps over: the batch's snapshot,
  /// refreshed on the calling thread before any walk starts and shared
  /// read-only by every worker.
  const OverlaySnapshot& overlay;
  Rng& rng;
  /// Node a churn-stranded or dropped agent is re-injected at.
  NodeId fallback;
  /// Message accounting.
  MessageMeter* meter = nullptr;
  /// Fault injection; null is the clean path. `retry` governs
  /// retransmissions under faults (null selects the default policy).
  FaultPlan* faults = nullptr;
  const RetryPolicy* retry = nullptr;
  /// Accumulates the walk's accounting, fault categories included.
  WalkTelemetry* telemetry = nullptr;
  /// Records each step's weight probe, accepted-hop edge and post-step
  /// position for the sampler diagnostics.
  diag::WalkDiagBuffer* diag = nullptr;
  /// The frozen per-batch quarantine view from the peer-health monitor.
  const QuarantineView* quarantine = nullptr;
  /// Records each transmission's (peer, delivered) outcome for the
  /// monitor to fold after the batch.
  WalkHealthBuffer* health = nullptr;
};

/// A sampling agent: a lazy Metropolis random walk over the overlay
/// (paper §V). One transition is:
///
///   1. with probability ½ stay put (laziness, makes the chain
///      aperiodic);
///   2. otherwise propose a uniformly random neighbor j, probe its
///      weight (one message), and move there with probability
///      min(1, (w_j·d_i)/(w_i·d_j)) — one message per actual move.
///
/// Degrees and weights come from the context's OverlaySnapshot. The walk
/// survives churn between refreshes: if the node hosting the agent is
/// not in the snapshot, the next transition restarts from the fallback
/// node.
///
/// Under an attached FaultPlan the same transition is subject to message
/// loss (probes and hops are retransmitted with exponential backoff up
/// to RetryPolicy::max_attempts, then abandoned), stalled peers (a
/// blackholed host freezes the agent; a blackholed neighbor never
/// answers probes), stale weight probes (the acceptance test sees a
/// distorted weight), and agent drops (the agent is lost in transit and
/// restarts from the fallback node, like a churn-stranded agent). All
/// fault randomness comes from the plan's own stream, so a plan with all
/// rates zero leaves the walk bit-identical to the fault-free path.
class RandomWalk {
 public:
  /// Starts a walk at `origin`. `laziness` is the per-step self-loop
  /// probability: ½ is the paper's choice (guarantees aperiodicity on
  /// any graph); 0 gives the non-lazy chain, which fails to converge on
  /// bipartite graphs (e.g., even rings, meshes) — exposed for the
  /// ablation in bench_mixing.
  explicit RandomWalk(NodeId origin, double laziness = 0.5)
      : RandomWalk(origin, Rng::Coin::Of(laziness)) {}

  /// Starts a walk at `origin` whose lazy coin is
  /// Rng::Coin::Of(laziness), made once by a caller that starts many
  /// walks.
  RandomWalk(NodeId origin, Rng::Coin lazy_coin)
      : current_(origin), lazy_coin_(lazy_coin) {}

  /// Node the agent currently resides on.
  NodeId current() const { return current_; }

  /// Executes `steps` (lazy) Metropolis transitions — the one transition
  /// loop for clean, faulted and quarantine-routed walks. Each post-step
  /// position lands in `ctx.diag`: the visit histogram the diagnostics
  /// compare against the stationary target. The call's probe, hop and
  /// attempt counts fold into `ctx.meter` and `ctx.telemetry` once, on
  /// return. Fails if both the current node and `ctx.fallback` are dead;
  /// the transitions before the failure stay counted. The diag and health
  /// hooks consume no randomness, so instrumented and uninstrumented runs
  /// are bit-identical.
  ///
  /// With a non-empty `ctx.quarantine`, proposals are drawn uniformly
  /// over the NON-quarantined neighbors, and both degree corrections in
  /// the acceptance test use live degrees — the walk is exactly the
  /// Metropolis chain on the subgraph induced by live nodes, so the
  /// stationary target over the live nodes is preserved (see the
  /// src/diag TV gate). An empty view takes the unrouted draw path,
  /// bit-identical to an unmonitored run.
  ///
  /// Under faults a caller that owns a hop budget, hedges or restart
  /// bookkeeping steps one transition per call and reads the telemetry
  /// in between.
  ///
  /// The loop is compiled three times from one source, and each call
  /// picks one instantiation up front from what the context and the
  /// snapshot hold. A walk with a fault plan, a non-empty quarantine view
  /// or a diag or health buffer runs the hooked instantiation. Any other
  /// walk (`meter` and `telemetry` may be set) runs a clean one, with
  /// every hook branch compiled out: over a snapshot that holds its coin
  /// table (OverlaySnapshot::BuildCoins), a proposal reads the drawn
  /// entry's neighbour and acceptance coin and nothing else, no weight,
  /// degree or floating point; without the table it computes the
  /// acceptance from the two weights and degrees, as the hooked one
  /// does. All three make the same draws: the lazy coin and every coin
  /// in the table are Rng::Coin values, which flip exactly as
  /// Rng::NextBernoulli of their probability does, NaN included. In each,
  /// the walk's state lives in locals for the whole call: a copy of
  /// `ctx.rng`, written back on return; the position with its neighbour
  /// row and its weight or coin row, carried from step to step; and the
  /// call's counts. Liveness is checked once, on entry: snapshot rows
  /// hold only live ids, so a walk that starts live stays live. The coin
  /// instantiation picks the neighbour with the row's pick reciprocal
  /// (OverlaySnapshot::PickReciprocal), the same index and draws as
  /// Rng::NextIndex without its 64-bit division.
  Status Advance(const WalkContext& ctx, size_t steps);

 private:
  NodeId current_;
  /// Stays put on heads: Rng::Coin::Of(laziness).
  Rng::Coin lazy_coin_;
};

/// One walk of a clean batch, stepped by StepCleanWalks: its plan on
/// entry, its outcome on return.
struct CleanWalk {
  Rng rng;                 ///< The walk's generator, advanced in place.
  NodeId position = 0;     ///< Live on entry; where the walk ends.
  size_t steps = 0;        ///< Transitions to attempt.
  uint64_t proposals = 0;  ///< Set on return: weight probes sent.
  uint64_t accepted = 0;   ///< Set on return: moves made (walk hops).
};

/// Walks the lockstep kernel steps per vector.
inline constexpr size_t kLockstepLanes = 8;

/// True iff this CPU has AVX-512F, which the lockstep kernel needs. Read
/// once.
bool LockstepKernelAvailable();

/// True iff StepCleanWalks steps walks over `overlay` with `lazy_coin`
/// on the lockstep kernel: the CPU has AVX-512F, the snapshot holds its
/// coin table and row words (OverlaySnapshot::RowWords, present while
/// EntryCount() < 2^32), and the lazy coin draws (its threshold is below
/// Rng::Coin::kTails: 0 < laziness < 1, or NaN).
bool LockstepKernelRuns(const OverlaySnapshot& overlay, Rng::Coin lazy_coin);

/// Steps each walk of `walks` by its `steps` over `overlay`, exactly as
/// RandomWalk::Advance with no hook does: the same draws, end position,
/// proposals and accepted moves, walk by walk. Every position must be
/// live in `overlay` (a caller re-injects a dead start first, as
/// Advance's entry check would). When LockstepKernelRuns, walks step in
/// groups of kLockstepLanes, one AVX-512 vector per group and two groups
/// interleaved, with masks where the scalar loop branches; the walks
/// that do not fill a group, and every walk otherwise, step on Advance's
/// loop. A lane whose pick draw is below its degree, which NextIndex may
/// redraw (probability about degree / 2^64), takes that one step on
/// Advance's loop too.
void StepCleanWalks(const OverlaySnapshot& overlay, Rng::Coin lazy_coin,
                    std::span<CleanWalk> walks);

}  // namespace digest

#endif  // DIGEST_SAMPLING_RANDOM_WALK_H_
