#ifndef DIGEST_NET_FAULT_PLAN_H_
#define DIGEST_NET_FAULT_PLAN_H_

#include <cstdint>

#include "common/result.h"
#include "net/graph.h"
#include "numeric/rng.h"

namespace digest {
namespace obs {
class Tracer;
}  // namespace obs
namespace prof {
class Track;
}  // namespace prof

/// Rates and shapes of the injected faults. All probabilities are in
/// [0, 1]; a default-constructed config injects nothing.
struct FaultPlanConfig {
  /// Base probability that any single message transmission is lost.
  double message_loss = 0.0;

  /// Per-edge heterogeneity in [0, 1]: the loss rate of a concrete edge
  /// (a, b) is message_loss · (1 + edge_spread·u) with u drawn once per
  /// edge from [-1, 1] (deterministically from the plan seed), clamped
  /// into [0, 1]. 0 gives every edge the base rate.
  double edge_spread = 0.0;

  /// Probability that a walk agent is lost in transit on any single hop
  /// (the hosting message is delivered but the agent state is not
  /// recoverable; the originator re-injects it from the origin).
  double agent_drop = 0.0;

  /// Probability that a weight probe is answered from a stale cache
  /// instead of the neighbor's current state.
  double stale_probe = 0.0;

  /// Maximum relative distortion of a stale weight: a stale probe
  /// reports w·(1 + stale_noise·u) with u uniform in [-1, 1], floored
  /// at 0.
  double stale_noise = 0.5;

  /// Fraction of nodes that periodically stall (blackhole): a stalled
  /// node receives messages but never answers or forwards.
  double stall_fraction = 0.0;

  /// A stalling node blackholes for `stall_length` consecutive ticks out
  /// of every `stall_every` ticks, at a per-node deterministic phase.
  int64_t stall_every = 64;
  int64_t stall_length = 8;

  /// Correlated partition episodes: every `partition_every` ticks a new
  /// episode begins, and for its first `partition_length` ticks the
  /// overlay is split into `partition_components` components. Component
  /// membership is a pure hash of (seed, episode, node), so successive
  /// episodes cut the overlay along different seams; any message whose
  /// endpoints land in different components is lost deterministically
  /// (no draw — a partition is not a coin flip). 0 disables.
  int64_t partition_every = 0;
  int64_t partition_length = 0;
  uint64_t partition_components = 2;

  /// Flapping links: this fraction of edges goes dark for `flap_length`
  /// consecutive ticks out of every `flap_every`, at a per-edge
  /// deterministic phase — the link-level analogue of node stalls, and
  /// the failure mode that makes circuit breakers bounce.
  double flap_fraction = 0.0;
  int64_t flap_every = 32;
  int64_t flap_length = 4;

  /// Asymmetric per-direction loss in [0, 1]: direction (from, to) of an
  /// edge carries rate EdgeLossRate · (1 + loss_asymmetry · s) with
  /// s = ±1 chosen by a per-direction hash (one direction of each lossy
  /// edge is worse than the other). 0 keeps both directions exactly
  /// equal to EdgeLossRate.
  double loss_asymmetry = 0.0;

  /// Validates ranges (probabilities in [0,1], window lengths coherent).
  Status Validate() const;
};

/// Deterministic, seed-driven fault schedule for the simulated overlay
/// (the failure modes an unstructured P2P network actually exhibits:
/// message loss, stalled peers, stale state, lost walk agents — on top
/// of the whole-node churn modeled by net/churn.h).
///
/// All randomness is drawn from a private xoshiro stream seeded at
/// construction, so a run with a FaultPlan is exactly reproducible from
/// (config, seed) and — crucially — the plan never consumes randomness
/// from the simulation's own generators: attaching a plan with all rates
/// zero is bit-identical to running without one.
///
/// Static properties (per-edge loss rates, which nodes stall and when)
/// are pure hash functions of the seed, so they can be queried in any
/// order without perturbing the schedule.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config, uint64_t seed);

  const FaultPlanConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Scenario dials: rates may be changed mid-run (e.g. a loss burst);
  /// the draw stream itself stays deterministic. A value outside [0, 1]
  /// is rejected with InvalidArgument and leaves the rate unchanged —
  /// no silent clamping.
  Status set_message_loss(double p);
  Status set_agent_drop(double p);
  Status set_stale_probe(double p);
  Status set_stall_fraction(double p);

  /// Advances the plan's clock; stall, flap, and partition windows are
  /// evaluated against it. Emits PartitionBegin/PartitionEnd trace
  /// events when the clock crosses a partition-window boundary (pure
  /// observation: the fault schedule is unchanged by tracing).
  void set_now(int64_t t);
  int64_t now() const { return now_; }

  /// Attaches (or detaches, with nullptr) a structured event tracer:
  /// each injected message loss emits an obs::FaultLossEvent. Not owned;
  /// must outlive the plan. Observation only — the draw stream is
  /// untouched, so a traced run injects the identical fault schedule.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches (or detaches) a wall-clock track: the Bernoulli/noise
  /// draws (LoseMessage, DropAgent, StaleProbe, DistortWeight) fold
  /// their real cost into prof::Phase::kFaultDraw. The sampling operator
  /// hands each walk's substream the track of the worker running it.
  /// Not owned; null disables with no clock reads. Same purity contract
  /// as the tracer: the draw stream and injection counters are
  /// untouched.
  void SetTrack(prof::Track* track) { track_ = track; }

  /// Draws whether one transmission over edge (from, to) is lost.
  /// Counts toward losses_injected() when true.
  bool LoseMessage(NodeId from, NodeId to);

  /// Deterministic loss rate of edge {a, b} (symmetric; no draw).
  double EdgeLossRate(NodeId a, NodeId b) const;

  /// Deterministic loss rate of the DIRECTION (from, to): EdgeLossRate
  /// skewed by loss_asymmetry (one direction of each lossy edge is
  /// worse). Exactly EdgeLossRate when loss_asymmetry is 0.
  double DirectionalLossRate(NodeId from, NodeId to) const;

  /// True iff a partition window is active at now(). Pure function of
  /// (config, now).
  bool PartitionActive() const;

  /// Partition episode index at now() (floor(now / partition_every)).
  uint64_t PartitionEpisode() const;

  /// Component `node` belongs to in the current episode's split — a
  /// pure hash of (seed, episode, node), meaningful whether or not the
  /// window is active (tests probe upcoming splits).
  uint64_t PartitionComponent(NodeId node) const;

  /// True iff a message (from, to) crosses component boundaries while a
  /// partition window is active — such messages are lost
  /// deterministically, independent of the draw stream.
  bool CrossPartition(NodeId from, NodeId to) const;

  /// True iff edge {a, b} is inside one of its flap windows at now().
  /// Pure function of (seed, a, b, now).
  bool LinkFlapped(NodeId a, NodeId b) const;

  /// Draws whether a hopping agent is lost in transit.
  bool DropAgent();

  /// Draws whether a weight probe is answered stale.
  bool StaleProbe();

  /// Distorts a stale weight by the configured relative noise (>= 0).
  double DistortWeight(double weight);

  /// True iff `node` is inside one of its blackhole windows at now().
  /// Pure function of (seed, node, now).
  bool IsBlackholed(NodeId node) const;

  /// Derives an independent draw substream of this plan, keyed by `key`,
  /// WITHOUT advancing this plan's stream. The substream shares the
  /// parent's config, seed, and clock — so the static fault topology
  /// (EdgeLossRate, IsBlackholed) is identical — but draws its Bernoulli
  /// stream from a seed hashed from (plan seed, key), with injection
  /// counters zeroed and no tracer/track attached. The sampling
  /// operator spawns one substream per walk, keyed by walk index, so the
  /// faults a walk sees depend only on (plan seed, batch, walk index) —
  /// never on scheduling. Fold a finished substream's counters back with
  /// AbsorbInjections().
  FaultPlan SpawnSubstream(uint64_t key) const;

  /// Adds a finished substream's injection counters onto this plan's
  /// (the merge step runs on the main thread after the pool barrier, so
  /// plain adds suffice).
  void AbsorbInjections(uint64_t losses, uint64_t drops, uint64_t stale) {
    losses_injected_ += losses;
    drops_injected_ += drops;
    stale_injected_ += stale;
  }

  /// Injection counters, for tests and benches that reconcile meter
  /// accounting against the schedule.
  uint64_t losses_injected() const { return losses_injected_; }
  uint64_t drops_injected() const { return drops_injected_; }
  uint64_t stale_injected() const { return stale_injected_; }

 private:
  FaultPlanConfig config_;
  uint64_t seed_;
  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  prof::Track* track_ = nullptr;
  int64_t now_ = 0;
  bool partition_window_active_ = false;
  uint64_t active_episode_ = 0;  ///< Valid while a window is active.
  uint64_t losses_injected_ = 0;
  uint64_t drops_injected_ = 0;
  uint64_t stale_injected_ = 0;
};

/// Retransmission/backoff policy for messages sent under a FaultPlan,
/// and the per-batch budget that bounds how long a sampling call may
/// keep retrying before it times out with a degraded status.
struct RetryPolicy {
  /// Total send attempts per message (1 = no retries).
  size_t max_attempts = 4;

  /// Budget units charged for the k-th retransmission:
  /// backoff_base · 2^(k−1) — the deterministic exponential-backoff
  /// delay, expressed in hop-budget units.
  size_t backoff_base = 1;

  /// A batch of walks planned to take S hops may spend at most
  /// ceil(hop_budget_factor · S) budget units (hops + backoff delays)
  /// before the sampling call gives up with kUnavailable.
  double hop_budget_factor = 8.0;

  /// Deterministic backoff cost of the k-th retransmission (k >= 1).
  /// Saturates at SIZE_MAX instead of overflowing: the shift is capped
  /// at 20 doublings, but a large backoff_base could still wrap, and a
  /// wrapped cost would under-charge the hop budget.
  size_t BackoffCost(size_t k) const {
    const size_t shift = k > 0 ? (k - 1 < 20 ? k - 1 : 20) : 0;
    if (backoff_base > (static_cast<size_t>(-1) >> shift)) {
      return static_cast<size_t>(-1);
    }
    return backoff_base << shift;
  }

  Status Validate() const;
};

}  // namespace digest

#endif  // DIGEST_NET_FAULT_PLAN_H_
