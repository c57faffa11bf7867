#include "sampling/random_walk.h"

#include "diag/diag.h"
#include "net/peer_health.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

// Saturating add for the telemetry budget counters: BackoffCost already
// saturates at SIZE_MAX, and a saturated cost added to a running total
// must pin at the ceiling rather than wrap past it.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return UINT64_MAX;
  return sum;
}

// Delivers one message over (from, to) under faults, retransmitting
// with exponential backoff. The first transmission is pre-charged by
// the caller in its own meter category (probe/hop); this helper charges
// only the recovery traffic: one retry message per retransmission, plus
// the backoff delay in budget units. Returns false when the message is
// abandoned after RetryPolicy::max_attempts sends (or the receiver is
// blackholed and every send goes unanswered). Every transmission's
// (receiver, delivered) outcome lands in `health` (may be null) — the
// raw evidence the peer-health monitor accrues suspicion from.
bool TryDeliver(FaultPlan& faults, const RetryPolicy& retry, NodeId from,
                NodeId to, MessageMeter* meter, WalkTelemetry* telemetry,
                WalkHealthBuffer* health) {
  const bool blackholed = faults.IsBlackholed(to);
  for (size_t attempt = 1;; ++attempt) {
    const bool lost = blackholed || faults.LoseMessage(from, to);
    if (!lost) {
      if (health != nullptr) health->RecordSuccess(to);
      return true;
    }
    if (health != nullptr) health->RecordFailure(to);
    if (meter != nullptr) meter->AddLoss();
    if (telemetry != nullptr) ++telemetry->losses;
    if (attempt >= retry.max_attempts) return false;
    // Retransmit after the deterministic backoff delay. A cost that
    // saturated to UINT64_MAX is a wait no hop budget could ever
    // afford: abandon the message instead of retransmitting, so an
    // adversarial max_attempts cannot turn total loss into an
    // unbounded retry loop (the budget check lives between steps).
    const uint64_t cost = retry.BackoffCost(attempt);
    if (cost == UINT64_MAX) return false;
    if (meter != nullptr) meter->AddRetry();
    if (telemetry != nullptr) {
      ++telemetry->retries;
      telemetry->attempts = SatAdd(telemetry->attempts, cost);
      telemetry->backoff_units = SatAdd(telemetry->backoff_units, cost);
    }
  }
}

// Neighbors of `node` that are not quarantined — the node's degree in
// the subgraph induced by live nodes.
size_t LiveDegree(const Graph& graph, NodeId node,
                  const QuarantineView& quarantine) {
  size_t live = 0;
  for (NodeId n : graph.Neighbors(node)) {
    if (!quarantine.Quarantined(n)) ++live;
  }
  return live;
}

}  // namespace

Status RandomWalk::Step(const WalkContext& ctx) {
  static const RetryPolicy kDefaultRetry;
  const Graph& graph = ctx.graph;
  FaultPlan* faults = ctx.faults;
  const RetryPolicy& retry = ctx.retry != nullptr ? *ctx.retry : kDefaultRetry;
  MessageMeter* meter = ctx.meter;
  WalkTelemetry* telemetry = ctx.telemetry;
  diag::WalkDiagBuffer* diag = ctx.diag;
  const QuarantineView* quarantine = ctx.quarantine;
  WalkHealthBuffer* health = ctx.health;
  if (telemetry != nullptr) ++telemetry->attempts;
  if (!graph.HasNode(current_)) {
    // The node hosting the agent left the network; the originator
    // restarts the agent (one message to re-inject it).
    if (!graph.HasNode(ctx.fallback)) {
      return Status::Unavailable("walk origin left the network");
    }
    current_ = ctx.fallback;
    if (meter != nullptr) meter->AddWalkHop();
  }
  if (faults != nullptr && faults->IsBlackholed(current_)) {
    // The host is stalled: the agent is frozen until the node wakes up.
    // A frozen step is also health evidence against the host.
    if (telemetry != nullptr) ++telemetry->stalled_steps;
    if (health != nullptr) health->RecordFailure(current_);
    return Status::OK();
  }
  // Laziness: self-loop with the configured probability, free of
  // messages (½ in the paper, Eq. 12's prefactor).
  if (laziness_ > 0.0 && ctx.rng.NextBernoulli(laziness_)) {
    return Status::OK();
  }
  const size_t degree = graph.Degree(current_);
  if (degree == 0) {
    // Isolated node (transiently possible under churn): stay.
    return Status::OK();
  }
  // Quarantine-aware routing: with a non-empty quarantine view, the
  // proposal is uniform over the LIVE (non-quarantined) neighbors and
  // both degree corrections below use live degrees — the walk becomes
  // the Metropolis chain on the induced live subgraph, whose stationary
  // distribution is the same weight target restricted to live nodes.
  // An empty view must draw through graph.RandomNeighbor exactly, so an
  // attached-but-idle monitor stays bit-identical to no monitor.
  const bool routed = quarantine != nullptr && quarantine->Any();
  NodeId proposal = kInvalidNode;
  size_t degree_i = degree;
  if (routed) {
    const size_t live = LiveDegree(graph, current_, *quarantine);
    if (live == 0) {
      // Every neighbor is quarantined: hold position this step (the
      // next batch routes against a fresh view).
      return Status::OK();
    }
    degree_i = live;
    size_t pick = ctx.rng.NextIndex(live);
    for (NodeId n : graph.Neighbors(current_)) {
      if (quarantine->Quarantined(n)) continue;
      if (pick == 0) {
        proposal = n;
        break;
      }
      --pick;
    }
  } else {
    DIGEST_ASSIGN_OR_RETURN(proposal, graph.RandomNeighbor(current_, ctx.rng));
  }
  // Probing the neighbor's weight costs one message (charged whether or
  // not the transmission survives — the sender pays for the send).
  if (meter != nullptr) meter->AddWeightProbe();
  if (telemetry != nullptr) ++telemetry->proposals;
  if (diag != nullptr) diag->RecordProbe(current_, proposal);
  if (faults != nullptr) {
    if (!TryDeliver(*faults, retry, current_, proposal, meter, telemetry,
                    health)) {
      // Probe never answered within the retry budget: abandon the
      // transition, the agent stays put.
      if (telemetry != nullptr) ++telemetry->abandoned;
      return Status::OK();
    }
  } else if (health != nullptr) {
    health->RecordSuccess(proposal);
  }
  double proposal_weight = ctx.weight(proposal);
  if (faults != nullptr && faults->StaleProbe()) {
    // The probe was answered from a stale cache: the acceptance test
    // sees a distorted weight. The chain's target distribution bends
    // accordingly — degradation the widened intervals account for.
    proposal_weight = faults->DistortWeight(proposal_weight);
    if (telemetry != nullptr) ++telemetry->stale_probes;
  }
  const size_t degree_j = routed
                              ? LiveDegree(graph, proposal, *quarantine)
                              : graph.Degree(proposal);
  const double accept = MetropolisAcceptance(ctx.weight(current_), degree_i,
                                             proposal_weight, degree_j);
  if (ctx.rng.NextBernoulli(accept)) {
    if (meter != nullptr) meter->AddWalkHop();
    if (telemetry != nullptr) ++telemetry->accepted;
    if (diag != nullptr) diag->RecordHop(current_, proposal);
    if (faults != nullptr) {
      if (!TryDeliver(*faults, retry, current_, proposal, meter,
                      telemetry, health)) {
        // Forward message abandoned: the agent never left.
        if (telemetry != nullptr) ++telemetry->abandoned;
        return Status::OK();
      }
      if (faults->DropAgent()) {
        // Delivered, but the agent state was lost in transit. The
        // originator re-injects the agent from the origin — the same
        // recovery as a churn-stranded agent, except the walk must
        // re-mix (the caller extends its remaining steps).
        if (meter != nullptr) meter->AddAgentRestart();
        if (telemetry != nullptr) ++telemetry->drops;
        if (!graph.HasNode(ctx.fallback)) {
          return Status::Unavailable(
              "dropped agent's origin left the network");
        }
        current_ = ctx.fallback;
        return Status::OK();
      }
    } else if (health != nullptr) {
      health->RecordSuccess(proposal);
    }
    current_ = proposal;
  }
  return Status::OK();
}

Status RandomWalk::Advance(const WalkContext& ctx, size_t steps) {
  for (size_t i = 0; i < steps; ++i) {
    DIGEST_RETURN_IF_ERROR(Step(ctx));
    if (ctx.diag != nullptr) ctx.diag->RecordVisit(current_);
  }
  return Status::OK();
}

}  // namespace digest
