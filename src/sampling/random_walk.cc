#include "sampling/random_walk.h"

#include "common/saturating.h"
#include "diag/diag.h"
#include "net/peer_health.h"
#include "sampling/lockstep_kernel.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

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
size_t LiveDegree(const OverlaySnapshot& overlay, NodeId node,
                  const QuarantineView& quarantine) {
  size_t live = 0;
  for (NodeId n : overlay.Neighbors(node)) {
    if (!quarantine.Quarantined(n)) ++live;
  }
  return live;
}

// The one transition loop of RandomWalk::Advance. kHooks = false is a
// clean instantiation: its hook pointers are null, so every fault,
// quarantine, diag and health branch below folds away at compile time
// and the same source compiles to the lean loop. kCoins (clean only)
// steps on the snapshot's acceptance-coin table: the walk carries its
// position's coin row and pick reciprocal instead of its weight, and a
// proposal flips the drawn entry's coin instead of computing the
// acceptance. `position` is read on entry and written back on return.
template <bool kHooks, bool kCoins>
Status Transitions(const WalkContext& ctx, size_t steps, Rng::Coin lazy_coin,
                   NodeId& position) {
  static_assert(!(kHooks && kCoins), "hooked walks compute the acceptance");
  if (steps == 0) return Status::OK();
  static const RetryPolicy kDefaultRetry;
  const OverlaySnapshot& overlay = ctx.overlay;
  const RetryPolicy& retry = ctx.retry != nullptr ? *ctx.retry : kDefaultRetry;
  MessageMeter* meter = ctx.meter;
  WalkTelemetry* telemetry = ctx.telemetry;
  // The hooks, null in the clean instantiation. Not const: GCC's
  // -Wnonnull flags calls through a const null pointer even in the
  // branches that fold away.
  FaultPlan* faults = kHooks ? ctx.faults : nullptr;
  diag::WalkDiagBuffer* diag = kHooks ? ctx.diag : nullptr;
  WalkHealthBuffer* health = kHooks ? ctx.health : nullptr;
  // Quarantine-aware routing: with a non-empty quarantine view, the
  // proposal is uniform over the LIVE (non-quarantined) neighbors and
  // both degree corrections use live degrees — the walk becomes the
  // Metropolis chain on the induced live subgraph, whose stationary
  // distribution is the same weight target restricted to live nodes.
  // An empty view must draw exactly like no view, so an attached-but-
  // idle monitor stays bit-identical to no monitor.
  const QuarantineView* const quarantine =
      kHooks && ctx.quarantine != nullptr && ctx.quarantine->Any()
          ? ctx.quarantine
          : nullptr;
  // The walk's state, in locals until the call returns: the generator,
  // the position with its row and its weight or coin row, and this
  // call's counts (folded into the meter and telemetry on return).
  Rng rng = ctx.rng;
  NodeId current = position;
  uint64_t proposals = 0;     // One weight probe each.
  uint64_t accepted = 0;      // One walk-hop message each.
  uint64_t reinjections = 0;  // Churn restarts: one walk-hop message each.
  size_t step = 0;            // Transitions attempted.
  const char* failure = nullptr;
  // The only liveness check: every snapshot row holds live ids alone
  // (Graph::AddEdge needs live endpoints and RemoveNode detaches every
  // edge), so a walk that starts this call live stays live.
  if (!overlay.HasNode(current)) {
    if (overlay.HasNode(ctx.fallback)) {
      // The node hosting the agent left the network; the originator
      // restarts the agent (one message to re-inject it).
      current = ctx.fallback;
      ++reinjections;
    } else {
      failure = "walk origin left the network";
      step = 1;  // The failed transition still counts as an attempt.
    }
  }
  std::span<const NodeId> row = overlay.Neighbors(current);
  const Rng::Coin* coins = kCoins ? overlay.Coins(current) : nullptr;
  uint64_t reciprocal = kCoins ? overlay.PickReciprocal(current) : 0;
  double weight = kCoins ? 0.0 : overlay.Weight(current);
  for (; step < steps && failure == nullptr; ++step) {
    // One transition: returns null once it is over, moved or not, and
    // the reason when no transition is possible.
    failure = [&]() -> const char* {
      if (faults != nullptr && faults->IsBlackholed(current)) {
        // The host is stalled: the agent is frozen until the node wakes
        // up. A frozen step is also health evidence against the host.
        if (telemetry != nullptr) ++telemetry->stalled_steps;
        if (health != nullptr) health->RecordFailure(current);
        return nullptr;
      }
      // Laziness: self-loop with the configured probability, free of
      // messages (½ in the paper, Eq. 12's prefactor).
      if (rng.Flip(lazy_coin)) return nullptr;
      // Isolated node (transiently possible under churn): stay.
      if (row.empty()) return nullptr;
      NodeId proposal = kInvalidNode;
      size_t entry = 0;  // The proposal's index in `row`, unrouted only.
      size_t degree_i = row.size();
      if (quarantine != nullptr) {
        const size_t live = LiveDegree(overlay, current, *quarantine);
        // Every neighbor is quarantined: hold position this step (the
        // next batch routes against a fresh view).
        if (live == 0) return nullptr;
        degree_i = live;
        size_t pick = rng.NextIndex(live);
        for (NodeId n : row) {
          if (quarantine->Quarantined(n)) continue;
          if (pick == 0) {
            proposal = n;
            break;
          }
          --pick;
        }
      } else {
        entry = kCoins ? rng.NextIndex(row.size(), reciprocal)
                       : rng.NextIndex(row.size());
        proposal = row[entry];
      }
      // Probing the neighbor's weight costs one message (charged whether
      // or not the transmission survives — the sender pays for the send).
      ++proposals;
      if constexpr (kCoins) {
        // Both ends are frozen for the batch, so the entry's coin is the
        // acceptance this proposal would compute, flipped alike.
        if (!rng.Flip(coins[entry])) return nullptr;
        ++accepted;
        current = proposal;
        row = overlay.Neighbors(current);
        coins = overlay.Coins(current);
        reciprocal = overlay.PickReciprocal(current);
        return nullptr;
      }
      if (diag != nullptr) diag->RecordProbe(current, proposal);
      if (faults != nullptr) {
        if (!TryDeliver(*faults, retry, current, proposal, meter, telemetry,
                        health)) {
          // Probe never answered within the retry budget: abandon the
          // transition, the agent stays put.
          if (telemetry != nullptr) ++telemetry->abandoned;
          return nullptr;
        }
      } else if (health != nullptr) {
        health->RecordSuccess(proposal);
      }
      const double proposal_weight = overlay.Weight(proposal);
      double probed_weight = proposal_weight;
      if (faults != nullptr && faults->StaleProbe()) {
        // The probe was answered from a stale cache: the acceptance test
        // sees a distorted weight. The chain's target distribution bends
        // accordingly — degradation the widened intervals account for.
        probed_weight = faults->DistortWeight(proposal_weight);
        if (telemetry != nullptr) ++telemetry->stale_probes;
      }
      const std::span<const NodeId> proposal_row = overlay.Neighbors(proposal);
      const size_t degree_j = quarantine != nullptr
                                  ? LiveDegree(overlay, proposal, *quarantine)
                                  : proposal_row.size();
      const double accept =
          MetropolisAcceptance(weight, degree_i, probed_weight, degree_j);
      if (!rng.NextBernoulli(accept)) return nullptr;
      ++accepted;
      if (diag != nullptr) diag->RecordHop(current, proposal);
      if (faults != nullptr) {
        if (!TryDeliver(*faults, retry, current, proposal, meter, telemetry,
                        health)) {
          // Forward message abandoned: the agent never left.
          if (telemetry != nullptr) ++telemetry->abandoned;
          return nullptr;
        }
        if (faults->DropAgent()) {
          // Delivered, but the agent state was lost in transit. The
          // originator re-injects the agent from the origin — the same
          // recovery as a churn-stranded agent, except the walk must
          // re-mix (the caller extends its remaining steps).
          if (meter != nullptr) meter->AddAgentRestart();
          if (telemetry != nullptr) ++telemetry->drops;
          if (!overlay.HasNode(ctx.fallback)) {
            return "dropped agent's origin left the network";
          }
          current = ctx.fallback;
          row = overlay.Neighbors(current);
          weight = overlay.Weight(current);
          return nullptr;
        }
      } else if (health != nullptr) {
        health->RecordSuccess(proposal);
      }
      // The true weight moves with the agent, even after a stale probe.
      current = proposal;
      row = proposal_row;
      weight = proposal_weight;
      return nullptr;
    }();
    if (failure == nullptr && diag != nullptr) diag->RecordVisit(current);
  }
  position = current;
  ctx.rng = rng;
  if (meter != nullptr) {
    meter->AddWeightProbe(proposals);
    meter->AddWalkHop(accepted + reinjections);
  }
  if (telemetry != nullptr) {
    // Saturating: a saturated backoff cost may already have pinned the
    // total at the ceiling (see TryDeliver).
    telemetry->attempts = SatAdd(telemetry->attempts, step);
    telemetry->proposals += proposals;
    telemetry->accepted += accepted;
  }
  if (failure != nullptr) return Status::Unavailable(failure);
  return Status::OK();
}

}  // namespace

void WalkTelemetry::Merge(const WalkTelemetry& other) {
  attempts = SatAdd(attempts, other.attempts);
  retries += other.retries;
  losses += other.losses;
  drops += other.drops;
  abandoned += other.abandoned;
  stale_probes += other.stale_probes;
  stalled_steps += other.stalled_steps;
  proposals += other.proposals;
  accepted += other.accepted;
  backoff_units = SatAdd(backoff_units, other.backoff_units);
  hedges += other.hedges;
  hedge_wins += other.hedge_wins;
}

bool LockstepKernelRuns(const OverlaySnapshot& overlay, Rng::Coin lazy_coin) {
  return LockstepKernelAvailable() && overlay.HasCoins() &&
         overlay.RowWords() != nullptr &&
         lazy_coin.threshold < Rng::Coin::kTails;
}

void StepCleanWalks(const OverlaySnapshot& overlay, Rng::Coin lazy_coin,
                    std::span<CleanWalk> walks) {
  size_t grouped = 0;
  if (LockstepKernelRuns(overlay, lazy_coin)) {
    grouped = walks.size() - walks.size() % kLockstepLanes;
    StepLockstepGroups(overlay, lazy_coin, walks.first(grouped));
  }
  for (CleanWalk& walk : walks.subspan(grouped)) {
    WalkTelemetry telemetry;
    const WalkContext ctx{.overlay = overlay,
                          .rng = walk.rng,
                          .fallback = walk.position,
                          .telemetry = &telemetry};
    RandomWalk agent(walk.position, lazy_coin);
    // A live start cannot fail: only a dead start and fallback do.
    (void)agent.Advance(ctx, walk.steps);
    walk.position = agent.current();
    walk.proposals = telemetry.proposals;
    walk.accepted = telemetry.accepted;
  }
}

Status RandomWalk::Advance(const WalkContext& ctx, size_t steps) {
  const bool hooked =
      ctx.faults != nullptr || ctx.diag != nullptr || ctx.health != nullptr ||
      (ctx.quarantine != nullptr && ctx.quarantine->Any());
  if (hooked) return Transitions<true, false>(ctx, steps, lazy_coin_, current_);
  return ctx.overlay.HasCoins()
             ? Transitions<false, true>(ctx, steps, lazy_coin_, current_)
             : Transitions<false, false>(ctx, steps, lazy_coin_, current_);
}

}  // namespace digest
