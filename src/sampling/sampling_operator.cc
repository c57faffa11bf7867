#include "sampling/sampling_operator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/saturating.h"
#include "diag/diag.h"
#include "exec/worker_pool.h"
#include "net/peer_health.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "prof/profiler.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

// Multipliers of the automatic walk lengths: a cold agent mixes for
// ceil(kMixingFactor · ln²(N)) steps, a warm one resets for
// ceil(kResetFactor · ln(N)).
constexpr double kMixingFactor = 4.0;
constexpr double kResetFactor = 4.0;

// Hedging (SamplingOperatorOptions::hedge): an agent is a straggler
// once its consumed attempts exceed kStragglerFactor × (its planned
// steps) × (observed mean attempts per step), and hedging arms only
// after kMinObservations completed walks (below that the
// attempts-per-step estimate is noise).
constexpr double kStragglerFactor = 3.0;
constexpr uint64_t kMinObservations = 4;

size_t AutoLength(size_t node_count, double factor, bool squared) {
  const double ln_n = std::log(std::max<size_t>(node_count, 2));
  const double raw = squared ? factor * ln_n * ln_n : factor * ln_n;
  return static_cast<size_t>(std::ceil(std::max(raw, 1.0)));
}

// Registry digests of one completed (or timed-out) batch. Buckets are
// fixed so dumps from different runs aggregate cleanly.
void ObserveBatch(obs::Registry* registry, const WalkTelemetry& telemetry,
                  size_t samples, bool timed_out) {
  if (registry == nullptr) return;
  registry->GetCounter("walk.batches")->Increment();
  registry->GetCounter("walk.samples")->Increment(samples);
  if (timed_out) registry->GetCounter("walk.timeouts")->Increment();
  registry->GetCounter("walk.agent_restarts")->Increment(telemetry.drops);
  // Metropolis decision counters, reconcilable against MessageMeter:
  // every proposal sent one weight probe, every accepted move sent one
  // walk-hop message (obs_reconcile_test holds both equalities on a
  // static fault-free overlay).
  registry->GetCounter("walk.proposals")->Increment(telemetry.proposals);
  registry->GetCounter("walk.accepted")->Increment(telemetry.accepted);
  registry->GetCounter("walk.rejected")
      ->Increment(telemetry.proposals - telemetry.accepted);
  // Hedge counters only materialize once a hedge fires, so metric dumps
  // of non-hedged runs are byte-identical to the pre-hedge layout.
  if (telemetry.hedges > 0) {
    registry->GetCounter("walk.hedges")->Increment(telemetry.hedges);
    registry->GetCounter("walk.hedge_wins")->Increment(telemetry.hedge_wins);
  }
  if (telemetry.proposals > 0) {
    registry
        ->GetHistogram("walk.acceptance_rate",
                       obs::LinearBuckets(0.0, 1.0, 11))
        ->Observe(static_cast<double>(telemetry.accepted) /
                  static_cast<double>(telemetry.proposals));
  }
  if (samples > 0) {
    registry
        ->GetHistogram("walk.hops_per_sample",
                       obs::ExponentialBuckets(1.0, 2.0, 16))
        ->Observe(static_cast<double>(telemetry.attempts) /
                  static_cast<double>(samples));
  }
  registry
      ->GetHistogram("walk.retry_latency_ticks",
                     obs::ExponentialBuckets(1.0, 4.0, 12))
      ->Observe(static_cast<double>(telemetry.backoff_units));
}

}  // namespace

// One walk of a batch: its plan, fixed on the calling thread before
// fan-out, and its outcome, written by exactly one worker and read at
// the ordered merge.
struct SamplingOperator::WalkSlot {
  NodeId start = 0;
  size_t steps = 0;
  // Set only under a fault plan: the hedge straggler threshold (0 =
  // disarmed), the hedge's start and length, the fault substream key.
  uint64_t threshold = 0;
  NodeId hedge_origin = 0;
  size_t hedge_steps = 0;
  uint64_t fault_key = 0;

  NodeId final_pos = 0;
  WalkTelemetry telemetry;
  MessageMeter meter;
  diag::WalkDiagBuffer diag;
  WalkHealthBuffer health;
  std::vector<obs::EventPayload> events;
  uint64_t fault_losses = 0;
  uint64_t fault_drops = 0;
  uint64_t fault_stale = 0;
  bool timed_out = false;  // Self-capped at the pooled budget.
};

SamplingOperator::SamplingOperator(const Graph* graph, WeightFn weight,
                                   Rng rng, MessageMeter* meter,
                                   SamplingOperatorOptions options)
    : graph_(graph),
      weight_(std::move(weight)),
      rng_(rng),
      meter_(meter),
      options_(options),
      lazy_coin_(Rng::Coin::Of(options.laziness)),
      pool_(std::make_unique<exec::WorkerPool>(options.num_threads)) {}

SamplingOperator::~SamplingOperator() = default;

size_t SamplingOperator::EffectiveWalkLength() const {
  if (options_.walk_length > 0) return options_.walk_length;
  return AutoLength(graph_->NodeCount(), kMixingFactor, /*squared=*/true);
}

size_t SamplingOperator::EffectiveResetLength() const {
  if (options_.reset_length > 0) return options_.reset_length;
  return AutoLength(graph_->NodeCount(), kResetFactor, /*squared=*/false);
}

Result<NodeId> SamplingOperator::SampleNode(NodeId origin) {
  DIGEST_ASSIGN_OR_RETURN(PartialBatch batch, SampleNodes(origin, 1));
  if (batch.timed_out) {
    return Status::Unavailable(
        "sampling hop budget exhausted under faults (walk timeout)");
  }
  return batch.nodes.front();
}

uint64_t SamplingOperator::HedgeThreshold(size_t steps) const {
  if (!options_.hedge) return 0;
  if (done_walks_ < kMinObservations || done_steps_ == 0) return 0;
  // Expected attempts for this agent = planned steps × the observed mean
  // attempts-per-step of completed walks (>= 1: a step costs at least
  // one attempt). Integer ceil keeps the threshold deterministic.
  const double mean_per_step =
      std::max(1.0, static_cast<double>(done_attempts_) /
                        static_cast<double>(done_steps_));
  return static_cast<uint64_t>(
      std::ceil(kStragglerFactor * mean_per_step * static_cast<double>(steps)));
}

Result<PartialBatch> SamplingOperator::SampleNodes(NodeId origin, size_t n) {
  // DESIGN.md "Parallel execution & determinism model": randomness,
  // fault injection, accounting and tracing are keyed by WALK INDEX and
  // land in the walk's slot (a clean batch's CleanWalk); walks share
  // nothing mutable, and the calling thread merges them in walk-index
  // order after the pool barrier, so the result is bit-identical at any
  // thread count. Since walks cannot see each other, hedge statistics
  // freeze at batch start and the hop budget cuts at walk granularity
  // (see the hooked merge).
  const obs::Instruments& in = instruments_;
  prof::ScopedTimer batch_timer(in.profiler, prof::Phase::kWalkBatch);
  if (graph_->NodeCount() == 0) {
    return Status::FailedPrecondition("cannot sample an empty network");
  }
  NodeId fallback = origin;
  if (!graph_->HasNode(fallback)) {
    DIGEST_ASSIGN_OR_RETURN(fallback, graph_->RandomLiveNode(rng_));
  }
  last_telemetry_ = WalkTelemetry();
  // The overlay every walk of this batch steps over, brought up to date
  // here, before fan-out: rows only if the graph mutated since the last
  // batch, weights always. Workers only read it, and the graph cannot
  // change before FinishBatch below reads it again.
  const bool overlay_changed = overlay_.Refresh(*graph_, weight_);
  // Quarantine view, frozen before any walk launches: every walk in
  // this batch routes against the same breaker snapshot, and outcome
  // folds (which may flip breakers) happen only at the merge.
  const QuarantineView health_view =
      in.health != nullptr ? in.health->SnapshotView() : QuarantineView();
  const QuarantineView* qv = in.health != nullptr ? &health_view : nullptr;
  const size_t warm = options_.warm_walks ? std::min(n, agents_.size()) : 0;
  const size_t walk_len = EffectiveWalkLength();
  const size_t reset_len = EffectiveResetLength();
  const uint64_t planned = static_cast<uint64_t>(warm) * reset_len +
                           static_cast<uint64_t>(n - warm) * walk_len;
  // A clean batch (no fault plan, diag or health) steps its walks in
  // 16-walk chunks; any other keeps one slot per walk for its hooks.
  const bool clean =
      faults_ == nullptr && in.diag == nullptr && in.health == nullptr;
  // Clean walks step on the snapshot's acceptance-coin table when it is
  // there. It is built here, before fan-out, for a clean batch that
  // plans at least one step per CSR entry over an overlay its refresh
  // found unchanged: a build costs a few steps' time per entry, so only
  // an overlay that repeats from batch to batch pays it back, and the
  // batch's own steps cover a good part. The refresh drops the table on
  // any change, so a static overlay builds it once, and a churned one
  // never does and steps as before.
  if (clean && !overlay_changed && planned >= overlay_.EntryCount()) {
    overlay_.BuildCoins<MetropolisAcceptance>();
  }
  // Batch attempt budget, provisioned up front: a batch planned to take
  // S hops total may spend at most ceil(hop_budget_factor · S) attempt
  // units (hops, retries, and backoff delays) before it is cut. The
  // budget is pooled across the whole batch so one unlucky agent (e.g.
  // repeatedly dropped mid-walk) can borrow slack from the others.
  uint64_t budget = 0;
  if (faults_ != nullptr) {
    const double cap = std::ceil(options_.retry.hop_budget_factor *
                                 static_cast<double>(planned));
    // Saturate: past the uint64 range (a factor of +inf included) the
    // cast is undefined, and a wrapped 0 would cut every batch.
    budget = cap >= static_cast<double>(UINT64_MAX)
                 ? UINT64_MAX
                 : static_cast<uint64_t>(cap);
  }
  const bool tracing = obs::Tracing(in.tracer);
  if (tracing) {
    in.tracer->Emit(obs::WalkBatchEvent{n, warm, walk_len, reset_len, budget});
  }

  // The batch key is the ONLY draw this batch takes from the operator's
  // stream: walk i's randomness comes from Split(2i) of an rng seeded by
  // the key, its fault substream key from Split(2i+1) — pure functions
  // of (stream state, i), identical on any worker and schedule. The
  // splitter hashes the seeded state once for the whole batch.
  const uint64_t batch_key = rng_.NextU64();
  const Rng::Splitter substream(Rng{batch_key});

  std::vector<NodeId> out;
  out.reserve(n);
  bool cut = false;
  const BatchPlan plan{.n = n,
                       .fallback = fallback,
                       .walk_len = walk_len,
                       .reset_len = reset_len,
                       .planned = planned,
                       .budget = budget,
                       .quarantine = qv,
                       .tracing = tracing};
  if (clean) {
    DIGEST_RETURN_IF_ERROR(StepCleanBatch(plan, substream, out));
  } else {
    DIGEST_ASSIGN_OR_RETURN(cut, StepHookedBatch(plan, substream, out));
  }

  if (!cut && !options_.warm_walks) agents_.clear();
  if (tracing && cut) {
    // The overlay was too lossy/stalled to finish this batch in time:
    // the caller degrades (or finalizes a partial snapshot).
    in.tracer->Emit(obs::HopBudgetExhaustedEvent{last_telemetry_.attempts,
                                                 budget});
  } else if (tracing) {
    if (last_telemetry_.stalled_steps > 0) {
      in.tracer->Emit(obs::FaultStallEvent{last_telemetry_.stalled_steps});
    }
    in.tracer->Emit(obs::WalkBatchDoneEvent{
        out.size(), last_telemetry_.attempts, last_telemetry_.retries,
        last_telemetry_.losses, last_telemetry_.drops,
        last_telemetry_.stalled_steps, last_telemetry_.hedges,
        last_telemetry_.hedge_wins});
  }
  ObserveBatch(in.registry, last_telemetry_, out.size(), cut);
  if (in.diag != nullptr) {
    in.diag->FinishBatch(overlay_, last_telemetry_.proposals,
                         last_telemetry_.accepted, in.tracer, in.registry);
  }
  if (in.health != nullptr) in.health->FinishBatch(graph_->NodeCount());
  return PartialBatch{std::move(out), cut};
}

Status SamplingOperator::StepCleanBatch(const BatchPlan& plan,
                                        const Rng::Splitter& substream,
                                        std::vector<NodeId>& out) {
  const obs::Instruments& in = instruments_;
  const size_t n = plan.n;
  // Plan: warm agents reset, cold walks mix. A warm agent whose host
  // left the network is re-injected at the fallback, which the refresh
  // found live, for one walk-hop message, as Advance's entry check does.
  if (clean_walks_.size() < n) clean_walks_.resize(n);
  uint64_t reinjections = 0;
  for (size_t i = 0; i < n; ++i) {
    CleanWalk& walk = clean_walks_[i];
    const bool is_warm = options_.warm_walks && i < agents_.size();
    walk.position = is_warm ? agents_[i] : plan.fallback;
    walk.steps = is_warm ? plan.reset_len : plan.walk_len;
    if (!overlay_.HasNode(walk.position)) {
      walk.position = plan.fallback;
      ++reinjections;
    }
  }

  // Step: one chunk of kChunkWalks walks per item, seeded by walk index
  // and stepped by one worker, in two lockstep groups where the kernel
  // runs. Each worker times its chunks into a private track.
  std::vector<prof::Track> tracks;
  if (in.profiler != nullptr) {
    tracks.assign(pool_->num_threads(), prof::Track(in.profiler));
  }
  const size_t chunks = (n + kChunkWalks - 1) / kChunkWalks;
  const Status status = pool_->ParallelFor(
      chunks, [&](size_t chunk, size_t worker) -> Status {
        const size_t begin = chunk * kChunkWalks;
        const size_t end = std::min(n, begin + kChunkWalks);
        for (size_t i = begin; i < end; ++i) {
          clean_walks_[i].rng = substream(2 * i);
        }
        // The chunk's stepping; items count its attempted transitions.
        prof::Track* track = tracks.empty() ? nullptr : &tracks[worker];
        prof::ScopedTrackTimer timer(track, prof::Phase::kWalkAdvance);
        for (size_t i = begin; i < end; ++i) {
          timer.AddItems(clean_walks_[i].steps);
        }
        StepCleanWalks(overlay_, lazy_coin_,
                       std::span(clean_walks_).subspan(begin, end - begin));
        return Status::OK();
      });
  for (size_t w = 0; w < tracks.size(); ++w) {
    in.profiler->FoldTrack(w, tracks[w]);
  }
  DIGEST_RETURN_IF_ERROR(status);

  // Merge once: every walk delivers (no fault plan, so no budget cut).
  uint64_t proposals = 0;
  uint64_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    const CleanWalk& walk = clean_walks_[i];
    proposals += walk.proposals;
    accepted += walk.accepted;
    if (i < agents_.size()) {
      agents_[i] = walk.position;
    } else {
      agents_.push_back(walk.position);
    }
    out.push_back(walk.position);
  }
  last_telemetry_.attempts = plan.planned;
  last_telemetry_.proposals = proposals;
  last_telemetry_.accepted = accepted;
  if (meter_ != nullptr) {
    // One probe per proposal, one hop per move or re-injection, and one
    // transfer per sample reported back to the originator.
    meter_->AddWeightProbe(proposals);
    meter_->AddWalkHop(accepted + reinjections);
    meter_->AddSampleTransfer(n);
  }
  return Status::OK();
}

Result<bool> SamplingOperator::StepHookedBatch(const BatchPlan& plan,
                                               const Rng::Splitter& substream,
                                               std::vector<NodeId>& out) {
  const obs::Instruments& in = instruments_;
  // Per-walk plan. The hedge donor is the start-of-batch position of
  // walk i-1's agent: already mixed when it is a pre-batch warm agent,
  // so a reset suffices; a cold predecessor contributes only the
  // fallback, which keeps the cold walk length.
  const size_t n = plan.n;
  if (slots_.size() < n) slots_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    WalkSlot& slot = slots_[i];
    const bool is_warm = options_.warm_walks && i < agents_.size();
    slot.start = is_warm ? agents_[i] : plan.fallback;
    slot.steps = is_warm ? plan.reset_len : plan.walk_len;
    if (faults_ == nullptr) continue;
    slot.threshold = HedgeThreshold(slot.steps);
    slot.hedge_origin = plan.fallback;
    slot.hedge_steps = plan.walk_len;
    if (options_.warm_walks && i >= 1) {
      const size_t donor = i - 1;
      const NodeId donor_pos =
          donor < agents_.size() ? agents_[donor] : plan.fallback;
      if (overlay_.HasNode(donor_pos)) {
        slot.hedge_origin = donor_pos;
        slot.hedge_steps =
            donor < agents_.size() ? plan.reset_len : plan.walk_len;
      }
    }
    slot.fault_key = substream(2 * i + 1).NextU64();
  }

  // Each worker times its walks into a private track, folded below.
  std::vector<prof::Track> tracks;
  if (in.profiler != nullptr) {
    tracks.assign(pool_->num_threads(), prof::Track(in.profiler));
  }

  const Status walk_status = pool_->ParallelFor(
      n, [&](size_t i, size_t worker) -> Status {
        WalkSlot& slot = slots_[i];
        slot.telemetry = WalkTelemetry();
        slot.meter.Reset();
        slot.diag.Clear();
        slot.health.Clear();
        slot.events.clear();
        slot.timed_out = false;
        Rng walk_rng = substream(2 * i);
        WalkContext ctx{.overlay = overlay_,
                        .rng = walk_rng,
                        .fallback = plan.fallback,
                        .meter = meter_ != nullptr ? &slot.meter : nullptr,
                        .retry = &options_.retry,
                        .telemetry = &slot.telemetry,
                        .diag = in.diag != nullptr ? &slot.diag : nullptr,
                        .quarantine = plan.quarantine,
                        .health =
                            in.health != nullptr ? &slot.health : nullptr};
        prof::Track* track = tracks.empty() ? nullptr : &tracks[worker];
        RandomWalk agent(slot.start, lazy_coin_);
        // One agent's stepping to convergence (cold mix or warm reset);
        // items count the attempted hops.
        prof::ScopedTrackTimer advance_timer(track, prof::Phase::kWalkAdvance);
        if (faults_ == nullptr) {
          advance_timer.AddItems(slot.steps);
          DIGEST_RETURN_IF_ERROR(agent.Advance(ctx, slot.steps));
          slot.final_pos = agent.current();
          return Status::OK();
        }
        FaultPlan sub = faults_->SpawnSubstream(slot.fault_key);
        sub.SetTrack(track);
        obs::BufferTracer buffer;
        if (plan.tracing) sub.SetTracer(&buffer);
        ctx.faults = &sub;
        size_t remaining = slot.steps;
        // Hedge race: once the primary overruns the straggler threshold,
        // a redundant walk races it in virtual time (consumed attempt
        // units, the deterministic stand-in for wall clock); each round
        // the walker that has spent less since the launch steps next.
        // Both draw from this walk's substream.
        RandomWalk hedge(plan.fallback, lazy_coin_);
        size_t hedge_remaining = 0;
        bool hedged = false;
        uint64_t primary_spent = 0;  // Attempt units since the launch.
        uint64_t hedge_spent = 0;
        while (remaining > 0) {
          if (!hedged && slot.threshold > 0 &&
              slot.telemetry.attempts >= slot.threshold) {
            // Straggler detected: launch the redundant walk. Injecting
            // the agent costs one message; its hops are charged as
            // ordinary walk hops as it steps.
            hedged = true;
            hedge = RandomWalk(slot.hedge_origin, lazy_coin_);
            hedge_remaining = slot.hedge_steps;
            primary_spent = 0;
            hedge_spent = 0;
            ++slot.telemetry.hedges;
            if (ctx.meter != nullptr) ctx.meter->AddHedgeLaunch();
            if (plan.tracing) {
              buffer.Emit(obs::WalkHedgedEvent{i, slot.telemetry.attempts,
                                               slot.threshold});
            }
          }
          advance_timer.AddItems(1);
          if (slot.telemetry.attempts >= plan.budget) {
            // This walk alone exhausted the pooled budget; whether the
            // BATCH is cut here is decided at the merge, in index order.
            slot.timed_out = true;
            break;
          }
          const bool step_hedge = hedged && hedge_spent <= primary_spent;
          RandomWalk* walker = step_hedge ? &hedge : &agent;
          size_t* walker_remaining = step_hedge ? &hedge_remaining : &remaining;
          const uint64_t drops_before = slot.telemetry.drops;
          const uint64_t attempts_before = slot.telemetry.attempts;
          DIGEST_RETURN_IF_ERROR(walker->Advance(ctx, 1));
          const uint64_t spent = slot.telemetry.attempts - attempts_before;
          if (step_hedge) {
            hedge_spent += spent;
          } else if (hedged) {
            primary_spent += spent;
          }
          if (slot.telemetry.drops > drops_before) {
            // The walker was lost in transit and re-injected at the
            // origin: it must re-mix from cold before its position counts.
            *walker_remaining = plan.walk_len;
            if (plan.tracing) buffer.Emit(obs::AgentRestartEvent{i});
          } else {
            --*walker_remaining;
          }
          if (hedged && hedge_remaining == 0) {
            // The hedge finished first in virtual time: its position
            // becomes the warm agent and the straggling primary is
            // abandoned mid-walk, its remaining hops never sent.
            agent = hedge;
            ++slot.telemetry.hedge_wins;
            break;
          }
        }
        // The race resolved: the losing walk's eventual delivery is
        // suppressed at the originator — bandwidth spent, no sample.
        if (hedged && !slot.timed_out && ctx.meter != nullptr) {
          ctx.meter->AddHedgedDuplicate();
        }
        slot.fault_losses = sub.losses_injected();
        slot.fault_drops = sub.drops_injected();
        slot.fault_stale = sub.stale_injected();
        if (plan.tracing) slot.events = std::move(buffer.payloads());
        slot.final_pos = agent.current();
        return Status::OK();
      });

  // Worker wall time folds into the shared profiler on this side of the
  // barrier only; the deterministic parts (calls, items) are per-walk
  // counts, so the fold is schedule-independent.
  for (size_t w = 0; w < tracks.size(); ++w) {
    in.profiler->FoldTrack(w, tracks[w]);
  }
  DIGEST_RETURN_IF_ERROR(walk_status);

  // Ordered merge: accept walks in index order until the pooled budget
  // is crossed. Each walk was capped alone at the full budget; the walk
  // that crosses it is charged (bandwidth was spent) but delivers no
  // sample. Each accepted or charged walk commits its meter counts,
  // fault injections, buffered trace events (stamped with lane = walk
  // index), telemetry, and final agent position.
  bool cut = false;
  for (size_t i = 0; i < n; ++i) {
    // The merged attempts so far are the delivered walks' (saturating).
    if (faults_ != nullptr && last_telemetry_.attempts >= plan.budget) {
      // Budget crossed at a walk boundary: this walk and all later ones
      // are discarded as if never launched (their agents keep their
      // start-of-batch positions).
      cut = true;
      break;
    }
    WalkSlot& o = slots_[i];
    if (meter_ != nullptr) meter_->Merge(o.meter);
    if (faults_ != nullptr) {
      faults_->AbsorbInjections(o.fault_losses, o.fault_drops,
                                o.fault_stale);
    }
    for (obs::EventPayload& payload : o.events) {
      in.tracer->EmitLane(std::move(payload), static_cast<int64_t>(i));
    }
    last_telemetry_.Merge(o.telemetry);
    if (i < agents_.size()) {
      agents_[i] = o.final_pos;
    } else {
      agents_.push_back(o.final_pos);
    }
    cut = o.timed_out;
    if (cut) break;
    out.push_back(o.final_pos);
    // Delivered walk: its diagnostic and health records fold here, in
    // walk-index order on the calling thread.
    if (in.diag != nullptr) in.diag->FoldWalk(o.diag);
    if (in.health != nullptr) in.health->FoldWalk(o.health);
    if (faults_ != nullptr) {
      // Completed-walk statistics feed later batches' thresholds. They
      // saturate like the telemetry: a walk whose retransmissions
      // pinned its attempts near UINT64_MAX must not wrap the sum and
      // collapse HedgeThreshold.
      done_walks_ = SatAdd(done_walks_, 1);
      done_attempts_ = SatAdd(done_attempts_, o.telemetry.attempts);
      done_steps_ = SatAdd(done_steps_, o.steps);
    }
    // The agent reports the sampled node back to the originator.
    if (meter_ != nullptr) meter_->AddSampleTransfer();
  }
  return cut;
}

SamplingOperator::State SamplingOperator::SaveState() const {
  State state;
  state.agent_positions = agents_;
  state.rng = rng_.SaveState();
  state.done_walks = done_walks_;
  state.done_attempts = done_attempts_;
  state.done_steps = done_steps_;
  return state;
}

void SamplingOperator::RestoreState(const State& state) {
  agents_ = state.agent_positions;
  rng_.RestoreState(state.rng);
  done_walks_ = state.done_walks;
  done_attempts_ = state.done_attempts;
  done_steps_ = state.done_steps;
  last_telemetry_ = WalkTelemetry();
}

}  // namespace digest
