#ifndef DIGEST_NET_PEER_HEALTH_H_
#define DIGEST_NET_PEER_HEALTH_H_

// Adaptive peer-health layer: a deterministic, virtual-time phi-accrual
// failure detector fed by per-peer probe/hop outcomes, driving per-peer
// circuit breakers (closed -> open -> half-open) and a quarantine set
// the sampler routes around (src/sampling quarantine-aware Metropolis).
//
// Every failure response below this layer is memoryless — retries,
// hedges, and supervisor flips use fixed thresholds and never learn
// WHICH peers are bad. The monitor closes that gap: it accrues per-peer
// suspicion from the outcomes the walks already observe (delivered vs
// lost transmissions, stalled hosts), opens a breaker when suspicion is
// sustained, and re-admits the peer through a budgeted half-open trial
// window once the cooldown elapses.
//
// Determinism contract (the same discipline as src/diag):
//  - the monitor consumes no RNG and reads no wall clock; suspicion is
//    a pure fold over (outcome sequence, virtual time);
//  - walks record raw outcomes into per-walk WalkHealthBuffers (no
//    aggregation, no shared state), which the sampling operator folds
//    on the main thread in walk-index order — so the health state, the
//    quarantine set, and therefore the walks of every LATER batch are
//    bit-identical for any worker-thread count (test-enforced);
//  - the quarantine view a batch routes against is frozen before the
//    batch launches; outcomes fold after the batch barrier, so no walk
//    ever observes a mid-batch breaker flip;
//  - a null monitor pointer in the operator is the fast path, and an
//    attached monitor whose quarantine set is empty leaves the walk's
//    draw sequence bit-identical to an unmonitored run (test-enforced).
//
// Unlike the tracer/profiler/auditor, the monitor intentionally STEERS:
// an open breaker removes the peer from the proposal distribution. The
// degree corrections in sampling/random_walk.cc keep the stationary
// target over the remaining live peers unchanged (verified against the
// src/diag TV gate), so steering trades coverage of the quarantined
// peer for unbiasedness over everyone else.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/graph.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {

/// Breaker state of one peer.
enum class BreakerState : int {
  kClosed = 0,    ///< Healthy: routed normally.
  kOpen = 1,      ///< Quarantined: removed from proposal distributions.
  kHalfOpen = 2,  ///< Trial: routed again, first outcomes decide.
};

constexpr int kNumBreakerStates = 3;

/// Stable lower-snake name (trace events, reports).
const char* BreakerStateName(BreakerState state);

/// Immutable snapshot of the quarantine set, taken on the main thread
/// before a batch launches and shared read-only by every worker. A
/// default-constructed view quarantines nothing.
class QuarantineView {
 public:
  QuarantineView() = default;
  QuarantineView(std::vector<uint8_t> flags, size_t count)
      : flags_(std::move(flags)), count_(count) {}

  bool Quarantined(NodeId id) const {
    return id < flags_.size() && flags_[id] != 0;
  }
  /// Fast emptiness check: the walk takes its legacy draw path (bit-
  /// identical to an unmonitored run) when nothing is quarantined.
  bool Any() const { return count_ > 0; }
  size_t count() const { return count_; }

 private:
  std::vector<uint8_t> flags_;  ///< Indexed by NodeId.
  size_t count_ = 0;
};

/// Per-walk outcome scratchpad, the health twin of diag::WalkDiagBuffer:
/// one instance rides each walk through a batch (thread-locally under
/// the parallel executor) and records raw facts only — no aggregation,
/// no RNG, no clock — so the fold into PeerHealthMonitor happens on the
/// main thread in walk-index order.
struct WalkHealthBuffer {
  /// (peer, delivered) per transmission attempt, in attempt order.
  std::vector<std::pair<NodeId, uint8_t>> outcomes;

  void RecordSuccess(NodeId peer) { outcomes.emplace_back(peer, 1); }
  void RecordFailure(NodeId peer) { outcomes.emplace_back(peer, 0); }

  void Clear() { outcomes.clear(); }
  bool Empty() const { return outcomes.empty(); }
};

/// The per-session peer-health monitor. Wiring mirrors the auditor:
///  - the engine holds a non-owning pointer (DigestEngineOptions::
///    health), advances its virtual clock at the top of each Tick, and
///    drains TakePendingQuarantineFlip into the supervisor;
///  - the sampling operator snapshots the quarantine view at batch
///    start, folds delivered walks' buffers in walk-index order, and
///    closes each batch with FinishBatch(population).
class PeerHealthMonitor {
 public:
  /// `breakers_enabled` is the ablation dial: when false the monitor
  /// still folds outcomes and scores suspicion (peer_suspect events,
  /// registry keys and the summary stay live), but breakers never open
  /// and the quarantine set stays empty, so routing is untouched. Bench
  /// ablations compare coverage with and without it. The detector and
  /// breaker thresholds are constants in peer_health.cc.
  explicit PeerHealthMonitor(bool breakers_enabled = true)
      : breakers_enabled_(breakers_enabled) {}

  /// Attaches (or detaches, with nullptr) the trace sink for
  /// peer_suspect / breaker_transition events. Not owned; must outlive
  /// the monitor. Observation only: attaching a tracer never changes
  /// the health state (test-enforced).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Advances the virtual clock. Open breakers whose cooldown elapsed
  /// transition to half-open here (deterministically, on the main
  /// thread), so a batch at time t routes against breakers aged to t.
  void set_now(int64_t t);
  int64_t now() const { return run_.now; }

  /// Immutable quarantine snapshot for one batch (open breakers only;
  /// half-open peers are routed again — their trial outcomes decide).
  QuarantineView SnapshotView() const;

  /// Folds one delivered walk's outcome buffer. Call on the main
  /// thread, in walk-index order; timed-out/cut walks are not folded
  /// (mirrors the diag rule — folding them would make the health state
  /// depend on scheduling).
  void FoldWalk(const WalkHealthBuffer& buffer);

  /// Closes a batch: records the routing population (live node count,
  /// for the quarantine fraction), latches the supervisor flip when the
  /// fraction reaches one half, and bumps the batch counter.
  void FinishBatch(size_t population);

  /// Current breaker state of a peer (kClosed for never-seen peers).
  BreakerState StateOf(NodeId peer) const;

  /// Peers currently quarantined (open breakers).
  size_t quarantined() const { return quarantined_; }

  /// quarantined / population of the last finished batch (0 before the
  /// first batch).
  double QuarantineFraction() const;

  /// True once per threshold crossing since the last call: the engine
  /// drains this at the top of each Tick and degrades the supervisor
  /// for each true return (one-tick lag, like the audit drift flip).
  bool TakePendingQuarantineFlip();

  /// Returns whether any fold since the previous call ran with a
  /// non-empty quarantine set, and clears the flag — the engine reads
  /// this once per snapshot occasion to stamp
  /// SnapshotObservation::quarantine.
  bool TakeQuarantineSinceLastRead();

  /// Run counters, for tests, the registry, and the summary.
  uint64_t outcomes_folded() const { return run_.outcomes_folded; }
  uint64_t successes() const { return run_.successes; }
  uint64_t failures() const { return run_.failures; }
  uint64_t suspects() const { return run_.suspects; }
  uint64_t breaker_transitions() const { return run_.breaker_transitions; }
  uint64_t opens() const { return run_.opens; }
  uint64_t reopens() const { return run_.reopens; }
  uint64_t closes() const { return run_.closes; }
  uint64_t batches() const { return run_.batches; }
  size_t peers_tracked() const;

  /// Flap rate: re-opens per open — breakers that keep bouncing between
  /// open and half-open (`tools/digest_report.py health --gate` gates on
  /// it).
  double FlapRate() const;

  /// Clears all state back to construction (the experiment harness
  /// calls this at run start, like SamplerDiag::Reset).
  void Reset();

  /// Dumps counters and the current quarantine picture into `registry`
  /// under the health.* namespace. Null registry is a no-op.
  void ExportToRegistry(obs::Registry* registry) const;

  /// Deterministic one-line JSON summary (keys sorted, %.17g doubles) —
  /// spliced into bench extras and compared byte-for-byte by the
  /// thread-invariance and repeat-stability gates.
  std::string SummaryJson() const;

  /// Human-readable two-line digest of SummaryJson for bench output.
  std::string SummaryText() const;

  /// One peer's detector and breaker record. The monitor keeps one per
  /// NodeId up to the largest seen; the checkpoint carries the tracked
  /// or non-closed ones.
  struct PeerState {
    NodeId peer = 0;
    BreakerState breaker = BreakerState::kClosed;
    double mean_interval = 0.0;  ///< EWMA of inter-success gaps (ticks).
    bool has_success = false;
    int64_t last_success = 0;  ///< Valid when has_success.
    uint64_t consecutive_failures = 0;
    bool suspect_latched = false;  ///< peer_suspect emitted this excursion.
    int64_t open_until = 0;        ///< Valid when breaker == kOpen.
    uint64_t trial_outcomes = 0;   ///< Half-open outcomes consumed.
    uint64_t trial_successes = 0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    bool tracked = false;  ///< Has folded an outcome; not checkpointed.

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v.Index("peer", peer, kInvalidNode);
      v.Index("breaker", breaker, kNumBreakerStates);
      v("mean_interval", mean_interval);
      v("has_success", has_success);
      v("last_success", last_success);
      v("consecutive_failures", consecutive_failures);
      v("suspect_latched", suspect_latched);
      v("open_until", open_until);
      v("trial_outcomes", trial_outcomes);
      v("trial_successes", trial_successes);
      v("successes", successes);
      v("failures", failures);
    }
  };
  /// The run's virtual clock, counters and latches.
  struct RunState {
    int64_t now = 0;
    uint64_t outcomes_folded = 0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint64_t suspects = 0;
    uint64_t breaker_transitions = 0;
    uint64_t opens = 0;
    uint64_t reopens = 0;
    uint64_t closes = 0;
    uint64_t batches = 0;
    uint64_t population = 0;  ///< Live nodes at the last FinishBatch.
    bool degrade_latched = false;
    uint64_t pending_flips = 0;
    bool quarantine_since_read = false;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("now", now);
      v("outcomes", outcomes_folded);
      v("successes", successes);
      v("failures", failures);
      v("suspects", suspects);
      v("breaker_transitions", breaker_transitions);
      v("opens", opens);
      v("reopens", reopens);
      v("closes", closes);
      v("batches", batches);
      v("population", population);
      v("degrade_latched", degrade_latched);
      v("pending_flips", pending_flips);
      v("quarantine_since_read", quarantine_since_read);
    }
  };
  /// Per-run state for the engine checkpoint ("health" section of
  /// digest-checkpoint-v3). The breaker dial is configuration, not
  /// state, matching the checkpoint discipline.
  struct State {
    RunState run;
    std::vector<PeerState> peers;  ///< Ascending NodeId.

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      run.Fields(v);
      v("peers", peers);
      v.Check(
          [&] {
            return std::ranges::adjacent_find(peers, std::greater_equal<>(),
                                              &PeerState::peer) == peers.end();
          },
          "peers must be strictly ascending by id");
    }
  };
  State SaveState() const;
  /// Installs `state`: the run state whole, each saved peer at its id
  /// (marked tracked), and the quarantine count recounted.
  void RestoreState(const State& state);

 private:
  PeerState& PeerAt(NodeId id);
  double Phi(const PeerState& peer) const;
  void Transition(PeerState& peer, BreakerState to, double phi);
  void RecordOutcome(NodeId id, bool delivered);

  bool breakers_enabled_;
  obs::Tracer* tracer_ = nullptr;
  RunState run_;
  std::vector<PeerState> peers_;  ///< Indexed by NodeId, grown on demand.
  size_t quarantined_ = 0;
};

}  // namespace digest

#endif  // DIGEST_NET_PEER_HEALTH_H_
