#include "net/peer_health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace digest {
namespace {

// ln 10: phi is the base-10 suspicion exponent of the phi-accrual
// detector under an exponential inter-arrival model — phi = k means
// "the chance this peer is merely slow is 10^-k".
constexpr double kLn10 = 2.302585092994045684;

// The detector and breaker thresholds suit tick-granular virtual time,
// where a peer sees a handful of deliveries per batch.
//
// EWMA smoothing for the per-peer inter-success interval estimate.
constexpr double kIntervalAlpha = 0.25;
// Prior mean inter-success interval (ticks) before a peer's first
// delivery: the scale phi starts from for never-seen peers.
constexpr double kInitialInterval = 1.0;
// phi >= kPhiSuspect emits peer_suspect; phi >= kPhiOpen, with at least
// kFailureFloor consecutive failures, opens the breaker. The floor
// keeps one lost message under 30% random loss from counting as a dead
// peer.
constexpr double kPhiSuspect = 1.0;
constexpr double kPhiOpen = 2.0;
constexpr uint64_t kFailureFloor = 3;
// Ticks an open breaker quarantines the peer before its half-open
// trial. In the trial, kCloseSuccesses successes with no failure first
// close the breaker, and any failure re-opens it for another cooldown,
// so a trial ends within kCloseSuccesses outcomes.
constexpr int64_t kOpenCooldown = 8;
constexpr uint64_t kCloseSuccesses = 2;
// Quarantined / population fraction at which the monitor asks the
// engine (one-tick lag, like the audit drift flip) to degrade the
// session supervisor with outcome "peer_quarantine".
constexpr double kQuarantineDegradeFraction = 0.5;

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

PeerHealthMonitor::PeerState& PeerHealthMonitor::PeerAt(NodeId id) {
  for (NodeId next = static_cast<NodeId>(peers_.size()); next <= id; ++next) {
    peers_.push_back(PeerState{.peer = next});
  }
  return peers_[id];
}

double PeerHealthMonitor::Phi(const PeerState& peer) const {
  // Virtual-time gap since the last delivery, plus the consecutive
  // failure count as sub-tick evidence (a batch folds many outcomes at
  // one tick, and each additional failure is additional evidence).
  double gap = static_cast<double>(peer.consecutive_failures);
  double mean = kInitialInterval;
  if (peer.has_success) {
    gap += static_cast<double>(
        std::max<int64_t>(0, run_.now - peer.last_success));
    mean = std::max(peer.mean_interval, 1e-9);
  }
  return gap / (mean * kLn10);
}

void PeerHealthMonitor::Transition(PeerState& peer, BreakerState to,
                                   double phi) {
  const BreakerState from = peer.breaker;
  if (from == to) return;
  if (from == BreakerState::kOpen) --quarantined_;
  if (to == BreakerState::kOpen) ++quarantined_;
  peer.breaker = to;
  ++run_.breaker_transitions;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::BreakerTransitionEvent{
        static_cast<uint64_t>(peer.peer), BreakerStateName(from),
        BreakerStateName(to), phi});
  }
}

void PeerHealthMonitor::set_now(int64_t t) {
  run_.now = t;
  // Age open breakers into their trial window. Main-thread only, and
  // peers are scanned in id order, so the transition (and event) order
  // is deterministic.
  for (PeerState& peer : peers_) {
    if (peer.breaker == BreakerState::kOpen && t >= peer.open_until) {
      peer.trial_outcomes = 0;
      peer.trial_successes = 0;
      Transition(peer, BreakerState::kHalfOpen, Phi(peer));
    }
  }
}

QuarantineView PeerHealthMonitor::SnapshotView() const {
  if (quarantined_ == 0) return QuarantineView();
  std::vector<uint8_t> flags(peers_.size(), 0);
  size_t count = 0;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].breaker == BreakerState::kOpen) {
      flags[i] = 1;
      ++count;
    }
  }
  return QuarantineView(std::move(flags), count);
}

void PeerHealthMonitor::RecordOutcome(NodeId id, bool delivered) {
  PeerState& peer = PeerAt(id);
  peer.tracked = true;
  ++run_.outcomes_folded;
  if (delivered) {
    ++run_.successes;
    ++peer.successes;
    if (peer.has_success) {
      const double interval = static_cast<double>(
          std::max<int64_t>(1, run_.now - peer.last_success));
      peer.mean_interval += kIntervalAlpha * (interval - peer.mean_interval);
    } else {
      peer.mean_interval = kInitialInterval;
      peer.has_success = true;
    }
    peer.last_success = run_.now;
    peer.consecutive_failures = 0;
    peer.suspect_latched = false;
    if (peer.breaker == BreakerState::kHalfOpen) {
      ++peer.trial_outcomes;
      ++peer.trial_successes;
      if (peer.trial_successes >= kCloseSuccesses) {
        ++run_.closes;
        Transition(peer, BreakerState::kClosed, 0.0);
      }
    }
    return;
  }
  ++run_.failures;
  ++peer.failures;
  ++peer.consecutive_failures;
  const double phi = Phi(peer);
  if (!peer.suspect_latched && phi >= kPhiSuspect) {
    peer.suspect_latched = true;
    ++run_.suspects;
    if (obs::Tracing(tracer_)) {
      tracer_->Emit(obs::PeerSuspectEvent{static_cast<uint64_t>(id), phi,
                                          peer.consecutive_failures});
    }
  }
  if (!breakers_enabled_) return;
  switch (peer.breaker) {
    case BreakerState::kClosed:
      if (phi >= kPhiOpen &&
          peer.consecutive_failures >= kFailureFloor) {
        peer.open_until = run_.now + kOpenCooldown;
        ++run_.opens;
        Transition(peer, BreakerState::kOpen, phi);
      }
      break;
    case BreakerState::kHalfOpen:
      // Any trial failure re-opens for another cooldown.
      ++peer.trial_outcomes;
      peer.open_until = run_.now + kOpenCooldown;
      ++run_.reopens;
      Transition(peer, BreakerState::kOpen, phi);
      break;
    case BreakerState::kOpen:
      // Straggling outcomes from walks launched before the breaker
      // opened (the view is frozen per batch): evidence only.
      break;
  }
}

void PeerHealthMonitor::FoldWalk(const WalkHealthBuffer& buffer) {
  for (const auto& [peer, delivered] : buffer.outcomes) {
    RecordOutcome(peer, delivered != 0);
  }
}

void PeerHealthMonitor::FinishBatch(size_t population) {
  ++run_.batches;
  run_.population = static_cast<uint64_t>(population);
  if (quarantined_ > 0) run_.quarantine_since_read = true;
  const double fraction = QuarantineFraction();
  if (breakers_enabled_ && fraction >= kQuarantineDegradeFraction) {
    if (!run_.degrade_latched) {
      run_.degrade_latched = true;
      ++run_.pending_flips;
    }
  } else {
    run_.degrade_latched = false;
  }
}

BreakerState PeerHealthMonitor::StateOf(NodeId peer) const {
  if (static_cast<size_t>(peer) >= peers_.size()) {
    return BreakerState::kClosed;
  }
  return peers_[peer].breaker;
}

double PeerHealthMonitor::QuarantineFraction() const {
  if (run_.population == 0) return 0.0;
  return static_cast<double>(quarantined_) /
         static_cast<double>(run_.population);
}

bool PeerHealthMonitor::TakePendingQuarantineFlip() {
  if (run_.pending_flips == 0) return false;
  --run_.pending_flips;
  return true;
}

bool PeerHealthMonitor::TakeQuarantineSinceLastRead() {
  const bool q = run_.quarantine_since_read;
  run_.quarantine_since_read = false;
  return q;
}

size_t PeerHealthMonitor::peers_tracked() const {
  return static_cast<size_t>(
      std::ranges::count(peers_, true, &PeerState::tracked));
}

double PeerHealthMonitor::FlapRate() const {
  const uint64_t total = run_.opens + run_.reopens;
  if (total == 0) return 0.0;
  return static_cast<double>(run_.reopens) / static_cast<double>(total);
}

void PeerHealthMonitor::Reset() {
  obs::Tracer* tracer = tracer_;
  *this = PeerHealthMonitor(breakers_enabled_);
  tracer_ = tracer;
}

void PeerHealthMonitor::ExportToRegistry(obs::Registry* registry) const {
  if (registry == nullptr) return;
  const std::pair<const char*, uint64_t> counters[] = {
      {"health.outcomes", run_.outcomes_folded},
      {"health.successes", run_.successes},
      {"health.failures", run_.failures},
      {"health.suspects", run_.suspects},
      {"health.breaker_transitions", run_.breaker_transitions},
      {"health.breaker_opens", run_.opens},
      {"health.breaker_reopens", run_.reopens},
      {"health.breaker_closes", run_.closes},
      {"health.batches", run_.batches},
  };
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    registry->GetCounter(name)->Increment(value);
  }
  registry->GetGauge("health.quarantined")
      ->Set(static_cast<double>(quarantined_));
  registry->GetGauge("health.quarantine_fraction")->Set(QuarantineFraction());
  registry->GetGauge("health.peers_tracked")
      ->Set(static_cast<double>(peers_tracked()));
  registry->GetGauge("health.flap_rate")->Set(FlapRate());
}

std::string PeerHealthMonitor::SummaryJson() const {
  // Keys sorted; counters as plain JSON numbers (bench extras, not the
  // checkpoint codec) — byte-comparable across thread counts/repeats.
  std::string out = "{\"batches\":";
  out += std::to_string(run_.batches);
  out += ",\"breaker_transitions\":";
  out += std::to_string(run_.breaker_transitions);
  out += ",\"closes\":";
  out += std::to_string(run_.closes);
  out += ",\"failures\":";
  out += std::to_string(run_.failures);
  out += ",\"flap_rate\":";
  AppendDouble(&out, FlapRate());
  out += ",\"opens\":";
  out += std::to_string(run_.opens);
  out += ",\"outcomes\":";
  out += std::to_string(run_.outcomes_folded);
  out += ",\"peers_tracked\":";
  out += std::to_string(peers_tracked());
  out += ",\"population\":";
  out += std::to_string(run_.population);
  out += ",\"quarantine_fraction\":";
  AppendDouble(&out, QuarantineFraction());
  out += ",\"quarantined\":";
  out += std::to_string(quarantined_);
  out += ",\"reopens\":";
  out += std::to_string(run_.reopens);
  out += ",\"successes\":";
  out += std::to_string(run_.successes);
  out += ",\"suspects\":";
  out += std::to_string(run_.suspects);
  out += '}';
  return out;
}

std::string PeerHealthMonitor::SummaryText() const {
  char buf[256];
  std::string out = "== peer health ==\n";
  std::snprintf(buf, sizeof(buf),
                "  peers=%zu quarantined=%zu (%.1f%%) suspects=%llu "
                "transitions=%llu (open=%llu reopen=%llu close=%llu "
                "flap=%.3f)\n",
                peers_tracked(), quarantined_,
                100.0 * QuarantineFraction(),
                static_cast<unsigned long long>(run_.suspects),
                static_cast<unsigned long long>(run_.breaker_transitions),
                static_cast<unsigned long long>(run_.opens),
                static_cast<unsigned long long>(run_.reopens),
                static_cast<unsigned long long>(run_.closes), FlapRate());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  outcomes=%llu delivered=%llu lost=%llu over %llu "
                "batch(es)\n",
                static_cast<unsigned long long>(run_.outcomes_folded),
                static_cast<unsigned long long>(run_.successes),
                static_cast<unsigned long long>(run_.failures),
                static_cast<unsigned long long>(run_.batches));
  out += buf;
  return out;
}

PeerHealthMonitor::State PeerHealthMonitor::SaveState() const {
  State state{run_, {}};
  for (const PeerState& peer : peers_) {
    if (peer.tracked || peer.breaker != BreakerState::kClosed) {
      state.peers.push_back(peer);
    }
  }
  return state;
}

void PeerHealthMonitor::RestoreState(const State& state) {
  run_ = state.run;
  peers_.clear();
  quarantined_ = 0;
  for (const PeerState& saved : state.peers) {
    PeerState& peer = PeerAt(saved.peer);
    peer = saved;
    peer.tracked = true;
    if (peer.breaker == BreakerState::kOpen) ++quarantined_;
  }
}

}  // namespace digest
