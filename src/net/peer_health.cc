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

Status PeerHealthConfig::Validate() const {
  if (!(interval_alpha > 0.0) || interval_alpha > 1.0) {
    return Status::InvalidArgument(
        "health: interval_alpha must be in (0, 1]");
  }
  if (!(initial_interval > 0.0)) {
    return Status::InvalidArgument(
        "health: initial_interval must be > 0");
  }
  if (!(phi_suspect > 0.0) || !(phi_open > 0.0)) {
    return Status::InvalidArgument(
        "health: phi thresholds must be > 0");
  }
  if (phi_open < phi_suspect) {
    return Status::InvalidArgument(
        "health: phi_open must be >= phi_suspect (a breaker cannot open "
        "below the suspicion it announces)");
  }
  if (failure_floor < 1) {
    return Status::InvalidArgument("health: failure_floor must be >= 1");
  }
  if (open_cooldown < 1) {
    return Status::InvalidArgument("health: open_cooldown must be >= 1");
  }
  if (half_open_probes < 1 || close_successes < 1) {
    return Status::InvalidArgument(
        "health: half-open trial needs half_open_probes >= 1 and "
        "close_successes >= 1");
  }
  if (close_successes > half_open_probes) {
    return Status::InvalidArgument(
        "health: close_successes must fit inside the half_open_probes "
        "trial budget");
  }
  if (!(quarantine_degrade_fraction > 0.0) ||
      quarantine_degrade_fraction > 1.0) {
    return Status::InvalidArgument(
        "health: quarantine_degrade_fraction must be in (0, 1]");
  }
  return Status::OK();
}

PeerHealthMonitor::PeerHealthMonitor(PeerHealthConfig config)
    : config_(config) {}

PeerHealthMonitor::Peer& PeerHealthMonitor::PeerAt(NodeId id) {
  if (static_cast<size_t>(id) >= peers_.size()) {
    peers_.resize(static_cast<size_t>(id) + 1);
  }
  return peers_[id];
}

double PeerHealthMonitor::Phi(const Peer& peer) const {
  // Virtual-time gap since the last delivery, plus the consecutive
  // failure count as sub-tick evidence (a batch folds many outcomes at
  // one tick, and each additional failure is additional evidence).
  double gap = static_cast<double>(peer.consecutive_failures);
  double mean = config_.initial_interval;
  if (peer.has_success) {
    gap += static_cast<double>(
        std::max<int64_t>(0, now_ - peer.last_success));
    mean = std::max(peer.mean_interval, 1e-9);
  }
  return gap / (mean * kLn10);
}

void PeerHealthMonitor::Transition(NodeId id, Peer& peer, BreakerState to,
                                   double phi) {
  const BreakerState from = peer.breaker;
  if (from == to) return;
  if (from == BreakerState::kOpen) --quarantined_;
  if (to == BreakerState::kOpen) ++quarantined_;
  peer.breaker = to;
  ++breaker_transitions_;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::BreakerTransitionEvent{
        static_cast<uint64_t>(id), BreakerStateName(from),
        BreakerStateName(to), phi});
  }
}

void PeerHealthMonitor::set_now(int64_t t) {
  now_ = t;
  // Age open breakers into their trial window. Main-thread only, and
  // peers are scanned in id order, so the transition (and event) order
  // is deterministic.
  for (NodeId id = 0; id < static_cast<NodeId>(peers_.size()); ++id) {
    Peer& peer = peers_[id];
    if (peer.breaker == BreakerState::kOpen && now_ >= peer.open_until) {
      peer.trial_outcomes = 0;
      peer.trial_successes = 0;
      Transition(id, peer, BreakerState::kHalfOpen, Phi(peer));
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
  Peer& peer = PeerAt(id);
  peer.tracked = true;
  ++outcomes_folded_;
  if (delivered) {
    ++successes_;
    ++peer.successes;
    if (peer.has_success) {
      const double interval = static_cast<double>(
          std::max<int64_t>(1, now_ - peer.last_success));
      peer.mean_interval += config_.interval_alpha *
                            (interval - peer.mean_interval);
    } else {
      peer.mean_interval = config_.initial_interval;
      peer.has_success = true;
    }
    peer.last_success = now_;
    peer.consecutive_failures = 0;
    peer.suspect_latched = false;
    if (peer.breaker == BreakerState::kHalfOpen) {
      ++peer.trial_outcomes;
      ++peer.trial_successes;
      if (peer.trial_successes >= config_.close_successes) {
        ++closes_;
        Transition(id, peer, BreakerState::kClosed, 0.0);
      }
    }
    return;
  }
  ++failures_;
  ++peer.failures;
  ++peer.consecutive_failures;
  const double phi = Phi(peer);
  if (!peer.suspect_latched && phi >= config_.phi_suspect) {
    peer.suspect_latched = true;
    ++suspects_;
    if (obs::Tracing(tracer_)) {
      tracer_->Emit(obs::PeerSuspectEvent{static_cast<uint64_t>(id), phi,
                                          peer.consecutive_failures});
    }
  }
  if (!config_.breakers_enabled) return;
  switch (peer.breaker) {
    case BreakerState::kClosed:
      if (phi >= config_.phi_open &&
          peer.consecutive_failures >= config_.failure_floor) {
        peer.open_until = now_ + config_.open_cooldown;
        ++opens_;
        Transition(id, peer, BreakerState::kOpen, phi);
      }
      break;
    case BreakerState::kHalfOpen:
      // Any trial failure re-opens for another cooldown.
      ++peer.trial_outcomes;
      peer.open_until = now_ + config_.open_cooldown;
      ++reopens_;
      Transition(id, peer, BreakerState::kOpen, phi);
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
  ++batches_;
  population_ = static_cast<uint64_t>(population);
  if (quarantined_ > 0) quarantine_since_read_ = true;
  const double fraction = QuarantineFraction();
  if (config_.breakers_enabled &&
      fraction >= config_.quarantine_degrade_fraction) {
    if (!degrade_latched_) {
      degrade_latched_ = true;
      ++pending_flips_;
    }
  } else {
    degrade_latched_ = false;
  }
}

BreakerState PeerHealthMonitor::StateOf(NodeId peer) const {
  if (static_cast<size_t>(peer) >= peers_.size()) {
    return BreakerState::kClosed;
  }
  return peers_[peer].breaker;
}

double PeerHealthMonitor::QuarantineFraction() const {
  if (population_ == 0) return 0.0;
  return static_cast<double>(quarantined_) /
         static_cast<double>(population_);
}

bool PeerHealthMonitor::TakePendingQuarantineFlip() {
  if (pending_flips_ == 0) return false;
  --pending_flips_;
  return true;
}

bool PeerHealthMonitor::TakeQuarantineSinceLastRead() {
  const bool q = quarantine_since_read_;
  quarantine_since_read_ = false;
  return q;
}

size_t PeerHealthMonitor::peers_tracked() const {
  size_t tracked = 0;
  for (const Peer& peer : peers_) {
    if (peer.tracked) ++tracked;
  }
  return tracked;
}

double PeerHealthMonitor::FlapRate() const {
  const uint64_t total = opens_ + reopens_;
  if (total == 0) return 0.0;
  return static_cast<double>(reopens_) / static_cast<double>(total);
}

void PeerHealthMonitor::Reset() {
  const PeerHealthConfig config = config_;
  obs::Tracer* tracer = tracer_;
  *this = PeerHealthMonitor(config);
  tracer_ = tracer;
}

void PeerHealthMonitor::ExportToRegistry(obs::Registry* registry) const {
  if (registry == nullptr) return;
  const std::pair<const char*, uint64_t> counters[] = {
      {"health.outcomes", outcomes_folded_},
      {"health.successes", successes_},
      {"health.failures", failures_},
      {"health.suspects", suspects_},
      {"health.breaker_transitions", breaker_transitions_},
      {"health.breaker_opens", opens_},
      {"health.breaker_reopens", reopens_},
      {"health.breaker_closes", closes_},
      {"health.batches", batches_},
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
  out += std::to_string(batches_);
  out += ",\"breaker_transitions\":";
  out += std::to_string(breaker_transitions_);
  out += ",\"closes\":";
  out += std::to_string(closes_);
  out += ",\"failures\":";
  out += std::to_string(failures_);
  out += ",\"flap_rate\":";
  AppendDouble(&out, FlapRate());
  out += ",\"opens\":";
  out += std::to_string(opens_);
  out += ",\"outcomes\":";
  out += std::to_string(outcomes_folded_);
  out += ",\"peers_tracked\":";
  out += std::to_string(peers_tracked());
  out += ",\"population\":";
  out += std::to_string(population_);
  out += ",\"quarantine_fraction\":";
  AppendDouble(&out, QuarantineFraction());
  out += ",\"quarantined\":";
  out += std::to_string(quarantined_);
  out += ",\"reopens\":";
  out += std::to_string(reopens_);
  out += ",\"successes\":";
  out += std::to_string(successes_);
  out += ",\"suspects\":";
  out += std::to_string(suspects_);
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
                static_cast<unsigned long long>(suspects_),
                static_cast<unsigned long long>(breaker_transitions_),
                static_cast<unsigned long long>(opens_),
                static_cast<unsigned long long>(reopens_),
                static_cast<unsigned long long>(closes_), FlapRate());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  outcomes=%llu delivered=%llu lost=%llu over %llu "
                "batch(es)\n",
                static_cast<unsigned long long>(outcomes_folded_),
                static_cast<unsigned long long>(successes_),
                static_cast<unsigned long long>(failures_),
                static_cast<unsigned long long>(batches_));
  out += buf;
  return out;
}

PeerHealthMonitor::State PeerHealthMonitor::SaveState() const {
  State s;
  s.now = now_;
  for (NodeId id = 0; id < static_cast<NodeId>(peers_.size()); ++id) {
    const Peer& peer = peers_[id];
    if (!peer.tracked && peer.breaker == BreakerState::kClosed) continue;
    PeerState p;
    p.peer = id;
    p.breaker = static_cast<int>(peer.breaker);
    p.mean_interval = peer.mean_interval;
    p.has_success = peer.has_success;
    p.last_success = peer.last_success;
    p.consecutive_failures = peer.consecutive_failures;
    p.suspect_latched = peer.suspect_latched;
    p.open_until = peer.open_until;
    p.trial_outcomes = peer.trial_outcomes;
    p.trial_successes = peer.trial_successes;
    p.peer_successes = peer.successes;
    p.peer_failures = peer.failures;
    s.peers.push_back(p);
  }
  s.outcomes_folded = outcomes_folded_;
  s.successes = successes_;
  s.failures = failures_;
  s.suspects = suspects_;
  s.breaker_transitions = breaker_transitions_;
  s.opens = opens_;
  s.reopens = reopens_;
  s.closes = closes_;
  s.batches = batches_;
  s.population = population_;
  s.degrade_latched = degrade_latched_;
  s.pending_flips = pending_flips_;
  s.quarantine_since_read = quarantine_since_read_;
  return s;
}

void PeerHealthMonitor::RestoreState(const State& state) {
  peers_.clear();
  quarantined_ = 0;
  now_ = state.now;
  for (const PeerState& p : state.peers) {
    Peer& peer = PeerAt(p.peer);
    peer.breaker = static_cast<BreakerState>(p.breaker);
    peer.mean_interval = p.mean_interval;
    peer.has_success = p.has_success;
    peer.last_success = p.last_success;
    peer.consecutive_failures = p.consecutive_failures;
    peer.suspect_latched = p.suspect_latched;
    peer.open_until = p.open_until;
    peer.trial_outcomes = p.trial_outcomes;
    peer.trial_successes = p.trial_successes;
    peer.successes = p.peer_successes;
    peer.failures = p.peer_failures;
    peer.tracked = true;
    if (peer.breaker == BreakerState::kOpen) ++quarantined_;
  }
  outcomes_folded_ = state.outcomes_folded;
  successes_ = state.successes;
  failures_ = state.failures;
  suspects_ = state.suspects;
  breaker_transitions_ = state.breaker_transitions;
  opens_ = state.opens;
  reopens_ = state.reopens;
  closes_ = state.closes;
  batches_ = state.batches;
  population_ = state.population;
  degrade_latched_ = state.degrade_latched;
  pending_flips_ = state.pending_flips;
  quarantine_since_read_ = state.quarantine_since_read;
}

}  // namespace digest
