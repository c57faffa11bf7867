#include "net/fault_plan.h"

#include <algorithm>
#include <string>

#include "obs/tracer.h"
#include "prof/profiler.h"

namespace digest {
namespace {

// SplitMix64: the finalizer used to derive per-edge and per-node static
// fault properties from the plan seed. A pure function, so static
// properties can be queried in any order without consuming plan state.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from a hash value.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr uint64_t kEdgeSalt = 0x45444745u;   // "EDGE"
constexpr uint64_t kStallSalt = 0x5354414cu;  // "STAL"
constexpr uint64_t kSubstreamSalt = 0x53554253u;  // "SUBS"
constexpr uint64_t kPartitionSalt = 0x50415254u;  // "PART"
constexpr uint64_t kFlapSalt = 0x464c4150u;       // "FLAP"
constexpr uint64_t kDirectionSalt = 0x44495245u;  // "DIRE"

Status ValidateProbability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a probability in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

Status FaultPlanConfig::Validate() const {
  DIGEST_RETURN_IF_ERROR(ValidateProbability(message_loss, "message_loss"));
  DIGEST_RETURN_IF_ERROR(ValidateProbability(edge_spread, "edge_spread"));
  DIGEST_RETURN_IF_ERROR(ValidateProbability(agent_drop, "agent_drop"));
  DIGEST_RETURN_IF_ERROR(ValidateProbability(stale_probe, "stale_probe"));
  DIGEST_RETURN_IF_ERROR(
      ValidateProbability(stall_fraction, "stall_fraction"));
  if (stale_noise < 0.0) {
    return Status::InvalidArgument("stale_noise must be >= 0");
  }
  DIGEST_RETURN_IF_ERROR(ValidateProbability(flap_fraction, "flap_fraction"));
  DIGEST_RETURN_IF_ERROR(
      ValidateProbability(loss_asymmetry, "loss_asymmetry"));
  // Durations are validated even when the enabling fraction is zero: a
  // negative or inverted window is a config bug whether or not anyone
  // currently stalls or flaps, and set_stall_fraction can turn stalling
  // on later against whatever window is already configured.
  if (stall_every <= 0 || stall_length <= 0) {
    return Status::InvalidArgument(
        "stall windows need positive stall_every and stall_length");
  }
  if (stall_length >= stall_every) {
    return Status::InvalidArgument(
        "stall_length must be shorter than stall_every (a node that "
        "never wakes up is churn, not a stall)");
  }
  if (flap_every <= 0 || flap_length <= 0) {
    return Status::InvalidArgument(
        "flap windows need positive flap_every and flap_length");
  }
  if (flap_length >= flap_every) {
    return Status::InvalidArgument(
        "flap_length must be shorter than flap_every (a link that never "
        "recovers is a removed edge, not a flap)");
  }
  if (partition_every < 0 || partition_length < 0) {
    return Status::InvalidArgument(
        "partition windows must be non-negative");
  }
  if (partition_every == 0 && partition_length != 0) {
    return Status::InvalidArgument(
        "partition_length without partition_every has no schedule to "
        "attach to");
  }
  if (partition_every > 0) {
    if (partition_length < 1 || partition_length >= partition_every) {
      return Status::InvalidArgument(
          "partition_length must be in [1, partition_every) so every "
          "episode both splits and heals");
    }
  }
  if (partition_components < 2) {
    return Status::InvalidArgument(
        "partition_components must be >= 2 (one component is no "
        "partition)");
  }
  return Status::OK();
}

Status FaultPlan::set_message_loss(double p) {
  DIGEST_RETURN_IF_ERROR(ValidateProbability(p, "message_loss"));
  config_.message_loss = p;
  return Status::OK();
}

Status FaultPlan::set_agent_drop(double p) {
  DIGEST_RETURN_IF_ERROR(ValidateProbability(p, "agent_drop"));
  config_.agent_drop = p;
  return Status::OK();
}

Status FaultPlan::set_stale_probe(double p) {
  DIGEST_RETURN_IF_ERROR(ValidateProbability(p, "stale_probe"));
  config_.stale_probe = p;
  return Status::OK();
}

Status FaultPlan::set_stall_fraction(double p) {
  DIGEST_RETURN_IF_ERROR(ValidateProbability(p, "stall_fraction"));
  config_.stall_fraction = p;
  return Status::OK();
}

void FaultPlan::set_now(int64_t t) {
  now_ = t;
  const bool active = PartitionActive();
  const uint64_t episode = PartitionEpisode();
  // A jump across a heal gap (or a whole episode) closes the old window
  // before the new one opens, so begin/end events always pair up.
  if (partition_window_active_ && (!active || episode != active_episode_)) {
    partition_window_active_ = false;
    if (obs::Tracing(tracer_)) {
      tracer_->Emit(obs::PartitionEndEvent{active_episode_});
    }
  }
  if (active && !partition_window_active_) {
    partition_window_active_ = true;
    active_episode_ = episode;
    if (obs::Tracing(tracer_)) {
      tracer_->Emit(obs::PartitionBeginEvent{episode,
                                             config_.partition_components,
                                             config_.partition_length});
    }
  }
}

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (backoff_base < 1) {
    return Status::InvalidArgument("backoff_base must be >= 1");
  }
  if (!(hop_budget_factor >= 1.0)) {
    return Status::InvalidArgument("hop_budget_factor must be >= 1");
  }
  return Status::OK();
}

FaultPlan::FaultPlan(FaultPlanConfig config, uint64_t seed)
    : config_(config), seed_(seed), rng_(Mix64(seed ^ 0xfa17fa17fa17fa17ULL)) {}

double FaultPlan::EdgeLossRate(NodeId a, NodeId b) const {
  if (config_.message_loss <= 0.0) return 0.0;
  if (config_.edge_spread <= 0.0) return config_.message_loss;
  const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
  const uint64_t h = Mix64(seed_ ^ Mix64((hi << 32) | lo) ^ kEdgeSalt);
  const double u = 2.0 * HashToUnit(h) - 1.0;  // [-1, 1)
  const double rate = config_.message_loss * (1.0 + config_.edge_spread * u);
  return std::clamp(rate, 0.0, 1.0);
}

double FaultPlan::DirectionalLossRate(NodeId from, NodeId to) const {
  const double base = EdgeLossRate(from, to);
  if (base <= 0.0 || config_.loss_asymmetry <= 0.0 || from == to) {
    return base;
  }
  // The edge's symmetric hash decides which direction is the bad one,
  // so (a, b) and (b, a) always get opposite skews.
  const uint64_t lo = static_cast<uint64_t>(std::min(from, to));
  const uint64_t hi = static_cast<uint64_t>(std::max(from, to));
  const uint64_t h =
      Mix64(seed_ ^ Mix64((hi << 32) | lo) ^ kDirectionSalt);
  const bool low_is_worse = (h & 1) != 0;
  const double s = ((from < to) == low_is_worse) ? 1.0 : -1.0;
  return std::clamp(base * (1.0 + config_.loss_asymmetry * s), 0.0, 1.0);
}

bool FaultPlan::PartitionActive() const {
  if (config_.partition_every <= 0 || config_.partition_length <= 0) {
    return false;
  }
  int64_t offset = now_ % config_.partition_every;
  if (offset < 0) offset += config_.partition_every;
  return offset < config_.partition_length;
}

uint64_t FaultPlan::PartitionEpisode() const {
  if (config_.partition_every <= 0) return 0;
  int64_t episode = now_ / config_.partition_every;
  if (now_ % config_.partition_every < 0) --episode;  // Floor division.
  return static_cast<uint64_t>(episode);
}

uint64_t FaultPlan::PartitionComponent(NodeId node) const {
  const uint64_t k = std::max<uint64_t>(1, config_.partition_components);
  const uint64_t h = Mix64(seed_ ^ Mix64((PartitionEpisode() << 32) ^
                                         static_cast<uint64_t>(node)) ^
                           kPartitionSalt);
  return h % k;
}

bool FaultPlan::CrossPartition(NodeId from, NodeId to) const {
  if (!PartitionActive()) return false;
  return PartitionComponent(from) != PartitionComponent(to);
}

bool FaultPlan::LinkFlapped(NodeId a, NodeId b) const {
  if (config_.flap_fraction <= 0.0) return false;
  const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
  const uint64_t h = Mix64(seed_ ^ Mix64((hi << 32) | lo) ^ kFlapSalt);
  if (HashToUnit(h) >= config_.flap_fraction) return false;
  // The link flaps: its dark window recurs every flap_every ticks at a
  // per-edge phase, covering flap_length consecutive ticks.
  const int64_t phase = static_cast<int64_t>(
      Mix64(h) % static_cast<uint64_t>(config_.flap_every));
  int64_t offset = (now_ - phase) % config_.flap_every;
  if (offset < 0) offset += config_.flap_every;
  return offset < config_.flap_length;
}

bool FaultPlan::LoseMessage(NodeId from, NodeId to) {
  // Correlated faults first: partitions and flaps are pure hashes of
  // (seed, config, now), so they consume no randomness — the
  // independent-loss draw stream below is untouched by their presence,
  // and substreams see the identical correlated schedule.
  if (CrossPartition(from, to) || LinkFlapped(from, to)) {
    ++losses_injected_;
    if (obs::Tracing(tracer_)) {
      tracer_->Emit(obs::FaultLossEvent{from, to});
    }
    return true;
  }
  const double rate = DirectionalLossRate(from, to);
  if (rate <= 0.0) return false;
  // Times only paths that actually draw from the plan's stream; the
  // zero-rate early-outs above cost no randomness and stay untimed.
  prof::ScopedTrackTimer timer(track_, prof::Phase::kFaultDraw);
  timer.AddItems(1);
  if (!rng_.NextBernoulli(rate)) return false;
  ++losses_injected_;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::FaultLossEvent{from, to});
  }
  return true;
}

bool FaultPlan::DropAgent() {
  if (config_.agent_drop <= 0.0) return false;
  prof::ScopedTrackTimer timer(track_, prof::Phase::kFaultDraw);
  timer.AddItems(1);
  if (!rng_.NextBernoulli(config_.agent_drop)) return false;
  ++drops_injected_;
  return true;
}

bool FaultPlan::StaleProbe() {
  if (config_.stale_probe <= 0.0) return false;
  prof::ScopedTrackTimer timer(track_, prof::Phase::kFaultDraw);
  timer.AddItems(1);
  if (!rng_.NextBernoulli(config_.stale_probe)) return false;
  ++stale_injected_;
  return true;
}

double FaultPlan::DistortWeight(double weight) {
  prof::ScopedTrackTimer timer(track_, prof::Phase::kFaultDraw);
  timer.AddItems(1);
  const double u = 2.0 * rng_.NextDouble() - 1.0;
  return std::max(0.0, weight * (1.0 + config_.stale_noise * u));
}

FaultPlan FaultPlan::SpawnSubstream(uint64_t key) const {
  FaultPlan sub(config_, seed_);
  // Same (config, seed) => same static topology; only the private draw
  // stream is re-keyed. Counters start at zero and tracer/track stay
  // detached — the caller attaches its own per-walk sinks if needed.
  sub.rng_ = Rng(Mix64(seed_ ^ Mix64(key) ^ kSubstreamSalt));
  sub.now_ = now_;
  // Copy the window flag directly (not via set_now) so spawning never
  // emits partition events — the parent already announced the window.
  sub.partition_window_active_ = partition_window_active_;
  sub.active_episode_ = active_episode_;
  return sub;
}

bool FaultPlan::IsBlackholed(NodeId node) const {
  if (config_.stall_fraction <= 0.0) return false;
  const uint64_t h = Mix64(seed_ ^ Mix64(node) ^ kStallSalt);
  if (HashToUnit(h) >= config_.stall_fraction) return false;
  // The node stalls: its window recurs every stall_every ticks at a
  // per-node phase, covering stall_length consecutive ticks.
  const int64_t phase =
      static_cast<int64_t>(Mix64(h) % static_cast<uint64_t>(
                                          config_.stall_every));
  int64_t offset = (now_ - phase) % config_.stall_every;
  if (offset < 0) offset += config_.stall_every;
  return offset < config_.stall_length;
}

}  // namespace digest
