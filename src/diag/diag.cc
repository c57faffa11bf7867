#include "diag/diag.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/strings.h"

namespace digest {
namespace diag {
namespace {

// The verdict thresholds are deliberately loose: the diagnostics are a
// debugging instrument, and a breach only re-attributes an audit miss
// that already happened; it never changes engine behavior.
//
// Total-variation distance above which a batch's empirical visit
// distribution is out of tolerance with the stationary target (a
// "stationary gap breach").
constexpr double kTvBreachThreshold = 0.25;
// Minimum live visits in a batch before a breach may be declared: a
// handful of warm-walk steps is not evidence of poor mixing.
constexpr uint64_t kMinVisits = 32;
// A peer is "hot" when its message load exceeds this multiple of the
// mean per-peer load (and at least two peers carried load).
constexpr double kHotPeerFactor = 2.0;

void Field(std::string* out, const char* key, const std::string& value) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(value);
}

void Field(std::string* out, const char* key, uint64_t value) {
  Field(out, key, std::to_string(value));
}

}  // namespace

void SamplerDiag::FoldWalk(const WalkDiagBuffer& buffer) {
  batch_visit_series_.push_back(buffer.visits);
  batch_edges_.insert(batch_edges_.end(), buffer.probes.begin(),
                      buffer.probes.end());
  batch_edges_.insert(batch_edges_.end(), buffer.hops.begin(),
                      buffer.hops.end());
}

void SamplerDiag::FinishBatch(const OverlaySnapshot& overlay,
                              uint64_t proposals, uint64_t accepted,
                              obs::Tracer* tracer, obs::Registry* registry) {
  BatchDiagnostics d;
  d.walks = batch_visit_series_.size();
  d.proposals = proposals;
  d.accepted = accepted;
  d.acceptance_rate =
      proposals > 0
          ? static_cast<double>(accepted) / static_cast<double>(proposals)
          : 0.0;

  // --- Stationary target, rebased on the snapshot's live membership. ---
  // π(v) = w(v)/Σw over the live nodes: a peer that left the overlay
  // since the visits were recorded contributes no target mass, and its
  // visits are pruned from the empirical histogram (but counted, so a
  // churn-heavy run shows how much walk effort landed on dead peers).
  const NodeId ids = overlay.NextId();
  d.live_peers = overlay.NodeCount();
  std::vector<uint64_t> visit_counts(ids, 0);  // Live visits per id.
  for (const std::vector<NodeId>& series : batch_visit_series_) {
    d.steps += series.size();
    for (const NodeId v : series) {
      if (overlay.HasNode(v)) {
        ++visit_counts[v];
        ++d.live_visits;
      } else {
        ++d.dropped_dead_visits;
      }
    }
  }
  double total_weight = 0.0;
  for (NodeId v = 0; v < ids; ++v) {
    if (overlay.HasNode(v)) total_weight += overlay.Weight(v);
  }
  if (total_weight > 0.0 && d.live_visits > 0) {
    const double n = static_cast<double>(d.live_visits);
    for (NodeId v = 0; v < ids; ++v) {
      if (!overlay.HasNode(v)) continue;
      const double target = overlay.Weight(v) / total_weight;
      const double empirical = static_cast<double>(visit_counts[v]) / n;
      d.tv_distance += 0.5 * std::fabs(empirical - target);
      if (target > 0.0) {
        const double gap = empirical - target;
        d.chi_square += gap * gap / target;
      }
    }
  }
  d.breach = d.live_visits >= kMinVisits && d.tv_distance > kTvBreachThreshold;

  // --- Burn-in adequacy from the per-walk scalar series xₜ = w(vₜ). ---
  // Pooled lag-1 autocorrelation (walk-mean-centered, weighted by lag
  // pairs), per-walk ESS = n(1−ρ)/(1+ρ) clamped to [1, n], and the
  // cross-walk Gelman–Rubin R̂ from between/within-walk variance. Dead
  // visits are excluded: the weight of a departed peer is undefined.
  double autocov_sum = 0.0;
  double var_sum = 0.0;
  std::vector<double> walk_means;
  std::vector<double> walk_vars;  // Sample variance, denominator n−1.
  double length_sum = 0.0;
  for (const std::vector<NodeId>& series : batch_visit_series_) {
    std::vector<double> x;
    x.reserve(series.size());
    for (const NodeId v : series) {
      if (overlay.HasNode(v)) x.push_back(overlay.Weight(v));
    }
    const size_t n = x.size();
    if (n == 0) continue;
    double mean = 0.0;
    for (const double v : x) mean += v;
    mean /= static_cast<double>(n);
    if (n < 2) {
      d.ess += 1.0;
      continue;
    }
    double var0 = 0.0;   // Σ(xₜ−μ)², denominator-free.
    double cov1 = 0.0;   // Σ(xₜ−μ)(xₜ₊₁−μ).
    for (size_t t = 0; t < n; ++t) {
      const double c = x[t] - mean;
      var0 += c * c;
      if (t + 1 < n) cov1 += c * (x[t + 1] - mean);
    }
    autocov_sum += cov1;
    var_sum += var0;
    const double rho = var0 > 0.0 ? cov1 / var0 : 0.0;
    const double nd = static_cast<double>(n);
    double ess = var0 > 0.0 ? nd * (1.0 - rho) / (1.0 + rho) : nd;
    d.ess += std::min(nd, std::max(1.0, ess));
    walk_means.push_back(mean);
    walk_vars.push_back(var0 / (nd - 1.0));
    length_sum += nd;
  }
  d.lag1_autocorr = var_sum > 0.0 ? autocov_sum / var_sum : 0.0;
  if (walk_means.size() >= 2) {
    const double m = static_cast<double>(walk_means.size());
    const double nbar = length_sum / m;
    double grand = 0.0;
    for (const double mu : walk_means) grand += mu;
    grand /= m;
    double between = 0.0;  // B = n̄/(m−1)·Σ(μ_w−μ)².
    for (const double mu : walk_means) {
      between += (mu - grand) * (mu - grand);
    }
    between *= nbar / (m - 1.0);
    double within = 0.0;  // W = mean per-walk sample variance.
    for (const double v : walk_vars) within += v;
    within /= m;
    if (within > 0.0 && nbar > 0.0) {
      const double var_plus =
          (nbar - 1.0) / nbar * within + between / nbar;
      d.rhat = std::sqrt(var_plus / within);
    }
  }

  // --- Per-peer / per-link message load and hot-peer detection. ---
  // Every probe and every accepted hop is one message over a concrete
  // link; both endpoints carry it. Maps are ordered, so ties resolve to
  // the smallest peer id deterministically.
  std::map<NodeId, uint64_t> peer_load;
  std::map<std::pair<NodeId, NodeId>, uint64_t> link_load;
  for (const auto& [from, to] : batch_edges_) {
    ++peer_load[from];
    ++peer_load[to];
    ++link_load[{std::min(from, to), std::max(from, to)}];
  }
  d.loaded_peers = peer_load.size();
  d.loaded_links = link_load.size();
  uint64_t total_touches = 0;
  for (const auto& [peer, load] : peer_load) {
    total_touches += load;
    if (load > d.max_load) {
      d.max_load = load;
      d.hot_peer = peer;
    }
  }
  d.mean_load = d.loaded_peers > 0 ? static_cast<double>(total_touches) /
                                         static_cast<double>(d.loaded_peers)
                                   : 0.0;
  d.hot = d.loaded_peers >= 2 &&
          static_cast<double>(d.max_load) > kHotPeerFactor * d.mean_load;

  // --- Export: trace events and registry keys. ---
  if (obs::Tracing(tracer)) {
    obs::WalkMixingEvent mixing;
    mixing.walks = d.walks;
    mixing.steps = d.steps;
    mixing.lag1_autocorr = d.lag1_autocorr;
    mixing.ess = d.ess;
    mixing.rhat = d.rhat;
    tracer->Emit(mixing);
    obs::StationaryGapEvent gap;
    gap.tv_distance = d.tv_distance;
    gap.chi_square = d.chi_square;
    gap.live_peers = d.live_peers;
    gap.visits = d.live_visits;
    gap.dropped_dead_visits = d.dropped_dead_visits;
    gap.breach = d.breach;
    tracer->Emit(gap);
    obs::PeerLoadEvent load;
    load.peers = d.loaded_peers;
    load.links = d.loaded_links;
    load.hot_peer = d.hot_peer;
    load.max_load = d.max_load;
    load.mean_load = d.mean_load;
    load.hot = d.hot;
    tracer->Emit(load);
    obs::AcceptanceRateEvent acc;
    acc.proposals = d.proposals;
    acc.accepted = d.accepted;
    acc.rate = d.acceptance_rate;
    tracer->Emit(acc);
  }
  if (registry != nullptr) {
    registry->GetCounter("diag.batches")->Increment();
    registry->GetCounter("diag.visits")->Increment(d.live_visits);
    registry->GetCounter("diag.dropped_dead_visits")
        ->Increment(d.dropped_dead_visits);
    if (d.breach) {
      registry->GetCounter("diag.stationary_breaches")->Increment();
    }
    if (d.hot) registry->GetCounter("diag.hot_batches")->Increment();
    registry->GetGauge("diag.tv_distance")->Set(d.tv_distance);
    registry->GetGauge("diag.chi_square")->Set(d.chi_square);
    registry->GetGauge("diag.lag1_autocorr")->Set(d.lag1_autocorr);
    registry->GetGauge("diag.ess")->Set(d.ess);
    registry->GetGauge("diag.rhat")->Set(d.rhat);
    registry->GetGauge("diag.acceptance_rate")->Set(d.acceptance_rate);
    registry->GetGauge("diag.hot_peer")
        ->Set(static_cast<double>(d.hot_peer));
    registry->GetGauge("diag.max_load")
        ->Set(static_cast<double>(d.max_load));
    registry->GetGauge("diag.mean_load")->Set(d.mean_load);
    registry
        ->GetHistogram("diag.tv_per_batch", obs::LinearBuckets(0.1, 1.0, 10))
        ->Observe(d.tv_distance);
  }

  // --- Run summary. ---
  ++batches_;
  walks_ += d.walks;
  steps_ += d.steps;
  live_visits_ += d.live_visits;
  dropped_dead_visits_ += d.dropped_dead_visits;
  proposals_ += d.proposals;
  accepted_ += d.accepted;
  if (d.breach) {
    ++breaches_;
    breach_since_read_ = true;
  }
  if (d.hot) ++hot_batches_;
  tv_sum_ += d.tv_distance;
  tv_max_ = std::max(tv_max_, d.tv_distance);

  last_batch_ = d;
  batch_visit_series_.clear();
  batch_edges_.clear();
}

void SamplerDiag::Reset() { *this = SamplerDiag(); }

std::string SamplerDiag::SummaryJson() const {
  std::string out = "{";
  Field(&out, "acceptance_rate",
        FormatDouble(proposals_ > 0 ? static_cast<double>(accepted_) /
                                 static_cast<double>(proposals_)
                           : 0.0));
  Field(&out, "accepted", accepted_);
  Field(&out, "batches", batches_);
  Field(&out, "breaches", breaches_);
  Field(&out, "dropped_dead_visits", dropped_dead_visits_);
  Field(&out, "ess_last", FormatDouble(last_batch_.ess));
  Field(&out, "hot_batches", hot_batches_);
  Field(&out, "hot_peer_last", static_cast<uint64_t>(last_batch_.hot_peer));
  Field(&out, "lag1_last", FormatDouble(last_batch_.lag1_autocorr));
  Field(&out, "live_visits", live_visits_);
  Field(&out, "max_load_last", last_batch_.max_load);
  Field(&out, "proposals", proposals_);
  Field(&out, "rhat_last", FormatDouble(last_batch_.rhat));
  Field(&out, "steps", steps_);
  Field(&out, "tv_last", FormatDouble(last_batch_.tv_distance));
  Field(&out, "tv_max", FormatDouble(tv_max_));
  Field(&out, "tv_mean",
        FormatDouble(batches_ > 0 ? tv_sum_ / static_cast<double>(batches_) : 0.0));
  Field(&out, "walks", walks_);
  out.push_back('}');
  return out;
}

std::string SamplerDiag::SummaryText() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "  batches %llu  walks %llu  visits %llu (dead %llu)  tv last/mean/max "
      "%.3f/%.3f/%.3f  breaches %llu\n",
      static_cast<unsigned long long>(batches_),
      static_cast<unsigned long long>(walks_),
      static_cast<unsigned long long>(live_visits_),
      static_cast<unsigned long long>(dropped_dead_visits_),
      last_batch_.tv_distance,
      batches_ > 0 ? tv_sum_ / static_cast<double>(batches_) : 0.0, tv_max_,
      static_cast<unsigned long long>(breaches_));
  std::string out = buf;
  std::snprintf(
      buf, sizeof(buf),
      "  ess %.1f  lag1 %.3f  rhat %.3f  accept %.3f  hot batches %llu\n",
      last_batch_.ess, last_batch_.lag1_autocorr, last_batch_.rhat,
      proposals_ > 0
          ? static_cast<double>(accepted_) / static_cast<double>(proposals_)
          : 0.0,
      static_cast<unsigned long long>(hot_batches_));
  out += buf;
  return out;
}

}  // namespace diag
}  // namespace digest
