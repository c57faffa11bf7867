#include "prof/profiler.h"

#include <algorithm>
#include <cstdio>

namespace digest {
namespace prof {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kEngineTick:
      return "engine_tick";
    case Phase::kExtrapolatorFit:
      return "extrapolator_fit";
    case Phase::kExtrapolatorPredict:
      return "extrapolator_predict";
    case Phase::kEstimatorEvaluate:
      return "estimator_evaluate";
    case Phase::kWalkBatch:
      return "walk_batch";
    case Phase::kWalkAdvance:
      return "walk_advance";
    case Phase::kFaultDraw:
      return "fault_draw";
    case Phase::kPhaseCount:
      break;
  }
  return "unknown";
}

bool PhaseCapturesSpans(Phase phase) {
  switch (phase) {
    case Phase::kEngineTick:
    case Phase::kEstimatorEvaluate:
    case Phase::kWalkBatch:
      return true;
    default:
      return false;
  }
}

Profiler::Profiler(ProfilerOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

void Profiler::Record(Phase phase, uint64_t start_ns, uint64_t end_ns,
                      uint64_t items) {
  const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  PhaseStats& s = stats_[static_cast<size_t>(phase)];
  if (s.calls == 0 || dur < s.min_ns) s.min_ns = dur;
  if (dur > s.max_ns) s.max_ns = dur;
  ++s.calls;
  s.total_ns += dur;
  s.items += items;
  if (options_.capture_spans && PhaseCapturesSpans(phase)) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(WallSpan{phase, start_ns, dur, items});
    } else {
      ++spans_dropped_;
    }
  }
}

namespace {

// Folds `from` into `into`, preserving the "min_ns is 0 until the first
// call" convention on both sides.
void MergePhaseStats(PhaseStats& into, const PhaseStats& from) {
  if (from.calls > 0) {
    into.min_ns =
        into.calls == 0 ? from.min_ns : std::min(into.min_ns, from.min_ns);
    into.max_ns = std::max(into.max_ns, from.max_ns);
  }
  into.calls += from.calls;
  into.total_ns += from.total_ns;
  into.items += from.items;
}

// Renders one phases object ({"engine_tick":{...},...}); shared by the
// top-level profile and the per-worker tracks.
void AppendPhasesJson(const PhaseStats* stats, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const PhaseStats& s = stats[i];
    if (s.calls == 0 && s.items == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += PhaseName(static_cast<Phase>(i));
    out += "\":{\"calls\":";
    out += std::to_string(s.calls);
    out += ",\"total_ns\":";
    out += std::to_string(s.total_ns);
    out += ",\"min_ns\":";
    out += std::to_string(s.min_ns);
    out += ",\"max_ns\":";
    out += std::to_string(s.max_ns);
    out += ",\"items\":";
    out += std::to_string(s.items);
    out.push_back('}');
  }
  out.push_back('}');
}

}  // namespace

void Profiler::FoldTrack(size_t worker, const Track& track) {
  if (tracks_.size() <= worker) tracks_.resize(worker + 1);
  for (size_t i = 0; i < kNumPhases; ++i) {
    MergePhaseStats(stats_[i], track.stats_[i]);
    MergePhaseStats(tracks_[worker][i], track.stats_[i]);
  }
}

void Profiler::Reset() {
  for (PhaseStats& s : stats_) s = PhaseStats();
  spans_.clear();
  spans_dropped_ = 0;
  tracks_.clear();
}

std::string Profiler::ToJson() const {
  std::string out = "{\"phases\":";
  AppendPhasesJson(stats_, out);
  out += ",\"spans_captured\":";
  out += std::to_string(spans_.size());
  out += ",\"spans_dropped\":";
  out += std::to_string(spans_dropped_);
  if (!tracks_.empty()) {
    out += ",\"tracks\":[";
    for (size_t w = 0; w < tracks_.size(); ++w) {
      if (w > 0) out.push_back(',');
      out += "{\"worker\":";
      out += std::to_string(w);
      out += ",\"phases\":";
      AppendPhasesJson(tracks_[w].data(), out);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string RenderProfSummary(const Profiler& profiler) {
  std::string out = "== wall-clock profile ==\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-22s %10s %12s %12s %14s\n", "phase",
                "calls", "total_ms", "mean_us", "items/sec");
  out += buf;
  bool any = false;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const PhaseStats& s = profiler.stats(phase);
    if (s.calls == 0 && s.items == 0) continue;
    any = true;
    const double total_ms = static_cast<double>(s.total_ns) / 1e6;
    const double mean_us =
        s.calls == 0 ? 0.0
                     : static_cast<double>(s.total_ns) /
                           (1e3 * static_cast<double>(s.calls));
    std::string rate = "-";
    if (s.items > 0 && s.total_ns > 0) {
      std::snprintf(buf, sizeof(buf), "%.3g",
                    static_cast<double>(s.items) * 1e9 /
                        static_cast<double>(s.total_ns));
      rate = buf;
    }
    std::snprintf(buf, sizeof(buf), "  %-22s %10llu %12.3f %12.2f %14s\n",
                  PhaseName(phase),
                  static_cast<unsigned long long>(s.calls), total_ms,
                  mean_us, rate.c_str());
    out += buf;
  }
  if (!any) out += "  (no phases recorded)\n";
  if (profiler.spans_dropped() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  [%llu spans dropped over the %zu-span cap]\n",
                  static_cast<unsigned long long>(profiler.spans_dropped()),
                  kMaxSpans);
    out += buf;
  }
  return out;
}

}  // namespace prof
}  // namespace digest
