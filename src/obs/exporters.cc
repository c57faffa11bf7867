#include "obs/exporters.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/strings.h"

namespace digest {
namespace obs {
namespace {

std::string Num(double v) { return FormatDouble(v); }
std::string Num(uint64_t v) { return std::to_string(v); }
std::string Num(int64_t v) { return std::to_string(v); }

void Field(std::string* out, const char* key, const std::string& value,
           bool quote = false) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  if (quote) {
    out->push_back('"');
    AppendJsonEscaped(out, value);
    out->push_back('"');
  } else {
    out->append(value);
  }
}

void Field(std::string* out, const char* key, bool value) {
  // Explicit std::string: a bare string literal would convert
  // pointer-to-bool and re-select this overload forever.
  Field(out, key, std::string(value ? "true" : "false"));
}

/// Serializes the payload-specific fields of one event.
struct JsonFields {
  std::string* out;

  void operator()(const RunBeginEvent& e) const {
    Field(out, "label", e.label, /*quote=*/true);
  }
  void operator()(const TickEvent& e) const {
    Field(out, "snapshot_executed", e.snapshot_executed);
    Field(out, "degraded", e.degraded);
    Field(out, "result_updated", e.result_updated);
    Field(out, "reported", Num(e.reported));
    Field(out, "ci_halfwidth", Num(e.ci_halfwidth));
  }
  void operator()(const GapPredictedEvent& e) const {
    Field(out, "gap", Num(e.gap));
    Field(out, "next_tick", Num(e.next_tick));
    Field(out, "poly_order", Num(e.poly_order));
    Field(out, "predicted_drift", Num(e.predicted_drift));
    Field(out, "strict", e.strict);
  }
  void operator()(const SnapshotEvent& e) const {
    Field(out, "value", Num(e.value));
    Field(out, "ci_halfwidth", Num(e.ci_halfwidth));
    Field(out, "total_samples", Num(e.total_samples));
    Field(out, "fresh_samples", Num(e.fresh_samples));
    Field(out, "retained_samples", Num(e.retained_samples));
    Field(out, "degraded", e.degraded);
  }
  void operator()(const SnapshotSkippedEvent& e) const {
    Field(out, "next_snapshot_tick", Num(e.next_snapshot_tick));
  }
  void operator()(const SampleBudgetEvent& e) const {
    Field(out, "repeated", e.repeated);
    Field(out, "rho_hat", Num(e.rho_hat));
    Field(out, "sigma_hat", Num(e.sigma_hat));
    Field(out, "planned_total", Num(e.planned_total));
    Field(out, "planned_retained", Num(e.planned_retained));
  }
  void operator()(const CiWidenedEvent& e) const {
    Field(out, "from", Num(e.from));
    Field(out, "to", Num(e.to));
  }
  void operator()(const DegradedFallbackEvent& e) const {
    Field(out, "retained_pool", e.retained_pool);
  }
  void operator()(const WalkBatchEvent& e) const {
    Field(out, "agents", Num(e.agents));
    Field(out, "warm", Num(e.warm));
    Field(out, "cold_steps", Num(e.cold_steps));
    Field(out, "warm_steps", Num(e.warm_steps));
    Field(out, "budget", Num(e.budget));
  }
  void operator()(const WalkBatchDoneEvent& e) const {
    Field(out, "samples", Num(e.samples));
    Field(out, "attempts", Num(e.attempts));
    Field(out, "retries", Num(e.retries));
    Field(out, "losses", Num(e.losses));
    Field(out, "drops", Num(e.drops));
    Field(out, "stalled_steps", Num(e.stalled_steps));
    Field(out, "hedges", Num(e.hedges));
    Field(out, "hedge_wins", Num(e.hedge_wins));
  }
  void operator()(const HopBudgetExhaustedEvent& e) const {
    Field(out, "attempts", Num(e.attempts));
    Field(out, "budget", Num(e.budget));
  }
  void operator()(const AgentRestartEvent& e) const {
    Field(out, "agent_index", Num(e.agent_index));
  }
  void operator()(const FaultLossEvent& e) const {
    Field(out, "from", Num(e.from));
    Field(out, "to", Num(e.to));
  }
  void operator()(const FaultStallEvent& e) const {
    Field(out, "stalled_steps", Num(e.stalled_steps));
  }
  void operator()(const SupervisorStateEvent& e) const {
    Field(out, "from", e.from, /*quote=*/true);
    Field(out, "to", e.to, /*quote=*/true);
    Field(out, "outcome", e.outcome, /*quote=*/true);
    Field(out, "consecutive", Num(e.consecutive));
  }
  void operator()(const PartialSnapshotEvent& e) const {
    Field(out, "collected", Num(e.collected));
    Field(out, "planned", Num(e.planned));
    Field(out, "ci_halfwidth", Num(e.ci_halfwidth));
  }
  void operator()(const WalkHedgedEvent& e) const {
    Field(out, "agent_index", Num(e.agent_index));
    Field(out, "attempts", Num(e.attempts));
    Field(out, "threshold", Num(e.threshold));
  }
  void operator()(const CheckpointEvent& e) const {
    Field(out, "bytes", Num(e.bytes));
    Field(out, "last_tick", Num(e.last_tick));
  }
  void operator()(const RestoreEvent& e) const {
    Field(out, "bytes", Num(e.bytes));
    Field(out, "last_tick", Num(e.last_tick));
  }
  void operator()(const AuditCoverageEvent& e) const {
    Field(out, "estimate", Num(e.estimate));
    Field(out, "truth", Num(e.truth));
    Field(out, "ci_halfwidth", Num(e.ci_halfwidth));
    Field(out, "hit", e.hit);
    Field(out, "cause", e.cause, /*quote=*/true);
    Field(out, "occasions", Num(e.occasions));
    Field(out, "misses", Num(e.misses));
  }
  void operator()(const AuditBudgetEvent& e) const {
    Field(out, "burn", Num(e.burn));
    Field(out, "remaining", Num(e.remaining));
    Field(out, "occasions", Num(e.occasions));
    Field(out, "misses", Num(e.misses));
  }
  void operator()(const AuditDriftEvent& e) const {
    Field(out, "detector", e.detector, /*quote=*/true);
    Field(out, "ewma", Num(e.ewma));
    Field(out, "cusum_pos", Num(e.cusum_pos));
    Field(out, "cusum_neg", Num(e.cusum_neg));
    Field(out, "threshold", Num(e.threshold));
    Field(out, "streak", Num(e.streak));
    Field(out, "flip", e.flip);
  }
  void operator()(const AuditSloEvent& e) const {
    Field(out, "label", e.label, /*quote=*/true);
    Field(out, "p", Num(e.p));
    Field(out, "epsilon", Num(e.epsilon));
    Field(out, "delta", Num(e.delta));
    Field(out, "occasions", Num(e.occasions));
    Field(out, "hits", Num(e.hits));
    Field(out, "misses", Num(e.misses));
    Field(out, "coverage", Num(e.coverage));
    Field(out, "coverage_floor", Num(e.coverage_floor));
    Field(out, "coverage_ok", e.coverage_ok);
    Field(out, "delta_ticks", Num(e.delta_ticks));
    Field(out, "delta_misses", Num(e.delta_misses));
    Field(out, "delta_compliance", Num(e.delta_compliance));
    Field(out, "budget_burn", Num(e.budget_burn));
    Field(out, "budget_remaining", Num(e.budget_remaining));
  }
  void operator()(const WalkMixingEvent& e) const {
    Field(out, "walks", Num(e.walks));
    Field(out, "steps", Num(e.steps));
    Field(out, "lag1_autocorr", Num(e.lag1_autocorr));
    Field(out, "ess", Num(e.ess));
    Field(out, "rhat", Num(e.rhat));
  }
  void operator()(const StationaryGapEvent& e) const {
    Field(out, "tv_distance", Num(e.tv_distance));
    Field(out, "chi_square", Num(e.chi_square));
    Field(out, "live_peers", Num(e.live_peers));
    Field(out, "visits", Num(e.visits));
    Field(out, "dropped_dead_visits", Num(e.dropped_dead_visits));
    Field(out, "breach", e.breach);
  }
  void operator()(const PeerLoadEvent& e) const {
    Field(out, "peers", Num(e.peers));
    Field(out, "links", Num(e.links));
    Field(out, "hot_peer", Num(e.hot_peer));
    Field(out, "max_load", Num(e.max_load));
    Field(out, "mean_load", Num(e.mean_load));
    Field(out, "hot", e.hot);
  }
  void operator()(const AcceptanceRateEvent& e) const {
    Field(out, "proposals", Num(e.proposals));
    Field(out, "accepted", Num(e.accepted));
    Field(out, "rate", Num(e.rate));
  }
  void operator()(const PeerSuspectEvent& e) const {
    Field(out, "peer", Num(e.peer));
    Field(out, "phi", Num(e.phi));
    Field(out, "failures", Num(e.failures));
  }
  void operator()(const BreakerTransitionEvent& e) const {
    Field(out, "peer", Num(e.peer));
    Field(out, "from", e.from, /*quote=*/true);
    Field(out, "to", e.to, /*quote=*/true);
    Field(out, "phi", Num(e.phi));
  }
  void operator()(const PartitionBeginEvent& e) const {
    Field(out, "episode", Num(e.episode));
    Field(out, "components", Num(e.components));
    Field(out, "length", Num(e.length));
  }
  void operator()(const PartitionEndEvent& e) const {
    Field(out, "episode", Num(e.episode));
  }
  void operator()(const SnapshotCoalescedEvent& e) const {
    Field(out, "queries", Num(e.queries));
    Field(out, "shared_samples", Num(e.shared_samples));
    Field(out, "consumed_samples", Num(e.consumed_samples));
  }
};

/// Which Chrome phase an event renders as: engine ticks are spans;
/// sampler-level activity renders as nested slices; engine decisions as
/// thread-scoped instants.
enum class ChromeShape { kTickSpan, kNestedSlice, kInstant };

ChromeShape ShapeOf(const EventPayload& payload) {
  if (std::holds_alternative<TickEvent>(payload)) {
    return ChromeShape::kTickSpan;
  }
  if (std::holds_alternative<WalkBatchEvent>(payload) ||
      std::holds_alternative<WalkBatchDoneEvent>(payload) ||
      std::holds_alternative<HopBudgetExhaustedEvent>(payload) ||
      std::holds_alternative<AgentRestartEvent>(payload) ||
      std::holds_alternative<FaultLossEvent>(payload) ||
      std::holds_alternative<FaultStallEvent>(payload) ||
      std::holds_alternative<WalkHedgedEvent>(payload) ||
      std::holds_alternative<WalkMixingEvent>(payload) ||
      std::holds_alternative<StationaryGapEvent>(payload) ||
      std::holds_alternative<PeerLoadEvent>(payload) ||
      std::holds_alternative<AcceptanceRateEvent>(payload) ||
      std::holds_alternative<PeerSuspectEvent>(payload) ||
      std::holds_alternative<BreakerTransitionEvent>(payload)) {
    return ChromeShape::kNestedSlice;
  }
  return ChromeShape::kInstant;
}

void AppendChromeArgs(std::string* out, const TraceEvent& event) {
  out->append("\"args\":{\"seq\":");
  out->append(std::to_string(event.seq));
  if (event.lane >= 0) {
    out->append(",\"lane\":");
    out->append(std::to_string(event.lane));
  }
  std::string fields;
  std::visit(JsonFields{&fields}, event.payload);
  out->append(fields);  // Leading commas already in place.
  out->push_back('}');
}

}  // namespace

std::string EventToJsonLine(const TraceEvent& event) {
  std::string out = "{\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"t\":";
  out += std::to_string(event.sim_time);
  // The deterministic execution lane (walk index, or QueryId on a
  // multi-query node) appears only on events stamped with one.
  if (event.lane >= 0) {
    out += ",\"lane\":";
    out += std::to_string(event.lane);
  }
  out += ",\"event\":\"";
  out += EventName(event.payload);
  out += "\"";
  std::visit(JsonFields{&out}, event.payload);
  out += "}";
  return out;
}

namespace {

/// Appends the wall-clock profile as JSONL: one `prof_phase` line per
/// recorded phase (aggregates, not events — no seq/t stamps).
void AppendProfJsonLines(std::string* out, const prof::Profiler& profiler) {
  for (size_t i = 0; i < prof::kNumPhases; ++i) {
    const auto phase = static_cast<prof::Phase>(i);
    const prof::PhaseStats& s = profiler.stats(phase);
    if (s.calls == 0 && s.items == 0) continue;
    *out += "{\"event\":\"prof_phase\",\"phase\":\"";
    *out += prof::PhaseName(phase);
    *out += "\",\"calls\":";
    *out += std::to_string(s.calls);
    *out += ",\"total_ns\":";
    *out += std::to_string(s.total_ns);
    *out += ",\"min_ns\":";
    *out += std::to_string(s.min_ns);
    *out += ",\"max_ns\":";
    *out += std::to_string(s.max_ns);
    *out += ",\"items\":";
    *out += std::to_string(s.items);
    *out += "}\n";
  }
}

}  // namespace

std::string RenderJsonLines(const std::vector<TraceEvent>& events,
                            const prof::Profiler* profiler) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += EventToJsonLine(event);
    out.push_back('\n');
  }
  if (profiler != nullptr) AppendProfJsonLines(&out, *profiler);
  return out;
}

std::string RenderChromeTrace(const std::vector<TraceEvent>& events,
                              const prof::Profiler* profiler) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out.push_back(',');
    first = false;
    out.append(obj);
  };

  // Each RunBeginEvent opens a new Chrome "process"; events before the
  // first marker share pid 1.
  int pid = 1;
  bool named_default = false;
  // Sub-tick placement: the i-th non-tick event of a (pid, sim_time)
  // pair sits at ts = t·1000 + 10·(i+1) µs, inside the tick's
  // [t·1000, t·1000+1000) span, in seq order. Deterministic by
  // construction.
  std::map<std::pair<int, int64_t>, int> slot;

  for (const TraceEvent& event : events) {
    if (const auto* run = std::get_if<RunBeginEvent>(&event.payload)) {
      pid = named_default || pid > 1 ? pid + 1 : pid;
      named_default = true;
      std::string meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      meta += std::to_string(pid);
      meta += ",\"tid\":1,\"args\":{\"name\":\"";
      AppendJsonEscaped(&meta, run->label);
      meta += "\"}}";
      emit(meta);
      continue;
    }
    const ChromeShape shape = ShapeOf(event.payload);
    const int64_t base_ts = event.sim_time * 1000;
    std::string obj = "{\"name\":\"";
    obj += EventName(event.payload);
    obj += "\",\"cat\":\"digest\",\"pid\":";
    obj += std::to_string(pid);
    obj += ",\"tid\":1,";
    switch (shape) {
      case ChromeShape::kTickSpan: {
        obj += "\"ph\":\"X\",\"ts\":";
        obj += std::to_string(base_ts);
        obj += ",\"dur\":1000,";
        break;
      }
      case ChromeShape::kNestedSlice:
      case ChromeShape::kInstant: {
        int& idx = slot[{pid, event.sim_time}];
        const int64_t ts = base_ts + 10 * std::min(idx + 1, 98);
        ++idx;
        if (shape == ChromeShape::kNestedSlice) {
          obj += "\"ph\":\"X\",\"ts\":";
          obj += std::to_string(ts);
          obj += ",\"dur\":8,";
        } else {
          obj += "\"ph\":\"i\",\"s\":\"t\",\"ts\":";
          obj += std::to_string(ts);
          obj += ",";
        }
        break;
      }
    }
    AppendChromeArgs(&obj, event);
    obj.push_back('}');
    emit(obj);
  }

  if (profiler != nullptr && !profiler->spans().empty()) {
    // The wall track: one extra process carrying real-time spans. Spans
    // were recorded in completion order (RAII destruction); sort by
    // start so the track reads left-to-right and timestamps are
    // monotone (stable sort keeps nesting order for equal starts).
    const int wall_pid = pid + 1;
    std::string meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    meta += std::to_string(wall_pid);
    meta += ",\"tid\":1,\"args\":{\"name\":\"wall-clock profiler\"}}";
    emit(meta);
    std::vector<prof::WallSpan> spans = profiler->spans();
    std::stable_sort(spans.begin(), spans.end(),
                     [](const prof::WallSpan& a, const prof::WallSpan& b) {
                       return a.start_ns < b.start_ns;
                     });
    for (const prof::WallSpan& span : spans) {
      std::string obj = "{\"name\":\"";
      obj += prof::PhaseName(span.phase);
      obj += "\",\"cat\":\"wall\",\"ph\":\"X\",\"pid\":";
      obj += std::to_string(wall_pid);
      obj += ",\"tid\":1,\"ts\":";
      obj += std::to_string(span.start_ns / 1000);
      obj += ",\"dur\":";
      obj += std::to_string(span.dur_ns / 1000);
      obj += ",\"args\":{\"dur_ns\":";
      obj += std::to_string(span.dur_ns);
      obj += ",\"items\":";
      obj += std::to_string(span.items);
      obj += "}}";
      emit(obj);
    }
  }

  out += "]}";
  return out;
}

std::string RenderMetricsJson(const Registry& registry,
                              const prof::Profiler* profiler) {
  std::string out = registry.ToJson();
  if (profiler == nullptr) return out;
  // Splice the prof object into the registry dump's top-level object.
  out.pop_back();  // Trailing '}'.
  out += ",\"prof\":";
  out += profiler->ToJson();
  out.push_back('}');
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  std::fwrite(content.data(), 1, content.size(), f);
  if (std::fclose(f) != 0) {
    return Status::Unavailable("error closing '" + path + "'");
  }
  return Status::OK();
}

Status WriteJsonLines(const std::vector<TraceEvent>& events,
                      const std::string& path,
                      const prof::Profiler* profiler) {
  return WriteFile(path, RenderJsonLines(events, profiler));
}

Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path,
                        const prof::Profiler* profiler) {
  return WriteFile(path, RenderChromeTrace(events, profiler));
}

std::string RenderSummary(const Registry& registry) {
  std::string out;
  auto section = [&](const char* title) {
    out += "== ";
    out += title;
    out += " ==\n";
  };
  auto rows = [&](std::vector<std::pair<std::string, std::string>> kv) {
    size_t width = 0;
    for (const auto& [k, v] : kv) width = std::max(width, k.size());
    for (const auto& [k, v] : kv) {
      out += "  ";
      out += k;
      out.append(width - k.size() + 2, ' ');
      out += v;
      out.push_back('\n');
    }
  };
  if (!registry.counters().empty()) {
    section("counters");
    std::vector<std::pair<std::string, std::string>> kv;
    for (const auto& [key, counter] : registry.counters()) {
      kv.emplace_back(key, std::to_string(counter->value()));
    }
    rows(std::move(kv));
  }
  if (!registry.gauges().empty()) {
    section("gauges");
    std::vector<std::pair<std::string, std::string>> kv;
    for (const auto& [key, gauge] : registry.gauges()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", gauge->value());
      kv.emplace_back(key, buf);
    }
    rows(std::move(kv));
  }
  if (!registry.histograms().empty()) {
    section("histograms");
    std::vector<std::pair<std::string, std::string>> kv;
    for (const auto& [key, hist] : registry.histograms()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "count=%llu mean=%.6g sum=%.6g",
                    static_cast<unsigned long long>(hist->count()),
                    hist->Mean(), hist->sum());
      kv.emplace_back(key, buf);
    }
    rows(std::move(kv));
  }
  if (out.empty()) out = "(registry is empty)\n";
  return out;
}

}  // namespace obs
}  // namespace digest
