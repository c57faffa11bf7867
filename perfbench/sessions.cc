// Session driver of the paper-scale benchmark (see README.md here).
//
// One process runs one workload: a series of closed-loop continuous-
// query sessions in simulated time, each built from the workload seed.
// Every tick the load generator advances the world (Workload::Advance)
// and the oracle computes the exact aggregate (ExactAggregate); then the
// system under test (SUT) answers (DigestEngine::Tick or
// DigestNode::Tick). Only the SUT call is SUT time; the generator, the
// oracle and RecordTruth are timed on their own.
//
// Session kinds:
//   probe      the first kPrefixTicks ticks under seed + 1: proves the
//              seed reaches the generators (its counts must differ);
//              also warms the allocator before anything is measured.
//   setup      set-up only (generation and construction, no ticks), in
//              blocks of kSetupBlock after the probe and after every
//              other session; setup_s is the fastest of them.
//   measured   untraced sessions; the end-to-end metrics come from these.
//   traced     the profiler attached and the benchmark's spans kept in
//              memory (written to --spans at exit); per-layer metrics.
//   instrumented  traced, with auditor, sampler diag and peer health
//              attached (temp_digest only); its answers and counts must
//              match the bare sessions'.
//
// Prints one JSON object with every session's raw timings and counts;
// perfbench/run.py turns them into metrics and correctness gates.
#include <malloc.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "core/digest_node.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "diag/diag.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "prof/profiler.h"
#include "workload/temperature.h"

namespace digest {
namespace perfbench {
namespace {

// One 18-month TEMPERATURE session at two readings a day.
constexpr size_t kSessionTicks = 1095;

// Ticks after which every session records its prefix counts; the probe
// session runs exactly this many ticks under the neighbouring seed.
constexpr size_t kPrefixTicks = 20;

// Measured sessions per run, at least (the run continues until its
// time is up); traced runs keep at least this many of each kind too.
constexpr size_t kMinMeasured = 3;
constexpr size_t kMinTraced = 2;
constexpr size_t kSetupBlock = 20;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

[[noreturn]] void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "digest_perfbench: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Fail(what, status);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).value();
}

// SplitMix64 finalizer: independent sub-seeds from one benchmark seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over the bit patterns of the answer series.
class SeriesHash {
 public:
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((bits >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------
// Spans, kept in memory and written once at exit.

class SpanLog {
 public:
  struct Span {
    const char* name;
    uint32_t session;
    int32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  int32_t Open(const char* name, uint32_t session, int32_t parent,
               uint64_t start_ns) {
    spans_.push_back({name, session, parent, start_ns, start_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id, uint64_t end_ns) { spans_[id].end_ns = end_ns; }
  size_t size() const { return spans_.size(); }

  // One JSON object per line: {"id","session","parent","name","start_ns",
  // "dur_ns"}; parent -1 marks a session root.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"session\":%u,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                   i, s.session, s.parent, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns - s.start_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// Times one call: into `*total_ns` unless null, and as a span when traced.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, uint32_t session, int32_t parent,
        uint64_t* total_ns)
      : log_(log), total_ns_(total_ns), start_ns_(NowNs()) {
    if (log_ != nullptr) id_ = log_->Open(name, session, parent, start_ns_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Ends the interval and returns its duration.
  uint64_t Stop() {
    const uint64_t end = NowNs();
    if (log_ != nullptr) log_->Close(id_, end);
    const uint64_t dur = end - start_ns_;
    if (total_ns_ != nullptr) *total_ns_ += dur;
    return dur;
  }
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t* total_ns_;
  uint64_t start_ns_;
  int32_t id_ = -1;
};

// ---------------------------------------------------------------------
// Workloads.

enum class Sut { kEngine, kNode };

// Every workload runs TEMPERATURE at its Table II defaults (8000 units,
// 530-station mesh, 1095 ticks) under PRED-3 + RPT + two-stage MCMC.
struct WorkloadDef {
  const char* name;
  Sut sut;
  // Traced runs also run the instrumented configuration: auditor,
  // sampler diag and peer health attached.
  bool instruments;
};

const WorkloadDef kWorkloads[] = {
    {"temp_digest", Sut::kEngine, true},
    {"node_8q", Sut::kNode, false},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

ContinuousQuerySpec AvgTemperature(double delta, double epsilon) {
  return Unwrap(ContinuousQuerySpec::Create(
                    "SELECT AVG(temperature) FROM R",
                    PrecisionSpec{delta, epsilon, /*confidence=*/0.95}),
                "query spec");
}

// The node runs 8 tenants with ε evenly from 0.5 to 2.0 at δ=1; an
// engine runs Digest's headline query, δ=2, ε=0.5.
std::vector<ContinuousQuerySpec> Queries(const WorkloadDef& def) {
  std::vector<ContinuousQuerySpec> specs;
  if (def.sut == Sut::kNode) {
    for (int i = 0; i < 8; ++i) {
      specs.push_back(AvgTemperature(1.0, 0.5 + 1.5 * i / 7.0));
    }
  } else {
    specs.push_back(AvgTemperature(2.0, 0.5));
  }
  return specs;
}

// ---------------------------------------------------------------------
// One session.

struct SessionOut {
  const char* kind = "";
  uint64_t seed = 0;
  size_t ticks = 0;
  size_t queries = 0;
  uint64_t generate_ns = 0;
  uint64_t create_ns = 0;
  uint64_t sut_ns = 0;
  uint64_t advance_ns = 0;
  uint64_t oracle_ns = 0;
  uint64_t truth_ns = 0;
  // Heap the session holds at its end (workload, engine or node,
  // instruments and the answer series), over what it began with.
  uint64_t heap_bytes = 0;
  std::vector<uint64_t> tick_ns;  // SUT time of every tick.
  std::string occasions;          // Per tick: '1' if it ran an occasion.

  // Deterministic outcome, summed over the session's queries.
  EngineStats stats;
  MessageMeter meter;
  uint64_t hits = 0;       // Answers within max(ε, ci) + δ of the truth.
  uint64_t degraded = 0;   // Answers flagged degraded.
  uint64_t nonfinite = 0;  // Answers that are NaN or infinite.
  uint64_t coalesced = 0;  // Node ticks that shared one walk batch.
  uint64_t cost_share_sum = 0;  // Σ per-query QueryCost::messages.
  SeriesHash series;
  uint64_t prefix_messages = 0;
  uint64_t prefix_samples = 0;
  uint64_t prefix_series = 0;

  prof::PhaseStats phases[prof::kNumPhases] = {};
};

struct Instruments {
  audit::PrecisionAuditor auditor;
  diag::SamplerDiag diag;
  PeerHealthMonitor health;
};

size_t SampleTotal(const DigestNode& node, const std::vector<QueryId>& ids) {
  size_t total = 0;
  for (QueryId id : ids) {
    total += Unwrap(node.engine(id), "engine")->stats().total_samples;
  }
  return total;
}

// Bytes the allocator has handed out and not taken back. Exact and
// repeatable, unlike resident set size, which the kernel counts in
// batches and which a process started from a larger one inherits.
uint64_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

SessionOut RunSession(const WorkloadDef& def, const char* kind,
                      uint64_t seed, size_t ticks, bool instrumented,
                      bool traced, SpanLog* spans, uint32_t session_id) {
  SessionOut out;
  const uint64_t heap_before = HeapInUse();
  out.kind = kind;
  out.seed = seed;
  out.ticks = ticks;
  SpanLog* log = traced ? spans : nullptr;
  Timed session(log, "session", session_id, -1, nullptr);

  // Set-up: workload generation, then engine or node construction.
  Timed generate(log, "generate", session_id, session.id(),
                 &out.generate_ns);
  TemperatureConfig config;
  config.seed = SubSeed(seed, 1);
  std::unique_ptr<Workload> workload =
      Unwrap(TemperatureWorkload::Create(config), "workload");
  generate.Stop();

  const std::vector<ContinuousQuerySpec> specs = Queries(def);
  out.queries = specs.size();
  DigestEngineOptions options;  // PRED + RPT + two-stage MCMC.
  options.extrapolator.history_points = 3;
  prof::ProfilerOptions profiler_options;
  profiler_options.capture_spans = false;
  prof::Profiler profiler(profiler_options);
  if (traced) options.profiler = &profiler;
  std::unique_ptr<Instruments> instruments;
  if (instrumented) {
    instruments = std::make_unique<Instruments>();
    instruments->auditor.BeginRun(def.name);
    options.auditor = &instruments->auditor;
    options.diag = &instruments->diag;
    options.health = &instruments->health;
  }

  Rng rng(SubSeed(seed, 2));
  const NodeId origin =
      Unwrap(workload->graph().RandomLiveNode(rng), "querying node");
  workload->ProtectNode(origin);
  std::unique_ptr<DigestEngine> engine;
  std::unique_ptr<DigestNode> node;
  std::vector<QueryId> ids;
  Timed create(log, "create", session_id, session.id(), &out.create_ns);
  if (def.sut == Sut::kEngine) {
    engine = Unwrap(DigestEngine::Create(&workload->graph(), &workload->db(),
                                         specs[0], origin, rng.Fork(),
                                         &out.meter, options),
                    "engine");
  } else {
    node = Unwrap(DigestNode::Create(&workload->graph(), &workload->db(),
                                     origin, rng.Fork(), &out.meter, options),
                  "node");
    for (const ContinuousQuerySpec& spec : specs) {
      ids.push_back(Unwrap(node->IssueQuery(spec), "issue query"));
    }
  }
  create.Stop();

  std::vector<std::vector<double>> reported(specs.size());
  std::vector<std::vector<double>> ci(specs.size());
  std::vector<double> truth;
  for (size_t q = 0; q < specs.size(); ++q) {
    reported[q].reserve(ticks);
    ci[q].reserve(ticks);
  }
  truth.reserve(ticks);
  out.tick_ns.reserve(ticks);
  std::vector<EngineTickResult> answers(specs.size());

  for (size_t i = 0; i < ticks; ++i) {
    Timed tick_span(log, "tick", session_id, session.id(), nullptr);
    Timed advance(log, "Advance", session_id, tick_span.id(),
                  &out.advance_ns);
    Check(workload->Advance(), "advance");
    advance.Stop();
    const int64_t t = workload->now();

    Timed oracle(log, "ExactAggregate", session_id, tick_span.id(),
                 &out.oracle_ns);
    const double exact =
        Unwrap(workload->db().ExactAggregate(specs[0].query), "oracle");
    oracle.Stop();

    bool occasion = false;
    Timed sut(log, "Tick", session_id, tick_span.id(), &out.sut_ns);
    if (engine != nullptr) {
      Result<EngineTickResult> r = engine->Tick(t);
      const uint64_t dur = sut.Stop();
      answers[0] = Unwrap(std::move(r), "engine tick");
      occasion = answers[0].snapshot_executed;
      out.tick_ns.push_back(dur);
    } else {
      Result<std::vector<std::pair<QueryId, EngineTickResult>>> r =
          node->Tick(t);
      const uint64_t dur = sut.Stop();
      std::vector<std::pair<QueryId, EngineTickResult>> results =
          Unwrap(std::move(r), "node tick");
      for (size_t q = 0; q < results.size(); ++q) {
        answers[q] = results[q].second;
        occasion = occasion || answers[q].snapshot_executed;
      }
      out.tick_ns.push_back(dur);
    }

    if (instrumented) {
      Timed record(log, "RecordTruth", session_id, tick_span.id(),
                   &out.truth_ns);
      instruments->auditor.RecordTruth(t, exact);
      record.Stop();
    }
    tick_span.Stop();

    out.occasions += occasion ? '1' : '0';
    truth.push_back(exact);
    for (size_t q = 0; q < specs.size(); ++q) {
      const EngineTickResult& a = answers[q];
      reported[q].push_back(a.reported_value);
      ci[q].push_back(a.ci_halfwidth);
      if (!std::isfinite(a.reported_value) || !std::isfinite(a.ci_halfwidth)) {
        ++out.nonfinite;
      }
      if (a.degraded) ++out.degraded;
      out.series.Add(a.reported_value);
      out.series.Add(a.ci_halfwidth);
    }
    if (i + 1 == kPrefixTicks) {
      out.prefix_messages = out.meter.Total();
      out.prefix_samples = engine != nullptr ? engine->stats().total_samples
                                             : SampleTotal(*node, ids);
      out.prefix_series = out.series.value();
    }
  }
  session.Stop();
  out.heap_bytes = HeapInUse() - heap_before;
  if (instrumented) instruments->auditor.FinalizeRun();

  for (size_t q = 0; q < specs.size() && ticks > 0; ++q) {
    const PrecisionReport precision = Unwrap(
        EvaluatePrecisionWidened(reported[q], truth, ci[q],
                                 specs[q].precision),
        "precision");
    out.hits += static_cast<uint64_t>(std::llround(
        precision.within_tolerance_fraction * static_cast<double>(ticks)));
  }
  if (engine != nullptr) {
    out.stats = engine->stats();
  } else {
    for (QueryId id : ids) {
      const EngineStats& s = Unwrap(node->engine(id), "engine")->stats();
      out.stats.ticks += s.ticks;
      out.stats.snapshots += s.snapshots;
      out.stats.result_updates += s.result_updates;
      out.stats.total_samples += s.total_samples;
      out.stats.fresh_samples += s.fresh_samples;
      out.stats.retained_samples += s.retained_samples;
      out.stats.degraded_ticks += s.degraded_ticks;
      out.stats.partial_snapshots += s.partial_snapshots;
      out.cost_share_sum += Unwrap(node->query_cost(id), "cost").messages;
    }
    out.coalesced = node->coalesced_ticks();
  }
  for (size_t p = 0; p < prof::kNumPhases; ++p) {
    out.phases[p] = profiler.stats(static_cast<prof::Phase>(p));
  }
  return out;
}

// ---------------------------------------------------------------------
// JSON output.

void AppendU64(std::string* out, const char* key, uint64_t v) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
  *out += ',';
}

std::string SessionJson(const SessionOut& s) {
  std::string out = "{\"kind\":\"";
  out += s.kind;
  out += "\",";
  AppendU64(&out, "seed", s.seed);
  AppendU64(&out, "ticks", s.ticks);
  AppendU64(&out, "queries", s.queries);
  AppendU64(&out, "generate_ns", s.generate_ns);
  AppendU64(&out, "create_ns", s.create_ns);
  AppendU64(&out, "sut_ns", s.sut_ns);
  AppendU64(&out, "advance_ns", s.advance_ns);
  AppendU64(&out, "oracle_ns", s.oracle_ns);
  AppendU64(&out, "truth_ns", s.truth_ns);
  AppendU64(&out, "heap_bytes", s.heap_bytes);
  out += "\"tick_ns\":[";
  for (size_t i = 0; i < s.tick_ns.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(s.tick_ns[i]);
  }
  out += "],\"occasions\":\"";
  out += s.occasions;
  out += "\",\"counts\":{";
  const MessageMeter& m = s.meter;
  AppendU64(&out, "engine_ticks", s.stats.ticks);
  AppendU64(&out, "snapshots", s.stats.snapshots);
  AppendU64(&out, "total_samples", s.stats.total_samples);
  AppendU64(&out, "fresh_samples", s.stats.fresh_samples);
  AppendU64(&out, "retained_samples", s.stats.retained_samples);
  AppendU64(&out, "partial_snapshots", s.stats.partial_snapshots);
  AppendU64(&out, "degraded_answers", s.degraded);
  AppendU64(&out, "hits", s.hits);
  AppendU64(&out, "nonfinite", s.nonfinite);
  AppendU64(&out, "coalesced_ticks", s.coalesced);
  AppendU64(&out, "cost_share_sum", s.cost_share_sum);
  AppendU64(&out, "messages", m.Total());
  AppendU64(&out, "hops", m.walk_hops());
  AppendU64(&out, "probes", m.weight_probes());
  AppendU64(&out, "transfers", m.sample_transfers());
  AppendU64(&out, "refreshes", m.refreshes());
  AppendU64(&out, "pushes", m.pushes());
  AppendU64(&out, "retries", m.retries());
  AppendU64(&out, "restarts", m.agent_restarts());
  AppendU64(&out, "hedge_launches", m.hedge_launches());
  AppendU64(&out, "hedged_duplicates", m.hedged_duplicates());
  out += "\"series\":\"";
  out += std::to_string(s.series.value());
  out += "\"},\"prefix\":{";
  AppendU64(&out, "messages", s.prefix_messages);
  AppendU64(&out, "samples", s.prefix_samples);
  out += "\"series\":\"";
  out += std::to_string(s.prefix_series);
  out += "\"},\"phases\":{";
  for (size_t p = 0; p < prof::kNumPhases; ++p) {
    const prof::PhaseStats& ph = s.phases[p];
    if (p > 0) out += ',';
    out += '"';
    out += prof::PhaseName(static_cast<prof::Phase>(p));
    out += "\":{";
    AppendU64(&out, "calls", ph.calls);
    AppendU64(&out, "total_ns", ph.total_ns);
    out += "\"items\":";
    out += std::to_string(ph.items);
    out += '}';
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "digest_perfbench: %s\nusage: digest_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\nworkloads:",
               why);
  for (const WorkloadDef& def : kWorkloads) {
    std::fprintf(stderr, " %s", def.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *value == '-' || *end != '\0') {
        Usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage("unknown flag");
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) Usage("unknown --workload");

  SpanLog spans;
  std::vector<SessionOut> sessions;
  uint32_t next_id = 0;
  auto run = [&](const char* kind, uint64_t seed, size_t ticks,
                 bool instrumented, bool traced) {
    sessions.push_back(RunSession(*def, kind, seed, ticks, instrumented,
                                  traced, &spans, next_id++));
  };

  // A block of set-ups alone, run after the probe and after every
  // session, so the set-ups span the whole run.
  auto setup_block = [&] {
    for (size_t i = 0; i < kSetupBlock; ++i) {
      run("setup", args.seed, 0, false, false);
    }
  };

  // Neighbouring seed first: proves the seed reaches the generators, and
  // warms the allocator and caches before anything is measured.
  run("probe", args.seed + 1, kPrefixTicks, false, false);
  setup_block();
  // The cycle of session kinds the measured phase repeats.
  struct Kind {
    const char* name;
    bool instrumented;
    bool traced;
    size_t min_count;
  };
  std::vector<Kind> cycle;
  cycle.push_back({"measured", false, false,
                   args.trace ? kMinTraced : kMinMeasured});
  if (args.trace) {
    cycle.push_back({"traced", false, true, kMinTraced});
    if (def->instruments) {
      cycle.push_back({"instrumented", true, true, kMinTraced});
    }
  }

  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<size_t> counts(cycle.size(), 0);
  for (size_t step = 0;; ++step) {
    bool enough = NowNs() >= deadline;
    for (size_t k = 0; k < cycle.size(); ++k) {
      enough = enough && counts[k] >= cycle[k].min_count;
    }
    if (enough) break;
    const size_t k = step % cycle.size();
    run(cycle[k].name, args.seed, kSessionTicks, cycle[k].instrumented,
        cycle[k].traced);
    ++counts[k];
    setup_block();
  }

  if (!args.spans_path.empty() && spans.size() > 0 &&
      !spans.Write(args.spans_path)) {
    std::fprintf(stderr, "digest_perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }
  std::string out = "{\"workload\":\"";
  out += def->name;
  out += "\",";
  AppendU64(&out, "seed", args.seed);
  AppendU64(&out, "spans", spans.size());
  out += "\"sessions\":[";
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (i > 0) out += ',';
    out += SessionJson(sessions[i]);
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace digest

int main(int argc, char** argv) {
  return digest::perfbench::Main(argc, argv);
}
