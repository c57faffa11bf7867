#ifndef DIGEST_PROF_PROFILER_H_
#define DIGEST_PROF_PROFILER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace digest {
namespace prof {

// Wall-clock profiling of the simulator's hot paths.
//
// This subsystem is deliberately separate from src/obs/: the obs layer
// records *simulated* time and is bit-reproducible across runs, while
// the profiler reads the host's steady clock and answers a different
// question — where does real CPU time go? The two never mix: profiler
// data is exported on a dedicated "wall" track / `prof` section, and
// the deterministic trace and metrics files are byte-identical with or
// without a profiler attached.
//
// Null fast path (same contract as obs::Tracer): components hold a
// `Profiler*` that may be null, and a ScopedTimer constructed with a
// null profiler performs no clock read at all. A run with profiling
// disabled is bit-identical to an uninstrumented build — test-enforced
// by tests/prof_test.cc.

/// The instrumented hot paths. Order is the export order; names are
/// stable API (PhaseName) pinned by tools/check_trace.py.
enum class Phase : int {
  kEngineTick = 0,       ///< DigestEngine::Tick, whole body.
  kExtrapolatorFit,      ///< PRED history fit (AddObservation).
  kExtrapolatorPredict,  ///< PRED gap prediction (Eq. 4 search).
  kEstimatorEvaluate,    ///< Snapshot estimation (INDEP/RPT regression).
  kWalkBatch,            ///< SamplingOperator::SampleNodes, whole batch.
  kWalkAdvance,          ///< Stepping a clean batch's chunk or one walk.
  kFaultDraw,            ///< FaultPlan randomness draws.
  kPhaseCount,           ///< Sentinel; not a phase.
};

inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kPhaseCount);

/// Stable lower-snake-case name of a phase (`engine_tick`, ...).
const char* PhaseName(Phase phase);

/// Accumulated wall-clock cost of one phase. `items` counts
/// phase-specific units of work (walk hops, samples drawn, ...) so
/// exporters can derive throughput (items / total_ns).
struct PhaseStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;  ///< 0 until the first call.
  uint64_t max_ns = 0;
  uint64_t items = 0;
};

/// One captured span, for the Chrome-trace "wall" track. Timestamps are
/// nanoseconds since the profiler's construction (its epoch).
struct WallSpan {
  Phase phase = Phase::kEngineTick;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t items = 0;
};

struct ProfilerOptions {
  /// Capture individual spans (for the Chrome wall track) in addition
  /// to the aggregate per-phase counters. Only coarse phases are
  /// captured (see PhaseCapturesSpans); high-frequency phases
  /// (walk stepping, fault draws) aggregate into counters only.
  bool capture_spans = true;
};

/// Hard cap on captured spans; further spans still aggregate into the
/// phase counters but are dropped from the span log (counted by
/// spans_dropped). Bounds memory on long runs.
constexpr size_t kMaxSpans = 65536;

/// True for phases coarse enough to record as individual wall spans.
bool PhaseCapturesSpans(Phase phase);

class Profiler;

/// A per-worker wall-clock accumulator for pool regions. The main
/// Profiler is single-threaded by contract; during a walk batch each
/// pool worker instead records into its own Track (written
/// by that worker only — no synchronization), and the main thread folds
/// every track back into the Profiler after the pool barrier
/// (Profiler::FoldTrack). Tracks aggregate per-phase counters only, no
/// span capture: the phases workers run (walk stepping, fault draws)
/// are the high-frequency ones that never capture spans anyway.
///
/// Null fast path: a Track constructed without a clock (the profiler)
/// is inert — no clock reads, recording no-ops — mirroring the
/// null-Profiler contract so unprofiled parallel runs stay free of
/// timing syscalls.
class Track {
 public:
  /// `clock` supplies the shared epoch (ElapsedNs is thread-safe: the
  /// epoch is immutable after construction). Null disables the track.
  explicit Track(const Profiler* clock = nullptr) : clock_(clock) {}

  bool active() const { return clock_ != nullptr; }
  uint64_t NowNs() const;

  /// Folds one completed interval into `phase` (aggregate only).
  void Record(Phase phase, uint64_t start_ns, uint64_t end_ns,
              uint64_t items) {
    const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
    PhaseStats& s = stats_[static_cast<size_t>(phase)];
    if (s.calls == 0 || dur < s.min_ns) s.min_ns = dur;
    if (dur > s.max_ns) s.max_ns = dur;
    ++s.calls;
    s.total_ns += dur;
    s.items += items;
  }

  const PhaseStats& stats(Phase phase) const {
    return stats_[static_cast<size_t>(phase)];
  }

 private:
  friend class Profiler;
  const Profiler* clock_;
  PhaseStats stats_[kNumPhases] = {};
};

/// Wall-clock profile accumulator. Not thread-safe (the simulator's
/// main loop is single-threaded; parallel walk workers record into
/// per-worker Tracks that are folded back on the main thread); one
/// instance per run or per bench scenario.
class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  /// Nanoseconds elapsed on the steady clock since construction.
  uint64_t ElapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Folds one completed interval into `phase` (normally called by
  /// ~ScopedTimer). Captures a WallSpan for span-capturing phases.
  void Record(Phase phase, uint64_t start_ns, uint64_t end_ns,
              uint64_t items);

  /// Adds work units to a phase without timing (e.g. samples drawn
  /// counted outside any timer).
  void AddItems(Phase phase, uint64_t items) {
    stats_[static_cast<size_t>(phase)].items += items;
  }

  const PhaseStats& stats(Phase phase) const {
    return stats_[static_cast<size_t>(phase)];
  }
  const std::vector<WallSpan>& spans() const { return spans_; }
  uint64_t spans_dropped() const { return spans_dropped_; }

  /// Folds a pool worker's Track into this profiler (main thread,
  /// after the pool barrier): the track's counters merge element-wise
  /// into the aggregate phase stats — so calls/items are the same at
  /// any thread count, with wall time attributed to whichever
  /// worker actually spent it — and also accumulate into a per-worker
  /// breakdown exported as the `tracks` JSON section. `worker` indexes
  /// the breakdown (0 = the calling thread).
  void FoldTrack(size_t worker, const Track& track);

  /// Per-worker cumulative phase stats (empty until a FoldTrack).
  const std::vector<std::array<PhaseStats, kNumPhases>>& tracks() const {
    return tracks_;
  }

  /// Clears all counters, spans, and worker tracks; the epoch is NOT
  /// reset (spans from before and after a Reset stay on one time axis).
  void Reset();

  /// The profile as one JSON object:
  /// `{"phases":{"engine_tick":{"calls":N,"total_ns":N,"min_ns":N,
  /// "max_ns":N,"items":N},...},"spans_captured":N,"spans_dropped":N}`.
  /// Phases with zero calls and zero items are omitted. Key order is
  /// the Phase enum order (stable across runs). When worker tracks were
  /// folded (any run that sampled walks: every walk runs on a pool
  /// worker, the calling thread being worker 0), a
  /// `"tracks":[{"worker":N,"phases":{...}},...]` array follows; it is
  /// omitted when no track was ever folded.
  std::string ToJson() const;

 private:
  ProfilerOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  PhaseStats stats_[kNumPhases];
  std::vector<WallSpan> spans_;
  uint64_t spans_dropped_ = 0;
  std::vector<std::array<PhaseStats, kNumPhases>> tracks_;
};

inline uint64_t Track::NowNs() const { return clock_->ElapsedNs(); }

/// RAII interval timer. With a null profiler the constructor and
/// destructor do nothing — no clock read, no branch beyond the null
/// check — so instrumented code pays nothing when profiling is off.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ns_ = profiler_->ElapsedNs();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attributes `n` work units to the timed interval (recorded at
  /// destruction). No-op when profiling is off.
  void AddItems(uint64_t n) {
    if (profiler_ != nullptr) items_ += n;
  }

  ~ScopedTimer() {
    if (profiler_ != nullptr) {
      profiler_->Record(phase_, start_ns_, profiler_->ElapsedNs(), items_);
    }
  }

 private:
  Profiler* profiler_;
  Phase phase_;
  uint64_t start_ns_ = 0;
  uint64_t items_ = 0;
};

/// RAII interval timer against a per-worker Track — the worker-side
/// mirror of ScopedTimer. Inert (no clock reads) when the track is null
/// or inactive.
class ScopedTrackTimer {
 public:
  ScopedTrackTimer(Track* track, Phase phase) : phase_(phase) {
    if (track != nullptr && track->active()) {
      track_ = track;
      start_ns_ = track->NowNs();
    }
  }
  ScopedTrackTimer(const ScopedTrackTimer&) = delete;
  ScopedTrackTimer& operator=(const ScopedTrackTimer&) = delete;

  /// Attributes `n` work units to the timed interval.
  void AddItems(uint64_t n) {
    if (track_ != nullptr) items_ += n;
  }

  ~ScopedTrackTimer() {
    if (track_ != nullptr) {
      track_->Record(phase_, start_ns_, track_->NowNs(), items_);
    }
  }

 private:
  Track* track_ = nullptr;
  Phase phase_;
  uint64_t start_ns_ = 0;
  uint64_t items_ = 0;
};

/// Human-readable profile summary: an aligned table of phases with
/// calls, total/mean wall time, and throughput where items are counted.
std::string RenderProfSummary(const Profiler& profiler);

}  // namespace prof
}  // namespace digest

#endif  // DIGEST_PROF_PROFILER_H_
