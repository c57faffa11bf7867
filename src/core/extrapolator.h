#ifndef DIGEST_CORE_EXTRAPOLATOR_H_
#define DIGEST_CORE_EXTRAPOLATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "numeric/polynomial.h"

namespace digest {

/// Tuning of the continual-querying extrapolation algorithm (PRED-k).
struct ExtrapolatorOptions {
  /// k: number of previous aggregate values used for prediction. The
  /// fitted Taylor polynomial has degree k−1 (paper: PRED-k). Must be
  /// ≥ 2.
  size_t history_points = 4;

  /// Upper bound on how far ahead a snapshot may be scheduled, in ticks.
  /// Guards against runaway predictions when the aggregate flatlines.
  int64_t max_skip = 64;
};

/// The extrapolation algorithm of §IV-A: fits a degree-(k−1) Taylor
/// polynomial P to the last k observed aggregate values, bounds the
/// approximation error by a Lagrange-remainder estimate
/// |R(t)| ≈ |c|·(t−t_u)^k (c from the order-k divided difference of the
/// history), and schedules the next snapshot at the earliest t where the
/// predicted drift can reach the resolution threshold:
///
///   |P(t) − P(t_u)| + |R(t)| > δ.
///
/// During the bootstrap period (fewer than k observations) prediction is
/// unavailable and the caller must query continuously (every tick).
class Extrapolator {
 public:
  explicit Extrapolator(ExtrapolatorOptions options = {});

  /// Records the snapshot result x observed at tick t. Ticks must be
  /// strictly increasing.
  Status AddObservation(int64_t t, double x);

  /// True once k observations are available.
  bool Bootstrapped() const {
    return state_.ticks.size() >= options_.history_points;
  }

  /// Earliest tick (> the last observed tick) at which the aggregate may
  /// have drifted by δ away from `reference` — the running result
  /// X̂[t_u] of Eq. 4 (drift accumulated since the last *update* counts
  /// toward the threshold, not just drift since the last observation).
  /// Pass the last observation itself when no separate reported value
  /// exists. Returns last_tick + 1 while bootstrapping, and never more
  /// than last_tick + max_skip. `delta` must be ≥ 0.
  Result<int64_t> PredictNextSnapshotTime(double delta,
                                          double reference) const;

  /// Overload using the fitted value at the last observation as the
  /// reference.
  Result<int64_t> PredictNextSnapshotTime(double delta) const;

  /// Value of the fitted polynomial at tick t (extrapolated estimate,
  /// usable between snapshots). Falls back to the last observation while
  /// bootstrapping; fails before any observation.
  Result<double> ExtrapolatedValue(int64_t t) const;

  /// Forgets all history.
  void Reset() {
    state_ = State();
    fit_.reset();
  }

  /// The PRED history window, oldest first, as parallel tick/value
  /// arrays; also the engine checkpoint's "extrapolator" section.
  /// Restoring replaces the whole window.
  struct State {
    std::vector<int64_t> ticks;
    std::vector<double> values;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("ticks", ticks);
      v("values", values);
      v.Check([&] { return ticks.size() == values.size(); },
              "ticks/values length mismatch");
    }
  };
  State SaveState() const { return state_; }
  void RestoreState(const State& state) {
    state_ = state;
    fit_.reset();
  }

  const ExtrapolatorOptions& options() const { return options_; }

 private:
  /// Fits the Taylor polynomial in the shifted variable s = t − t_last
  /// to the most recent k observations (plus the remainder constant).
  struct Fit {
    Polynomial poly;       // In s = t − t_last.
    double remainder_c;    // |f⁽ᵏ⁾/k!| estimate.
  };
  /// The fit of the current window, computed at most once per window.
  const Result<Fit>& FitHistory() const;
  Result<Fit> ComputeFit() const;

  ExtrapolatorOptions options_;
  State state_;  // At most history_points + 1 observations.
  /// FitHistory()'s result, errors included, until the window changes.
  /// Derived from state_, so never checkpointed.
  mutable std::optional<Result<Fit>> fit_;
};

}  // namespace digest

#endif  // DIGEST_CORE_EXTRAPOLATOR_H_
