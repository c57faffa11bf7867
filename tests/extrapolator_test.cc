#include "core/extrapolator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace digest {
namespace {

TEST(ExtrapolatorTest, BootstrapIsContinuousQuerying) {
  ExtrapolatorOptions options;
  options.history_points = 4;
  Extrapolator ex(options);
  EXPECT_FALSE(ex.Bootstrapped());
  EXPECT_FALSE(ex.PredictNextSnapshotTime(1.0).ok());  // No data at all.
  ASSERT_TRUE(ex.AddObservation(0, 10.0).ok());
  EXPECT_FALSE(ex.Bootstrapped());
  // Under-populated history: predict the very next tick.
  EXPECT_EQ(ex.PredictNextSnapshotTime(1.0).value(), 1);
  ASSERT_TRUE(ex.AddObservation(1, 10.5).ok());
  ASSERT_TRUE(ex.AddObservation(2, 11.0).ok());
  EXPECT_EQ(ex.PredictNextSnapshotTime(1.0).value(), 3);
  ASSERT_TRUE(ex.AddObservation(3, 11.5).ok());
  EXPECT_TRUE(ex.Bootstrapped());
}

TEST(ExtrapolatorTest, RejectsNonIncreasingTicks) {
  Extrapolator ex;
  ASSERT_TRUE(ex.AddObservation(5, 1.0).ok());
  EXPECT_FALSE(ex.AddObservation(5, 2.0).ok());
  EXPECT_FALSE(ex.AddObservation(4, 2.0).ok());
  EXPECT_TRUE(ex.AddObservation(6, 2.0).ok());
}

TEST(ExtrapolatorTest, RejectsNegativeDelta) {
  Extrapolator ex;
  ASSERT_TRUE(ex.AddObservation(0, 1.0).ok());
  EXPECT_FALSE(ex.PredictNextSnapshotTime(-1.0).ok());
}

TEST(ExtrapolatorTest, ZeroDeltaIsContinuous) {
  ExtrapolatorOptions options;
  options.history_points = 2;
  Extrapolator ex(options);
  ASSERT_TRUE(ex.AddObservation(0, 1.0).ok());
  ASSERT_TRUE(ex.AddObservation(1, 2.0).ok());
  EXPECT_EQ(ex.PredictNextSnapshotTime(0.0).value(), 2);
}

TEST(ExtrapolatorTest, LinearTrendPredictsCrossingTime) {
  // X grows by 1 per tick; with delta = 5 the next snapshot should land
  // roughly 5 ticks out (remainder shrinks it at most slightly).
  ExtrapolatorOptions options;
  options.history_points = 2;  // Degree-1 Taylor polynomial.
  Extrapolator ex(options);
  for (int t = 0; t <= 4; ++t) {
    ASSERT_TRUE(ex.AddObservation(t, 100.0 + t).ok());
  }
  Result<int64_t> next = ex.PredictNextSnapshotTime(5.0);
  ASSERT_TRUE(next.ok());
  EXPECT_GE(*next, 4 + 4);
  EXPECT_LE(*next, 4 + 6);
}

TEST(ExtrapolatorTest, SteeperSlopeMeansEarlierSnapshot) {
  ExtrapolatorOptions options;
  options.history_points = 2;
  Extrapolator slow(options), fast(options);
  for (int t = 0; t <= 3; ++t) {
    ASSERT_TRUE(slow.AddObservation(t, 0.5 * t).ok());
    ASSERT_TRUE(fast.AddObservation(t, 4.0 * t).ok());
  }
  const int64_t next_slow = slow.PredictNextSnapshotTime(8.0).value();
  const int64_t next_fast = fast.PredictNextSnapshotTime(8.0).value();
  EXPECT_GT(next_slow, next_fast);
}

TEST(ExtrapolatorTest, FlatlineSkipsToMaxSkip) {
  ExtrapolatorOptions options;
  options.history_points = 3;
  options.max_skip = 32;
  Extrapolator ex(options);
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(ex.AddObservation(t, 42.0).ok());
  }
  EXPECT_EQ(ex.PredictNextSnapshotTime(10.0).value(), 5 + 32);
}

TEST(ExtrapolatorTest, QuadraticSeriesFitsWithDegreeTwo) {
  // X(t) = t^2: with history 3 (degree 2) the fit is exact, so the
  // predicted crossing matches the analytic drift t_last^2 -> (t_last+s)^2.
  ExtrapolatorOptions options;
  options.history_points = 3;
  Extrapolator ex(options);
  for (int t = 0; t <= 5; ++t) {
    ASSERT_TRUE(ex.AddObservation(t, static_cast<double>(t * t)).ok());
  }
  // Drift from t=5: (5+s)^2 - 25 = 10s + s^2 > 20 -> s = 2.
  Result<int64_t> next = ex.PredictNextSnapshotTime(20.0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 7);
}

TEST(ExtrapolatorTest, LevMarAndLeastSquaresAgree) {
  // Polynomial fitting is a linear problem: the extrapolator's
  // Levenberg–Marquardt fit (the paper's choice, for robustness, not a
  // different optimum) must match the closed-form least-squares fit of
  // the same window, in the shifted variable s = t − t_last.
  for (size_t k = 2; k <= 4; ++k) {
    ExtrapolatorOptions options;
    options.history_points = k;
    Extrapolator ex(options);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int t = 0; t < 8; ++t) {
      const double x = 3.0 + 0.8 * t - 0.05 * t * t;
      ASSERT_TRUE(ex.AddObservation(t, x).ok());
      if (static_cast<size_t>(t) + k >= 8) {
        xs.push_back(t - 7.0);
        ys.push_back(x);
      }
    }
    const Polynomial ls = FitPolynomialLeastSquares(xs, ys, k - 1).value();
    for (int t = 7; t <= 12; ++t) {
      EXPECT_NEAR(ex.ExtrapolatedValue(t).value(), ls.Evaluate(t - 7.0), 1e-6)
          << "history=" << k << " t=" << t;
    }
  }
}

TEST(ExtrapolatorTest, ExtrapolatedValueTracksTrend) {
  ExtrapolatorOptions options;
  options.history_points = 2;
  Extrapolator ex(options);
  EXPECT_FALSE(ex.ExtrapolatedValue(0).ok());
  ASSERT_TRUE(ex.AddObservation(0, 10.0).ok());
  // Bootstrapping: hold the last value.
  EXPECT_DOUBLE_EQ(ex.ExtrapolatedValue(5).value(), 10.0);
  ASSERT_TRUE(ex.AddObservation(1, 12.0).ok());
  EXPECT_NEAR(ex.ExtrapolatedValue(3).value(), 16.0, 1e-6);
}

TEST(ExtrapolatorTest, ResetForgetsHistory) {
  Extrapolator ex;
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(ex.AddObservation(t, 1.0 * t).ok());
  }
  EXPECT_TRUE(ex.Bootstrapped());
  ex.Reset();
  EXPECT_FALSE(ex.Bootstrapped());
  EXPECT_TRUE(ex.AddObservation(0, 5.0).ok());  // Ticks restart.
}

// Everything an extrapolator reports about its current window.
struct Readout {
  int64_t next = 0;
  int64_t next_from_reference = 0;
  double value_ahead = 0.0;

  bool operator==(const Readout&) const = default;
};

Readout Read(const Extrapolator& ex) {
  Readout r;
  r.next = ex.PredictNextSnapshotTime(0.5).value();
  r.next_from_reference = ex.PredictNextSnapshotTime(0.5, 3.0).value();
  r.value_ahead = ex.ExtrapolatedValue(r.next + 2).value();
  return r;
}

// A full PRED-3 window: k + 1 observations, as AddObservation keeps.
Extrapolator::State Window(double slope, double curve) {
  Extrapolator::State state;
  for (int t = 0; t < 4; ++t) {
    state.ticks.push_back(10 + t);
    state.values.push_back(slope * t + curve * t * t);
  }
  return state;
}

// The fit is kept per window: every call that changes the window must
// drop it, so an extrapolator that read window A and then moved to
// window B reports exactly what a fresh one on B reports.
TEST(ExtrapolatorTest, EveryWindowChangeDropsTheKeptFit) {
  ExtrapolatorOptions options;
  options.history_points = 3;
  const Extrapolator::State a = Window(0.2, 0.0);
  const Extrapolator::State b = Window(-0.05, 0.03);
  Extrapolator fresh_b(options);
  fresh_b.RestoreState(b);
  ASSERT_FALSE(Read(fresh_b) == Read([&] {
    Extrapolator fresh_a(options);
    fresh_a.RestoreState(a);
    return fresh_a;
  }()));

  // RestoreState.
  Extrapolator ex(options);
  ex.RestoreState(a);
  (void)Read(ex);
  ex.RestoreState(b);
  EXPECT_TRUE(Read(ex) == Read(fresh_b));

  // AddObservation: the same window reached by one more observation.
  Extrapolator grown(options);
  Extrapolator::State b_but_last = b;
  b_but_last.ticks.pop_back();
  b_but_last.values.pop_back();
  grown.RestoreState(b_but_last);
  (void)Read(grown);
  ASSERT_TRUE(grown.AddObservation(b.ticks.back(), b.values.back()).ok());
  EXPECT_TRUE(Read(grown) == Read(fresh_b));
  // A rejected observation leaves the window, and so the fit, as it was.
  EXPECT_FALSE(grown.AddObservation(b.ticks.back(), 100.0).ok());
  EXPECT_TRUE(Read(grown) == Read(fresh_b));

  // Reset: back to bootstrapping, then the same window rebuilt.
  Extrapolator reset(options);
  reset.RestoreState(a);
  (void)Read(reset);
  reset.Reset();
  EXPECT_FALSE(reset.ExtrapolatedValue(0).ok());
  for (size_t i = 0; i < b.ticks.size(); ++i) {
    ASSERT_TRUE(reset.AddObservation(b.ticks[i], b.values[i]).ok());
  }
  EXPECT_TRUE(Read(reset) == Read(fresh_b));
}

// Property: for a linear series the predicted gap scales inversely with
// the slope, across PRED-k depths.
class PredKLinearScaling : public ::testing::TestWithParam<size_t> {};

TEST_P(PredKLinearScaling, GapInverselyProportionalToSlope) {
  const size_t k = GetParam();
  ExtrapolatorOptions options;
  options.history_points = k;
  options.max_skip = 1000;
  Extrapolator ex(options);
  const double slope = 0.25;
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(ex.AddObservation(t, slope * t).ok());
  }
  const double delta = 6.0;
  Result<int64_t> next = ex.PredictNextSnapshotTime(delta);
  ASSERT_TRUE(next.ok());
  const int64_t gap = *next - 9;
  // Ideal gap is delta/slope = 24; the remainder bound can only shorten
  // it, and for exact linear data it is ~0 for k >= 2.
  EXPECT_GE(gap, 20);
  EXPECT_LE(gap, 25);
}

INSTANTIATE_TEST_SUITE_P(HistoryDepths, PredKLinearScaling,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace digest
