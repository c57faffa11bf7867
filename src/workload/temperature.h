#ifndef DIGEST_WORKLOAD_TEMPERATURE_H_
#define DIGEST_WORKLOAD_TEMPERATURE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "numeric/rng.h"
#include "workload/workload.h"

namespace digest {

/// Configuration of the synthetic TEMPERATURE workload. Defaults follow
/// Table II: 8000 sensor units spread over 530 stations, 18 months of
/// twice-a-day readings (1095 ticks of 12 h), stable membership, mesh
/// overlay; the value process is calibrated so the per-tuple lag-1
/// correlation ρ ≈ 0.89 and cross-sectional dispersion σ ≈ 8 °F.
struct TemperatureConfig {
  size_t num_units = 8000;
  size_t num_nodes = 530;
  size_t ticks = 1095;       ///< 18 months at 2 updates/day.
  uint64_t seed = 20080407;  ///< ICDE'08 vintage.

  // Value-process parameters (°F). A value is
  //   base_u + seasonal_u(t) + diurnal_u(t) + noise_u(t) + regional(t)
  // where regional(t) is an AR(1) weather front shared by every station
  // (it moves the area average X[t] — the paper's real data shows such
  // common movement — without affecting the cross-sectional σ).
  // Calibrated so the pooled lag-1 per-tuple correlation is ρ ≈ 0.89 and
  // the cross-sectional dispersion σ ≈ 8:
  //   σ² = 4.9² + 7²/2 + 3.0²/(1−0.62²) + 1² ≈ 64   (regional excluded)
  //   ρ  = (24 + 24.5 + 0.62·14.6 − 1 + 0.9·49) / (64 + 49) ≈ 0.89
  double base_mean = 62.0;       ///< Mean station climate.
  double base_stddev = 4.9;      ///< Cross-station climate spread.
  double seasonal_amplitude = 7.0;
  double seasonal_period = 730.0;  ///< One year in 12-h ticks.
  double diurnal_amplitude = 1.0;  ///< Day/night offset (aliased, period 2).
  double ar_coefficient = 0.62;    ///< AR(1) pull of the weather noise.
  double noise_stddev = 3.0;       ///< AR(1) innovation stddev.
  double regional_stddev = 7.0;    ///< Stationary sd of the shared front.
  double regional_ar = 0.9;        ///< Persistence of the shared front.
};

/// Builds the TEMPERATURE workload: a mesh overlay of floor(√num_nodes)
/// rows and ceil(num_nodes / rows) columns, which rounds num_nodes up to
/// a full rectangle (the default 530 stations make a 23 × 24 mesh of 552
/// peers), units assigned randomly over all its peers (so station
/// content sizes vary, exercising the nonuniform content-size weight),
/// one tuple per unit with a single `temperature` attribute, every tuple
/// updated every tick.
class TemperatureWorkload : public Workload {
 public:
  static Result<std::unique_ptr<TemperatureWorkload>> Create(
      TemperatureConfig config);

  Graph& graph() override { return graph_; }
  const Graph& graph() const override { return graph_; }
  P2PDatabase& db() override { return *db_; }
  const P2PDatabase& db() const override { return *db_; }
  Status Advance() override;
  int64_t now() const override { return now_; }
  const char* attribute() const override { return "temperature"; }

  const TemperatureConfig& config() const { return config_; }

 private:
  struct Unit {
    TupleRef ref;
    double base;          // Station climate level.
    double season_phase;  // Phase offset of the seasonal cycle.
    double diurnal_phase; // 0 or π: morning vs evening reading bias.
    double noise;         // Current AR(1) noise state.
  };

  explicit TemperatureWorkload(TemperatureConfig config)
      : config_(config), rng_(config.seed) {}

  double UnitValue(const Unit& unit, int64_t t) const;

  TemperatureConfig config_;
  Rng rng_;
  Graph graph_;
  std::unique_ptr<P2PDatabase> db_;
  std::vector<Unit> units_;
  double regional_ = 0.0;  // Current shared weather-front offset.
  int64_t now_ = 0;
};

}  // namespace digest

#endif  // DIGEST_WORKLOAD_TEMPERATURE_H_
