#ifndef DIGEST_OBS_METRICS_H_
#define DIGEST_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>


namespace digest {
namespace obs {

/// Label set of a metric instance, e.g. {{"category", "walk_hop"}}.
/// Labels are sorted by key at registration so two call sites naming the
/// same labels in a different order address the same instrument.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotone counter (saturating at UINT64_MAX, matching MessageMeter's
/// overflow discipline).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    uint64_t sum = 0;
    value_ = __builtin_add_overflow(value_, n, &sum)
                 ? ~static_cast<uint64_t>(0)
                 : sum;
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-written numeric value (e.g. the running correlation estimate ρ̂).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive upper edges
/// of the finite buckets (must be strictly increasing); one implicit
/// overflow bucket catches everything above the last edge. Buckets are
/// fixed at registration so aggregation across runs is well-defined and
/// the exported form is byte-stable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; size = upper_bounds().size() + 1 (last =
  /// overflow).
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Bucket-interpolated estimate of the q-quantile (q clamped to
  /// [0, 1]). Deterministic pure function of the counts, so quantile
  /// readouts are byte-stable across runs. Edge semantics:
  ///   - empty histogram: 0.0;
  ///   - q = 0: the lower edge of the first non-empty bucket (0.0 for
  ///     bucket 0 when its upper edge is positive);
  ///   - q = 1: the upper edge of the last non-empty finite bucket;
  ///   - mass in the overflow bucket has no finite upper edge, so any
  ///     quantile landing there reports the last finite edge (a
  ///     conservative lower bound — choose bounds that cover the data).
  /// Within a bucket the estimate interpolates linearly, the usual
  /// fixed-bucket approximation.
  double Quantile(double q) const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// `count` bucket edges growing geometrically from `start` by `factor`
/// (RocksDB-statistics-style coverage of long-tailed distributions like
/// walk hop counts).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// `count` evenly spaced edges over [lo, hi] (e.g. acceptance rates).
std::vector<double> LinearBuckets(double lo, double hi, size_t count);

/// Named-metric registry: the process-wide (per experiment, in practice)
/// home of counters, gauges, and histograms. Instruments are created on
/// first Get* and live as long as the registry; returned pointers are
/// stable. Iteration and export order is deterministic (lexicographic in
/// the rendered key), so registry dumps are byte-reproducible.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  /// `upper_bounds` applies on first registration only; later callers
  /// get the existing instrument regardless of the bounds they pass.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          const LabelSet& labels = {});

  /// Canonical key of a (name, labels) pair: `name{k1=v1,k2=v2}` with
  /// keys sorted, or just `name` without labels.
  static std::string RenderKey(const std::string& name,
                               const LabelSet& labels);

  /// Deterministic (key-ordered) views, for exporters and tests.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms()
      const {
    return histograms_;
  }

  /// Sum convenience for tests: value of the counter registered under
  /// `key` (a RenderKey result), or 0 when absent.
  uint64_t CounterValue(const std::string& key) const;

  /// One JSON object covering every instrument, keys sorted. Stable
  /// formatting (%.17g doubles) so equal registries serialize equally.
  std::string ToJson() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace digest

#endif  // DIGEST_OBS_METRICS_H_
