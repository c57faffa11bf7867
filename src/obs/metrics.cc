#include "obs/metrics.h"

#include <algorithm>

#include "common/strings.h"

namespace digest {
namespace obs {
namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1, 0) {}

void Histogram::Observe(double v) {
  size_t bucket = upper_bounds_.size();  // Overflow bucket by default.
  for (size_t i = 0; i < upper_bounds_.size(); ++i) {
    if (v <= upper_bounds_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++count_;
  sum_ += v;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i == upper_bounds_.size()) {
      // Overflow bucket: unbounded above, nothing to interpolate.
      return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
    }
    const double hi = upper_bounds_[i];
    const double lo = i == 0 ? std::min(0.0, hi) : upper_bounds_[i - 1];
    double frac = (target - before) / static_cast<double>(counts_[i]);
    frac = std::min(1.0, std::max(0.0, frac));
    return lo + (hi - lo) * frac;
  }
  return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double edge = start;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(edge);
    edge *= factor;
  }
  return out;
}

std::vector<double> LinearBuckets(double lo, double hi, size_t count) {
  std::vector<double> out;
  out.reserve(count);
  if (count == 0) return out;
  const double step = count > 1 ? (hi - lo) / static_cast<double>(count - 1)
                                : 0.0;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  return out;
}

std::string Registry::RenderKey(const std::string& name,
                                const LabelSet& labels) {
  if (labels.empty()) return name;
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key.push_back('{');
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

Counter* Registry::GetCounter(const std::string& name,
                              const LabelSet& labels) {
  auto& slot = counters_[RenderKey(name, labels)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name, const LabelSet& labels) {
  auto& slot = gauges_[RenderKey(name, labels)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> upper_bounds,
                                  const LabelSet& labels) {
  auto& slot = histograms_[RenderKey(name, labels)];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

uint64_t Registry::CounterValue(const std::string& key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->value();
}

std::string Registry::ToJson() const {
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, key);
    out.push_back(':');
    out += std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, key);
    out.push_back(':');
    out += FormatDouble(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [key, hist] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, key);
    out += ":{\"bounds\":[";
    for (size_t i = 0; i < hist->upper_bounds().size(); ++i) {
      if (i > 0) out.push_back(',');
      out += FormatDouble(hist->upper_bounds()[i]);
    }
    out += "],\"counts\":[";
    for (size_t i = 0; i < hist->bucket_counts().size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(hist->bucket_counts()[i]);
    }
    out += "],\"count\":";
    out += std::to_string(hist->count());
    out += ",\"sum\":";
    out += FormatDouble(hist->sum());
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace digest
