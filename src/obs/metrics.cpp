#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace propane::obs {

namespace {

/// Shortest round-trip formatting; JSON has no inf/nan, so those become
/// null. Integral doubles print without an exponent where possible.
void append_json_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

void append_json_uint(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

}  // namespace

std::size_t Counter::stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return index;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "histogram bounds must be strictly ascending");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // +inf when past end
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
  double low = min_.load(std::memory_order_relaxed);
  while (value < low && !min_.compare_exchange_weak(
                            low, value, std::memory_order_relaxed)) {
  }
  double high = max_.load(std::memory_order_relaxed);
  while (value > high && !max_.compare_exchange_weak(
                             high, value, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> one_two_five_bounds(double lowest, double highest) {
  if (!(lowest > 0.0) || !(highest >= lowest)) {
    throw std::invalid_argument(
        "one_two_five_bounds needs 0 < lowest <= highest");
  }
  std::vector<double> bounds;
  // Tolerate the rounding of decade * 10 against a highest given as a
  // literal (1e8 vs 1 * 10^8 computed in steps).
  const double limit = highest * (1.0 + 1e-12);
  for (double decade = lowest;; decade *= 10.0) {
    for (const double mantissa : {1.0, 2.0, 5.0}) {
      const double bound = mantissa * decade;
      if (bound > limit) return bounds;
      bounds.push_back(bound);
    }
  }
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  const double estimate = bucket_quantile(q);
  return min <= max ? std::clamp(estimate, min, max) : estimate;
}

double HistogramSnapshot::bucket_quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      if (i >= upper_bounds.size()) {
        // +inf bucket: the best point estimate is the last finite bound.
        return upper_bounds.empty() ? 0.0 : upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double upper = upper_bounds[i];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.upper_bounds = histogram->upper_bounds();
    h.counts = histogram->bucket_counts();
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

std::string metrics_snapshot_to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;  // metric names are identifier-like; no escaping needed
    out += "\":";
    append_json_uint(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_json_double(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"count\":";
    append_json_uint(out, h.count);
    out += ",\"sum\":";
    append_json_double(out, h.sum);
    out += ",\"le\":[";
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      if (i > 0) out += ',';
      append_json_double(out, h.upper_bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ',';
      append_json_uint(out, h.counts[i]);
    }
    out += "],\"p50\":";
    append_json_double(out, h.quantile(0.50));
    out += ",\"p90\":";
    append_json_double(out, h.quantile(0.90));
    out += ",\"p99\":";
    append_json_double(out, h.quantile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace propane::obs
