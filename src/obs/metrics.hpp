// Thread-safe metrics registry: named counters, gauges and fixed-bucket
// histograms for campaign telemetry.
//
// Design constraints (this rides the fault-injection hot path):
//   * Counter::add is a relaxed fetch_add on one of a small number of
//     cache-line-sized stripes; threads are spread round-robin over the
//     stripes, so concurrent increments do not bounce a shared line.
//     value() sums the stripes -- reads are rare (snapshots, HUD frames),
//     writes are the hot path.
//   * Handles returned by the registry are stable for the registry's
//     lifetime; instrumentation sites resolve them once and keep raw
//     pointers. A null pointer is the disabled state, so the null-sink
//     fast path is a single predictable branch.
//   * Telemetry is observation-only: nothing in here feeds back into run
//     scheduling or RNG seeding, so enabling metrics cannot perturb the
//     campaign's results.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace propane::obs {

/// Stripes per counter. A small power of two: enough to keep a dozen
/// threads off each other's cache lines without bloating every counter.
inline constexpr std::size_t kCounterStripes = 16;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    stripes_[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all stripes. Relaxed reads: concurrent adds may or may not be
  /// visible, but every add is counted exactly once after the writers quiesce.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// Round-robin thread-to-stripe assignment, cached per thread.
  static std::size_t stripe_index() noexcept;

  std::array<Stripe, kCounterStripes> stripes_{};
};

/// Last-write-wins instantaneous value (queue depth, bytes on disk).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with `le` (less-or-equal) bucket semantics: a
/// value lands in the first bucket whose upper bound is >= the value; an
/// implicit +inf bucket catches the rest.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (+inf last).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value; +inf / -inf before the first one.
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Log-linear bucket bounds, three per decade: lowest, 2*lowest,
/// 5*lowest, 10*lowest, ... up to and including `highest`. Interpolating
/// inside such a bucket is off by at most the bucket's own width (at most
/// 2.5x its lower bound), where decade-wide buckets are off by up to 10x.
/// `lowest` must be positive and no larger than `highest`.
std::vector<double> one_two_five_bounds(double lowest, double highest);

/// Point-in-time copy of one histogram, with quantile estimation.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;   // finite bounds, ascending
  std::vector<std::uint64_t> counts;  // upper_bounds.size() + 1, +inf last
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Observed extremes; min > max (the defaults) means unknown.
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket holding the target rank; values beyond the last finite bound
  /// clamp to it. The estimate is then clamped to [min, max] when known, so
  /// it never leaves the observed range. Returns 0 for an empty histogram.
  double quantile(double q) const;

 private:
  /// The unclamped bucket-interpolated estimate.
  double bucket_quantile(double q) const;
};

/// Point-in-time copy of a whole registry. Maps keep the iteration order
/// deterministic, so serialised snapshots are stable for tests and diffs.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Thread-safe name -> metric registry. Lookup takes a mutex; it is meant
/// to run once per instrumentation site, not per event.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` only matters on first registration; later calls with
  /// the same name return the existing histogram unchanged.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Serialises a snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"h":{"count":N,"sum":S,"le":[...],"counts":[...],
///                       "p50":...,"p90":...,"p99":...}}}
/// Doubles use shortest round-trip formatting; non-finite values become
/// null (JSON has no inf/nan).
std::string metrics_snapshot_to_json(const MetricsSnapshot& snapshot);

}  // namespace propane::obs
