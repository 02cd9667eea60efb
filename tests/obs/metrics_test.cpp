// MetricsRegistry: concurrent counter sums, histogram bucket boundaries,
// quantile estimation and the JSON snapshot format.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace propane::obs {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same");
  registry.counter("other").add(7);  // force more registry churn
  Counter& b = registry.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {1.0, 2.0});
  // `le` semantics: a value equal to a bound lands in that bound's bucket.
  for (const double v : {0.5, 1.0, 1.5, 2.0, 2.5}) histogram.observe(v);
  const std::vector<std::uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);  // two finite bounds + inf
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);      // 2.5
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 7.5);
}

TEST(Histogram, RejectsInvalidBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("unsorted", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("duplicate", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Histogram, SameNameMustKeepSameBounds) {
  MetricsRegistry registry;
  Histogram& first = registry.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&registry.histogram("h", {1.0, 2.0}), &first);
}

TEST(Histogram, ConcurrentObservationsKeepExactCountAndSum) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("conc", {10.0, 100.0});
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Integer-valued observations keep the double sum exact regardless
      // of addition order.
      for (std::uint64_t i = 0; i < kPerThread; ++i) histogram.observe(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(histogram.sum(),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(histogram.bucket_counts()[0], kThreads * kPerThread);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("q", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) histogram.observe(5.0);   // le 10
  for (int i = 0; i < 10; ++i) histogram.observe(15.0);  // le 20
  const HistogramSnapshot snap = registry.snapshot().histograms.at("q");
  // Median rank sits at the boundary between the two buckets.
  EXPECT_NEAR(snap.quantile(0.5), 10.0, 1.0);
  // 75th percentile interpolates inside (10, 20].
  EXPECT_GT(snap.quantile(0.75), 10.0);
  EXPECT_LE(snap.quantile(0.75), 20.0);
  // The top rank clamps to the largest observation, not the bucket bound.
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 15.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesStayWithinObservedRange) {
  MetricsRegistry registry;
  // One value inside a wide bucket: interpolation alone would report up to
  // the bucket's upper bound (p99 = 9.91).
  registry.histogram("one", {1.0, 10.0, 100.0}).observe(3.0);
  // Values past the last finite bound: the +inf bucket alone would report
  // that bound, below every observation.
  Histogram& tail = registry.histogram("tail", {1.0, 10.0});
  tail.observe(40.0);
  tail.observe(70.0);
  const MetricsSnapshot snap = registry.snapshot();
  const std::map<std::string, std::pair<double, double>> observed = {
      {"one", {3.0, 3.0}}, {"tail", {40.0, 70.0}}};
  for (const auto& [name, range] : observed) {
    SCOPED_TRACE(name);
    const HistogramSnapshot& h = snap.histograms.at(name);
    EXPECT_DOUBLE_EQ(h.min, range.first);
    EXPECT_DOUBLE_EQ(h.max, range.second);
    for (int i = 0; i <= 100; ++i) {
      const double q = h.quantile(i / 100.0);
      EXPECT_GE(q, range.first) << "q=" << i;
      EXPECT_LE(q, range.second) << "q=" << i;
    }
  }
}

TEST(Histogram, OneTwoFiveBoundsStepThroughEveryDecade) {
  EXPECT_EQ(one_two_five_bounds(1, 1000),
            (std::vector<double>{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}));
  const std::vector<double> wide = one_two_five_bounds(1, 1e8);
  EXPECT_EQ(wide.size(), 25u);
  EXPECT_DOUBLE_EQ(wide.back(), 1e8);
  EXPECT_EQ(one_two_five_bounds(10, 40), (std::vector<double>{10, 20}));
  EXPECT_THROW(one_two_five_bounds(0, 10), std::invalid_argument);
  EXPECT_THROW(one_two_five_bounds(10, 1), std::invalid_argument);
}

// A two-mode latency distribution like a settle-then-pack campaign's
// batches: 60% short (40-60 us), 40% long (5-9 ms). With 1-2-5 bounds the
// estimated p50 and p90 land within one bucket of the exact quantiles.
TEST(Histogram, OneTwoFiveQuantilesLandWithinOneBucketOfExact) {
  MetricsRegistry registry;
  const std::vector<double> bounds = one_two_five_bounds(1, 1e8);
  Histogram& histogram = registry.histogram("lat", bounds);
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) values.push_back(40.0 + i * 20.0 / 600.0);
  for (int i = 0; i < 400; ++i) values.push_back(5000.0 + i * 10.0);
  for (const double v : values) histogram.observe(v);
  const HistogramSnapshot snap = registry.snapshot().histograms.at("lat");

  const auto bucket = [&bounds](double v) {
    return std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin();
  };
  for (const double q : {0.5, 0.9}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    // Nearest-rank exact quantile of the sorted sample.
    const double exact =
        values[static_cast<std::size_t>(q * values.size()) - 1];
    const double estimate = snap.quantile(q);
    EXPECT_LE(std::abs(bucket(estimate) - bucket(exact)), 1)
        << "exact " << exact << ", estimate " << estimate;
  }
}

TEST(Snapshot, JsonIsDeterministicAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(1);
  registry.gauge("depth").set(3.0);
  registry.histogram("lat", {1.0}).observe(0.5);
  const std::string json = metrics_snapshot_to_json(registry.snapshot());
  // Map-ordered: "a.count" serialises before "b.count".
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json, metrics_snapshot_to_json(registry.snapshot()));
}

}  // namespace
}  // namespace propane::obs
