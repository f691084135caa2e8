#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace codes {
namespace {

// Every test uses metric names under "test." and resets the registry up
// front: the registry is process-global and other suites (thread pool,
// pipeline) feed it too.

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(MetricsTest, CounterConcurrentIncrementsSumExactly) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge.Set(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST_F(MetricsTest, HistogramBucketizationAndPercentiles) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test.hist");
  // Bucket k counts values < 2^k us: 0.5 -> bucket 0, 3 -> bucket 2,
  // 100 -> bucket 7, 100000 -> bucket 17.
  hist.Observe(0.5);
  hist.Observe(3.0);
  hist.Observe(100.0);
  hist.Observe(100000.0);
  EXPECT_EQ(hist.TotalCount(), 4u);
  EXPECT_EQ(hist.MaxUs(), 100000u);
  std::vector<uint64_t> buckets = hist.BucketCounts();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[7], 1u);
  EXPECT_EQ(buckets[17], 1u);
  // Nearest-rank percentiles report the containing bucket's upper bound:
  // p50 covers ranks 1-2 (bucket 2 -> 4 us), p99 lands on the last
  // observation (bucket 17 -> 131072 us).
  EXPECT_DOUBLE_EQ(hist.PercentileUs(0.50), 4.0);
  EXPECT_DOUBLE_EQ(hist.PercentileUs(0.99), 131072.0);
  EXPECT_DOUBLE_EQ(hist.PercentileUs(0.0), 1.0);  // rank clamps to 1
}

TEST_F(MetricsTest, HistogramEmptyAndNegativeObservations) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test.hist_edge");
  EXPECT_EQ(hist.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(hist.PercentileUs(0.5), 0.0);
  hist.Observe(-10.0);  // clamps to 0 -> first bucket
  EXPECT_EQ(hist.TotalCount(), 1u);
  EXPECT_EQ(hist.BucketCounts()[0], 1u);
  EXPECT_EQ(hist.SumUs(), 0u);
}

/// The observability layer's order-independence contract: the same logical
/// workload run on 1 thread and on 8 threads must produce identical
/// counter totals and identical histogram bucket counts, because every
/// update is a commutative increment keyed only on the work item.
TEST_F(MetricsTest, CountersAndBucketsIdenticalAcrossThreadCounts) {
  constexpr size_t kItems = 20000;
  auto run_workload = [](int threads) {
    Counter& counter =
        MetricsRegistry::Global().GetCounter("test.order_independent.count");
    Histogram& hist =
        MetricsRegistry::Global().GetHistogram("test.order_independent.us");
    ThreadPool pool(threads);
    pool.ParallelFor(kItems, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        // Deterministic synthetic observations (a function of the item
        // index, never of the clock or the thread), so the two runs are
        // logically identical.
        counter.Increment(i % 3 + 1);
        hist.Observe(static_cast<double>((i * 2654435761u) % 1000000u));
      }
    });
  };

  run_workload(1);
  MetricsSnapshot serial = MetricsRegistry::Global().Snapshot();

  MetricsRegistry::Global().Reset();
  run_workload(8);
  MetricsSnapshot parallel = MetricsRegistry::Global().Snapshot();

  uint64_t serial_count =
      serial.counters.at("test.order_independent.count");
  EXPECT_GT(serial_count, 0u);
  EXPECT_EQ(serial_count,
            parallel.counters.at("test.order_independent.count"));

  const auto& serial_hist =
      serial.histograms.at("test.order_independent.us");
  const auto& parallel_hist =
      parallel.histograms.at("test.order_independent.us");
  EXPECT_EQ(serial_hist.count, kItems);
  EXPECT_EQ(serial_hist.count, parallel_hist.count);
  EXPECT_EQ(serial_hist.sum_us, parallel_hist.sum_us);
  EXPECT_EQ(serial_hist.max_us, parallel_hist.max_us);
  EXPECT_EQ(serial_hist.buckets, parallel_hist.buckets);
  EXPECT_DOUBLE_EQ(serial_hist.p50_us, parallel_hist.p50_us);
  EXPECT_DOUBLE_EQ(serial_hist.p95_us, parallel_hist.p95_us);
  EXPECT_DOUBLE_EQ(serial_hist.p99_us, parallel_hist.p99_us);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsReferences) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.reset");
  counter.Increment(7);
  EXPECT_EQ(counter.Value(), 7u);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(counter.Value(), 0u);
  // The cached reference survives and keeps feeding the same metric.
  counter.Increment(2);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.reset").Value(), 2u);
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("test.reset"), &counter);
}

TEST_F(MetricsTest, SnapshotJsonRendersAllFamilies) {
  MetricsRegistry::Global().GetCounter("test.json_counter").Increment(3);
  MetricsRegistry::Global().GetGauge("test.json_gauge").Set(-4);
  MetricsRegistry::Global().GetHistogram("test.json_hist").Observe(10.0);
  std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json_gauge\": -4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  // Two snapshots of the same state must render byte-identically.
  EXPECT_EQ(json, MetricsRegistry::Global().Snapshot().ToJson());
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(TraceTest, SpanFeedsNamedHistogram) {
  {
    CODES_TRACE_SPAN(span, "test.trace_feed");
  }
  Histogram& hist =
      MetricsRegistry::Global().GetHistogram("span.test.trace_feed");
  EXPECT_EQ(hist.TotalCount(), 1u);
  {
    CODES_TRACE_SPAN(span, "test.trace_feed");
  }
  EXPECT_EQ(hist.TotalCount(), 2u);
}

TEST_F(TraceTest, DisabledRegistrySkipsHistogram) {
  MetricsRegistry::SetEnabled(false);
  {
    CODES_TRACE_SPAN(span, "test.trace_disabled");
  }
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("span.test.trace_disabled")
                .TotalCount(),
            0u);
}

}  // namespace
}  // namespace codes
