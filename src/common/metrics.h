#ifndef CODES_COMMON_METRICS_H_
#define CODES_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace codes {

/// Process-wide observability metrics: named counters, gauges, and
/// fixed-bucket latency histograms, collected in a global MetricsRegistry
/// and exported as a deterministic JSON snapshot.
///
/// Design constraints (these are serving-path objects):
///  * Hot-path updates never take a lock. Counters and histogram buckets
///    are sharded across cache lines and bumped with relaxed atomics, so
///    the 8-thread eval path does not serialize on a shared counter word.
///  * Registration (name -> object) happens once per site; instrument
///    sites cache the returned reference in a function-local static, so
///    the string lookup is off the steady-state path entirely.
///  * Objects live for the process lifetime and are never evicted;
///    Reset() zeroes values but keeps registrations, which is what lets
///    cached references survive between benchmark sections and tests.
///  * Reads (Value/Snapshot) are racy-but-atomic: they sum the shards
///    without stopping writers. Quiesce writers first when an exact
///    figure matters (every test and exporter in this repo does).

/// Number of cache-line-padded shards per counter/histogram. A power of
/// two so the shard pick compiles to a mask.
inline constexpr uint32_t kMetricShards = 16;

namespace internal {
/// One cache line per shard: concurrent increments from different threads
/// touch different lines instead of bouncing one.
struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> value{0};
};
/// Stable per-thread shard index in [0, kMetricShards).
uint32_t ThreadShard();
}  // namespace internal

/// A monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Sum over shards (racy-but-atomic snapshot).
  uint64_t Value() const;
  void Reset();

 private:
  internal::PaddedAtomic shards_[kMetricShards];
};

/// A last-write-wins signed value with relative adjustment (queue depths,
/// pool sizes). Unsharded: gauges are updated rarely compared to counters
/// and a reader needs one coherent value.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram over microseconds. Bucket k counts
/// observations with value < 2^k us (k in [0, kNumBuckets)); the last
/// bucket is the overflow. Exponential bounds keep the bucket pick at one
/// bit-scan and cover 1 us .. ~134 s, which spans every stage this
/// library times. Percentiles are bucket upper bounds — coarse by design
/// (a 2x-resolution latency figure), but order-independent and exactly
/// reproducible across thread counts, which the observability tests pin.
class Histogram {
 public:
  /// 2^27 us ~ 134 s before overflow.
  static constexpr int kNumBuckets = 28;

  /// Records one observation (values < 1 us clamp to the first bucket,
  /// negatives to 0).
  void Observe(double value_us);

  uint64_t TotalCount() const;
  /// Sum of observed values in integer microseconds.
  uint64_t SumUs() const;
  /// Upper bound (us) of the bucket containing the p-quantile
  /// (p in [0, 1]); 0 when empty.
  double PercentileUs(double p) const;
  /// Largest value observed, in us (0 when empty). Exact, not bucketed.
  uint64_t MaxUs() const;
  /// Per-bucket counts, summed over shards; size kNumBuckets.
  std::vector<uint64_t> BucketCounts() const;
  /// Upper bound of bucket `k` in us (the overflow bucket reports the
  /// largest finite bound).
  static uint64_t BucketUpperBoundUs(int k);

  void Reset();

 private:
  /// [shard][bucket] counts; shard-major so one thread's increments stay
  /// on its own lines.
  internal::PaddedAtomic counts_[kMetricShards][kNumBuckets];
  internal::PaddedAtomic sum_us_[kMetricShards];
  std::atomic<uint64_t> max_us_{0};
};

/// A point-in-time copy of every registered metric, in registration-name
/// order (std::map), so two snapshots of identical state render
/// identically.
struct MetricsSnapshot {
  struct HistogramData {
    uint64_t count = 0;
    uint64_t sum_us = 0;
    uint64_t max_us = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    /// (upper_bound_us, count) for non-empty buckets only.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Deterministic JSON rendering (the --metrics-out format; schema in
  /// DESIGN.md).
  std::string ToJson() const;

  /// The named counter's value; 0 when it was never registered.
  uint64_t CounterOr0(const std::string& name) const;

  /// Writes ToJson() plus a trailing newline to `path`, reporting open,
  /// write and close failures alike.
  Status WriteJsonFile(const std::string& path) const;

  /// One declared invariant evaluated against this snapshot.
  struct InvariantCheck {
    std::string invariant;  ///< MetricInvariant::ToString()
    uint64_t total = 0;     ///< value of the invariant's `total` counter
    uint64_t parts = 0;     ///< sum of its `parts` counters
    bool holds = false;
  };
  /// Evaluates every invariant declared on the global registry against
  /// this snapshot's counters (an absent counter reads 0), in invariant
  /// text order. Only meaningful for a snapshot of a quiesced registry.
  std::vector<InvariantCheck> CheckInvariants() const;
};

/// An accounting identity over counters that holds whenever the registry
/// is quiescent: `total` equals the sum of `parts` (or, with `at_most`,
/// bounds it from above). A part ending in ".*" stands for every counter
/// under that prefix. Declared where the counters are registered.
struct MetricInvariant {
  std::string total;
  std::vector<std::string> parts;
  bool at_most = false;

  /// "total == a + b" / "total >= family.*": the identity's name.
  std::string ToString() const;
};

/// The process-wide metric registry. Get* registers on first use and
/// returns the same object forever after; references are stable across
/// Reset().
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Declares an accounting identity that MetricsSnapshot::CheckInvariants
  /// evaluates. Call it next to the GetCounter calls of the counters it
  /// relates; redeclaring an identical invariant is a no-op.
  void DeclareInvariant(MetricInvariant invariant);
  /// Every declared invariant, keyed by its ToString().
  std::map<std::string, MetricInvariant> Invariants() const;

  /// Zeroes every value; registrations (and outstanding references)
  /// survive. Not safe concurrently with writers — quiesce first.
  void Reset();

  /// Global instrumentation switch (default on). When off, TraceSpans
  /// skip their clock reads and histogram writes; counter sites keep
  /// working (an increment is ~1 ns and gating it would cost as much).
  /// bench_latency measures the on-vs-off delta as the instrumentation
  /// overhead and enforces the <= 2% budget.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

 private:
  MetricsRegistry() = default;

  static std::atomic<bool> enabled_;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, MetricInvariant> invariants_;
};

}  // namespace codes

#endif  // CODES_COMMON_METRICS_H_
