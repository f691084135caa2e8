#include "common/metrics.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace codes {

namespace internal {

uint32_t ThreadShard() {
  // A process-wide ticket handed out once per thread spreads threads
  // evenly over the shards (hashing std::thread::id clumps badly on
  // glibc, where ids are pthread_t addresses sharing alignment bits).
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Bucket index for a value in integer microseconds: the smallest k with
/// us < 2^k, i.e. bit_width(us), clamped to the overflow bucket.
int BucketIndex(uint64_t us) {
  int width = 0;
  while (us > 0) {
    us >>= 1;
    ++width;
  }
  return std::min(width, Histogram::kNumBuckets - 1);
}

}  // namespace

void Histogram::Observe(double value_us) {
  uint64_t us = value_us <= 0.0 ? 0 : static_cast<uint64_t>(value_us);
  uint32_t shard = internal::ThreadShard();
  counts_[shard][BucketIndex(us)].value.fetch_add(1,
                                                  std::memory_order_relaxed);
  sum_us_[shard].value.fetch_add(us, std::memory_order_relaxed);
  uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& shard : counts_) {
    for (const auto& bucket : shard) {
      total += bucket.value.load(std::memory_order_relaxed);
    }
  }
  return total;
}

uint64_t Histogram::SumUs() const {
  uint64_t total = 0;
  for (const auto& shard : sum_us_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::MaxUs() const {
  return max_us_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(kNumBuckets, 0);
  for (const auto& shard : counts_) {
    for (int k = 0; k < kNumBuckets; ++k) {
      out[static_cast<size_t>(k)] +=
          shard[k].value.load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::BucketUpperBoundUs(int k) {
  if (k >= kNumBuckets - 1) k = kNumBuckets - 1;
  if (k < 0) k = 0;
  return uint64_t{1} << k;
}

double Histogram::PercentileUs(double p) const {
  auto buckets = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 1.0);
  // Rank of the p-quantile observation, 1-based, ceiling — matches the
  // nearest-rank definition so p=1.0 lands in the last non-empty bucket.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int k = 0; k < kNumBuckets; ++k) {
    seen += buckets[static_cast<size_t>(k)];
    if (seen >= rank) return static_cast<double>(BucketUpperBoundUs(k));
  }
  return static_cast<double>(BucketUpperBoundUs(kNumBuckets - 1));
}

void Histogram::Reset() {
  for (auto& shard : counts_) {
    for (auto& bucket : shard) {
      bucket.value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& shard : sum_us_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
  max_us_.store(0, std::memory_order_relaxed);
}

std::atomic<bool> MetricsRegistry::enabled_{true};

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

namespace {

/// Shared-lock lookup, exclusive insert on miss. The returned reference
/// is stable: values are heap-allocated and never erased.
template <typename Map>
typename Map::mapped_type::element_type& GetOrCreate(std::shared_mutex& mu,
                                                     Map& map,
                                                     std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu);
  auto [it, inserted] = map.try_emplace(
      std::string(name),
      std::make_unique<typename Map::mapped_type::element_type>());
  return *it->second;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// %g with enough digits for microsecond figures; avoids locale commas.
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(mu_, counters_, name);
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(mu_, gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  return GetOrCreate(mu_, histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramData data;
    auto buckets = hist->BucketCounts();
    for (int k = 0; k < Histogram::kNumBuckets; ++k) {
      uint64_t c = buckets[static_cast<size_t>(k)];
      if (c == 0) continue;
      data.count += c;
      data.buckets.emplace_back(Histogram::BucketUpperBoundUs(k), c);
    }
    data.sum_us = hist->SumUs();
    data.max_us = hist->MaxUs();
    data.p50_us = hist->PercentileUs(0.50);
    data.p95_us = hist->PercentileUs(0.95);
    data.p99_us = hist->PercentileUs(0.99);
    snapshot.histograms[name] = std::move(data);
  }
  return snapshot;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum_us\": " + std::to_string(h.sum_us);
    out += ", \"max_us\": " + std::to_string(h.max_us);
    out += ", \"p50_us\": " + JsonNumber(h.p50_us);
    out += ", \"p95_us\": " + JsonNumber(h.p95_us);
    out += ", \"p99_us\": " + JsonNumber(h.p99_us);
    out += ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[" + std::to_string(h.buckets[i].first) + ", " +
             std::to_string(h.buckets[i].second) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

uint64_t MetricsSnapshot::CounterOr0(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Status MetricsSnapshot::WriteJsonFile(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string json = ToJson() + "\n";
  bool written = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  // fclose flushes the buffered tail, so it can fail where fwrite did not.
  bool closed = std::fclose(out) == 0;
  if (!written || !closed) {
    return Status::Internal("cannot write " + path + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

std::string MetricInvariant::ToString() const {
  std::string out = total + (at_most ? " >= " : " == ");
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " + ";
    out += parts[i];
  }
  return out;
}

namespace {

/// Whether `counter` is named by `part`: equal, or under a ".*" prefix.
bool PartMatches(std::string_view part, std::string_view counter) {
  if (part.size() >= 2 && part.substr(part.size() - 2) == ".*") {
    part.remove_suffix(1);  // keep the dot
    return counter.substr(0, part.size()) == part;
  }
  return counter == part;
}

}  // namespace

void MetricsRegistry::DeclareInvariant(MetricInvariant invariant) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string key = invariant.ToString();
  invariants_.try_emplace(std::move(key), std::move(invariant));
}

std::map<std::string, MetricInvariant> MetricsRegistry::Invariants() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return invariants_;
}

std::vector<MetricsSnapshot::InvariantCheck> MetricsSnapshot::CheckInvariants()
    const {
  std::vector<InvariantCheck> checks;
  for (const auto& [text, invariant] : MetricsRegistry::Global().Invariants()) {
    InvariantCheck check;
    check.invariant = text;
    check.total = CounterOr0(invariant.total);
    for (const auto& [name, value] : counters) {
      for (const std::string& part : invariant.parts) {
        if (PartMatches(part, name)) check.parts += value;
      }
    }
    check.holds = invariant.at_most ? check.parts <= check.total
                                    : check.parts == check.total;
    checks.push_back(std::move(check));
  }
  return checks;
}

void MetricsRegistry::Reset() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace codes
