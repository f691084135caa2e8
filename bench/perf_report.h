#ifndef CODES_BENCH_PERF_REPORT_H_
#define CODES_BENCH_PERF_REPORT_H_

// Machine-readable benchmark snapshot (BENCH_latency.json): the numbers
// servebench cannot see — hot paths, storage, durability and the serving
// layers' overhead budgets. Request-level latency, throughput and EX live
// in servebench's BENCHMARK.json only. The schema contract (DESIGN.md
// section 13):
//
//  * the KEY SET is deterministic — two runs of the same binary on any
//    machine produce the same keys in the same order (std::map), only the
//    values move. codes_benchdiff hard-fails on any key-set drift, so a
//    metric rename is a reviewed schema change, not silent churn.
//  * `calibration_ops_per_sec` measures this machine's single-thread speed
//    on a fixed pinned workload (the reference LCS DP). codes_benchdiff
//    uses the committed/current calibration ratio to compare time metrics
//    across machines of different speeds.
//  * `noisy` lists metrics excluded from the regression gate (reported
//    only): tiny overhead deltas and machine-dependent absolute times.
//  * `profile` records quick vs full so CI never compares across query
//    budgets.
//
// Key suffixes carry the unit and the improvement direction for
// codes_benchdiff: `_us` time-like lower-better (calibration-normalized),
// `_speedup_x` raw higher-better, `_pct` raw lower-better. A gated key
// with any other suffix fails the gate.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "common/timer.h"
#include "text/similarity.h"

namespace codes::bench {

/// Collects named scalar metrics and writes them as deterministic-schema
/// JSON. Keys are emitted in sorted order; the field layout is fixed.
class PerfReport {
 public:
  PerfReport(std::string bench_name, std::string profile)
      : bench_name_(std::move(bench_name)), profile_(std::move(profile)) {}

  void SetCalibration(double ops_per_sec) { calibration_ = ops_per_sec; }

  /// A gated metric: codes_benchdiff fails the build when it regresses.
  void Add(const std::string& key, double value) { metrics_[key] = value; }

  /// A reported-only metric: listed in `noisy`, never gates.
  void AddNoisy(const std::string& key, double value) {
    metrics_[key] = value;
    noisy_.insert(key);
  }

  std::string ToJson() const {
    std::string out = "{\n";
    out += "  \"schema_version\": 1,\n";
    out += "  \"bench\": \"" + bench_name_ + "\",\n";
    out += "  \"profile\": \"" + profile_ + "\",\n";
    out += "  \"calibration_ops_per_sec\": " + Num(calibration_) + ",\n";
    out += "  \"noisy\": [";
    bool first = true;
    for (const auto& key : noisy_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + key + "\"";
    }
    out += "],\n  \"metrics\": {\n";
    first = true;
    for (const auto& [key, value] : metrics_) {
      if (!first) out += ",\n";
      first = false;
      out += "    \"" + key + "\": " + Num(value);
    }
    out += "\n  }\n}\n";
    return out;
  }

  /// Writes the report to the path given by `--json-out=PATH`; a no-op
  /// when the flag is absent. Returns false on I/O failure.
  bool WriteIfRequested(int argc, char** argv) const {
    constexpr std::string_view kFlag = "--json-out=";
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.substr(0, kFlag.size()) != kFlag) continue;
      std::string path(arg.substr(kFlag.size()));
      std::FILE* out = std::fopen(path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
      }
      std::string json = ToJson();
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
      std::fprintf(stderr, "bench report written to %s\n", path.c_str());
    }
    return true;
  }

 private:
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string bench_name_;
  std::string profile_;
  double calibration_ = 0.0;
  std::map<std::string, double> metrics_;
  std::set<std::string> noisy_;
};

/// True when `--quick` is among the arguments (the CI profile: smaller
/// query budgets, same sections, same JSON schema).
inline bool QuickRequested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") return true;
  }
  return false;
}

/// Single-thread machine-speed probe: iterations/sec of the pinned
/// reference LCS DP on a fixed input pair. The workload is deliberately
/// the *reference* implementation — it never changes with the code under
/// test (and ignores CODES_PERF_INJECT), so the committed/current ratio
/// isolates machine speed from code speed.
inline double CalibrateOpsPerSec() {
  std::string a, b;
  for (int i = 0; i < 160; ++i) {
    a += static_cast<char>('a' + (i * 7) % 17);
    b += static_cast<char>('a' + (i * 5) % 19);
  }
  // Warm once, then take the fastest of several timing windows: the
  // least-interrupted window is the best estimate of machine capability,
  // and the max is far more stable run-to-run than any single window
  // (scheduler noise only ever subtracts speed). The committed/current
  // ratio this feeds scales every normalized metric, so calibration
  // jitter would read as across-the-board regressions.
  (void)LongestCommonSubstringLengthReferenceDp(a, b);
  double best = 0.0;
  for (int window = 0; window < 5; ++window) {
    int iterations = 0;
    Timer timer;
    do {
      for (int i = 0; i < 8; ++i) {
        (void)LongestCommonSubstringLengthReferenceDp(a, b);
      }
      iterations += 8;
    } while (timer.ElapsedSeconds() < 0.1);
    best = std::max(best, iterations / timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace codes::bench

#endif  // CODES_BENCH_PERF_REPORT_H_
