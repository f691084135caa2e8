#ifndef CODES_BENCH_BENCH_COMMON_H_
#define CODES_BENCH_BENCH_COMMON_H_

// Shared helpers for the table-reproduction harnesses. Each bench binary
// regenerates one table/figure of the paper and prints it in a fixed-width
// layout; EXPERIMENTS.md records the paper-vs-measured comparison. The
// timing kit (AbTimer, ServeRequests, WarmRetrievers) is the one way the
// benches time a before/after pair, issue a request stream and warm the
// per-database caches.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "dataset/sample.h"
#include "tools/campaign.h"

namespace codes::bench {

/// Exports the global MetricsRegistry snapshot (JSON, schema in DESIGN.md)
/// to the path given by a `--metrics-out=PATH` argument through
/// campaign::CheckAndWrite, the one checked writer: the declared metric
/// invariants are evaluated first, one `metrics:` line each. A no-op when
/// the flag is absent. Call at the end of a bench main and return its
/// result: 0, 1 when an invariant is broken, 2 when the write failed.
inline int CheckAndWriteMetrics(int argc, char** argv) {
  constexpr std::string_view kFlag = "--metrics-out=";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, kFlag.size()) != kFlag) continue;
    return campaign::CheckAndWrite(MetricsRegistry::Global().Snapshot(),
                                   std::string(arg.substr(kFlag.size())));
  }
  return 0;
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::string cell = cells[i];
      int width = widths_[i];
      if (static_cast<int>(cell.size()) > width) cell.resize(width);
      line += cell;
      line.append(static_cast<size_t>(width - static_cast<int>(cell.size())),
                  ' ');
      line += "  ";
    }
    std::printf("%s\n", line.c_str());
  }

  void Separator() const {
    size_t total = 0;
    for (int w : widths_) total += static_cast<size_t>(w) + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string Pct(double value) { return FormatDouble(value, 1); }
inline std::string Pct2(double value) { return FormatDouble(value, 2); }

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Fastest wall-clock seconds of each side of one A/B comparison.
struct AbTiming {
  double a = 0.0;
  double b = 0.0;
};

/// The one before/after timing procedure of the benches (DESIGN.md
/// section 13). Each side runs once untimed to warm caches; then kReps
/// timed repetitions alternate which side goes first, so slow drift
/// cannot systematically favor one side, and the fastest run of each side
/// is kept — ambient noise only ever adds time.
struct AbTimer {
  static constexpr int kReps = 5;

  template <typename RunA, typename RunB>
  static AbTiming Run(RunA&& run_a, RunB&& run_b) {
    run_a();
    run_b();
    AbTiming best{Seconds(run_a), Seconds(run_b)};
    for (int rep = 1; rep < kReps; ++rep) {
      if (rep % 2 == 1) {
        best.b = std::min(best.b, Seconds(run_b));
        best.a = std::min(best.a, Seconds(run_a));
      } else {
        best.a = std::min(best.a, Seconds(run_a));
        best.b = std::min(best.b, Seconds(run_b));
      }
    }
    return best;
  }

 private:
  template <typename Run>
  static double Seconds(Run& run) {
    Timer timer;
    run();
    return timer.ElapsedSeconds();
  }
};

/// Issues `queries` requests, cycling through the dev set in order:
/// `serve(sample)` once per request.
template <typename Serve>
void ServeRequests(const Text2SqlBenchmark& bench, int queries,
                   Serve&& serve) {
  int n = 0;
  while (n < queries) {
    for (const auto& sample : bench.dev) {
      if (n >= queries) break;
      serve(sample);
      ++n;
    }
  }
}

/// Builds the cached value retriever of every distinct dev database once,
/// so timed sections measure inference, not index construction.
inline void WarmRetrievers(const CodesPipeline& pipeline,
                           const Text2SqlBenchmark& bench) {
  std::set<int> warmed;
  for (const auto& sample : bench.dev) {
    if (warmed.insert(sample.db_index).second) {
      (void)pipeline.RetrieverFor(bench.DbOf(sample));
    }
  }
}

}  // namespace codes::bench

#endif  // CODES_BENCH_BENCH_COMMON_H_
