#ifndef CODES_BENCH_BENCH_COMMON_H_
#define CODES_BENCH_BENCH_COMMON_H_

// Shared helpers for the table-reproduction harnesses. Each bench binary
// regenerates one table/figure of the paper and prints it in a fixed-width
// layout; EXPERIMENTS.md records the paper-vs-measured comparison.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"

namespace codes::bench {

/// Writes the global MetricsRegistry snapshot (JSON, schema in DESIGN.md)
/// to the path given by a `--metrics-out=PATH` argument; a no-op when the
/// flag is absent. Call at the end of a bench main so campaigns can
/// harvest machine-readable per-stage breakdowns alongside the printed
/// tables. Returns false (after saying why) when the write failed.
inline bool WriteMetricsIfRequested(int argc, char** argv) {
  constexpr std::string_view kFlag = "--metrics-out=";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, kFlag.size()) != kFlag) continue;
    std::string path(arg.substr(kFlag.size()));
    Status written = MetricsRegistry::Global().Snapshot().WriteJsonFile(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return false;
    }
    std::fprintf(stderr, "metrics snapshot written to %s\n", path.c_str());
  }
  return true;
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

}  // namespace codes::bench

#endif  // CODES_BENCH_BENCH_COMMON_H_
