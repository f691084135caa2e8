#ifndef CODES_TOOLS_CAMPAIGN_H_
#define CODES_TOOLS_CAMPAIGN_H_

// The harness the campaign tools (codes_load, codes_chaos, codes_crash,
// codes_fuzz) share, and the only copy of:
//   * ParseFlags      — a table-driven --name=VALUE parser over the strict
//                       codes::Parse* helpers; every usage error exits 2.
//   * CheckAndWrite   — evaluates the metric invariants declared at the
//                       counters' registration sites on the campaign's
//                       snapshot, then writes it for --metrics-out. The
//                       bench binaries export through it too
//                       (bench::CheckAndWriteMetrics).
//   * ReplaySelfcheck — the 1-vs-N thread replay: digests must match, and
//                       optionally the deterministic metrics view too.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/string_util.h"

namespace codes::campaign {

/// Accepted values of a numeric flag: [min, max], or (min, max] when
/// `open_min`.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool open_min = false;
};
constexpr Range AtLeast(double min) { return {min}; }
constexpr Range Above(double min) {
  return {min, std::numeric_limits<double>::infinity(), true};
}
constexpr Range Within(double min, double max) { return {min, max}; }

/// One row of a tool's flag table. A bool target is a switch (`--name`
/// sets it); every other target takes `--name=VALUE`.
struct Flag {
  const char* name;
  std::variant<bool*, int*, uint64_t*, double*, std::string*> target;
  const char* metavar = "";
  Range range = {};
};

/// "usage: tool [--a=N] [--b] ...", wrapped under the tool name.
inline void PrintUsage(const char* tool, std::span<const Flag> flags) {
  std::string text;
  std::string line = std::string("usage: ") + tool;
  const std::string indent(line.size(), ' ');
  for (const Flag& flag : flags) {
    std::string item = std::string(" [") + flag.name;
    if (!std::holds_alternative<bool*>(flag.target)) {
      item += std::string("=") + flag.metavar;
    }
    item += "]";
    if (line.size() + item.size() > 78) {
      text += line + "\n";
      line = indent;
    }
    line += item;
  }
  std::fprintf(stderr, "%s%s\n", text.c_str(), line.c_str());
}

[[noreturn]] inline void UsageError(const std::string& diagnostic,
                                    const char* tool,
                                    std::span<const Flag> flags) {
  std::fprintf(stderr, "%s\n", diagnostic.c_str());
  PrintUsage(tool, flags);
  std::exit(2);
}

/// Parses argv[1..] against `flags`. An unknown flag, a missing, spare or
/// malformed value, or a value outside the flag's range prints a
/// diagnostic naming the flag, then the usage, and exits 2. Returns the
/// names of the flags given, in argv order.
inline std::vector<std::string_view> ParseFlags(int argc, char** argv,
                                                const char* tool,
                                                std::span<const Flag> flags) {
  auto fail = [&](const std::string& diagnostic) {
    UsageError(diagnostic, tool, flags);
  };
  std::vector<std::string_view> given;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    std::string name(arg.substr(0, eq));
    auto it = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      return name == f.name;
    });
    if (it == flags.end()) fail("unknown flag: " + std::string(arg));
    given.push_back(it->name);
    if (bool* const* on = std::get_if<bool*>(&it->target)) {
      if (eq != std::string_view::npos) fail(name + " takes no value");
      **on = true;
      continue;
    }
    if (eq == std::string_view::npos) {
      fail(name + " requires a value (" + name + "=" + it->metavar + ")");
    }
    std::string_view value = arg.substr(eq + 1);
    if (std::string* const* text = std::get_if<std::string*>(&it->target)) {
      **text = std::string(value);
      continue;
    }
    bool ok = false;
    double number = 0.0;
    if (int* const* p = std::get_if<int*>(&it->target)) {
      ok = ParseInt(value, *p);
      number = **p;
    } else if (uint64_t* const* p = std::get_if<uint64_t*>(&it->target)) {
      ok = ParseUint64(value, *p);
      number = static_cast<double>(**p);
    } else if (double* const* p = std::get_if<double*>(&it->target)) {
      ok = ParseFiniteDouble(value, *p);
      number = **p;
    }
    if (!ok) fail("bad value for " + name + ": '" + std::string(value) + "'");
    const Range& r = it->range;
    bool above_min = r.open_min ? number > r.min : number >= r.min;
    if (above_min && number <= r.max) continue;
    char bound[96];
    if (r.max != std::numeric_limits<double>::infinity()) {
      std::snprintf(bound, sizeof(bound), "in [%g, %g]", r.min, r.max);
    } else {
      std::snprintf(bound, sizeof(bound), "%s %g", r.open_min ? ">" : ">=",
                    r.min);
    }
    fail(name + " must be " + bound);
  }
  return given;
}

/// Evaluates every declared metric invariant on `snapshot` — a
/// "metrics:" line per identity that holds, an "INVARIANT VIOLATION:"
/// line per broken one — then writes the snapshot to `path` when set.
/// Returns 0, 1 when an invariant is broken, or 2 when the write failed.
inline int CheckAndWrite(const MetricsSnapshot& snapshot,
                         const std::string& path) {
  int exit_code = 0;
  for (const MetricsSnapshot::InvariantCheck& c : snapshot.CheckInvariants()) {
    std::printf("%s %s (%" PRIu64 " vs %" PRIu64 ")\n",
                c.holds ? "metrics:" : "INVARIANT VIOLATION:",
                c.invariant.c_str(), c.total, c.parts);
    if (!c.holds) exit_code = 1;
  }
  if (path.empty()) return exit_code;
  Status written = snapshot.WriteJsonFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "metrics snapshot written to %s\n", path.c_str());
  return exit_code;
}

/// The registry view a 1-thread replay must reproduce: every counter and
/// gauge, plus the serve.* histograms (observed in virtual µs). Wall-clock
/// histograms (span.*, pool.task_wait_us) are real timings and excluded.
inline MetricsSnapshot DeterministicView(const MetricsSnapshot& s) {
  MetricsSnapshot out;
  out.counters = s.counters;
  out.gauges = s.gauges;
  for (const auto& [name, data] : s.histograms) {
    if (name.rfind("serve.", 0) == 0) out.histograms[name] = data;
  }
  return out;
}

/// The 1-vs-N determinism selfcheck. `replay` reruns the campaign on one
/// thread from the state the `threads`-thread run started in and returns
/// its digest. With `snapshot` set, the registry's deterministic view
/// after the replay must equal that of `snapshot` as well. Prints the
/// verdict; returns 0 on a match, 1 on a mismatch, 2 when the replay
/// could not run.
inline int ReplaySelfcheck(int threads, uint64_t digest,
                           const std::function<Result<uint64_t>()>& replay,
                           const MetricsSnapshot* snapshot = nullptr) {
  Result<uint64_t> serial = replay();
  if (!serial.ok()) {
    std::fprintf(stderr, "selfcheck replay failed to run: %s\n",
                 serial.status().ToString().c_str());
    return 2;
  }
  bool metrics_match =
      snapshot == nullptr ||
      DeterministicView(*snapshot).ToJson() ==
          DeterministicView(MetricsRegistry::Global().Snapshot()).ToJson();
  if (*serial == digest && metrics_match) {
    std::printf("selfcheck: 1-thread replay %s\n",
                snapshot != nullptr ? "digest and metrics match"
                                    : "digest matches");
    return 0;
  }
  std::printf("selfcheck FAILED: %d-thread digest %016" PRIx64
              " != 1-thread digest %016" PRIx64,
              threads, digest, *serial);
  if (snapshot != nullptr) {
    std::printf(" (metrics %s)", metrics_match ? "match" : "differ");
  }
  std::printf("\n");
  return 1;
}

}  // namespace codes::campaign

#endif  // CODES_TOOLS_CAMPAIGN_H_
