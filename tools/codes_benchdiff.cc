// codes_benchdiff: the CI perf-regression gate.
//
//   codes_benchdiff <committed.json> <current.json>
//   codes_benchdiff --selftest
//
// Both inputs are PerfReport snapshots (bench/perf_report.h). The tool
// hard-fails (exit 1) on schema drift — bench/profile mismatch, any
// metric added or removed, noisy-allowlist drift, a gated metric whose
// suffix names no direction — and on any gated metric regressing by more
// than 15% after calibration normalization. Key suffixes carry unit and
// direction: _us time-like lower-better (scaled by the current/committed
// calibration ratio), _speedup_x raw higher-better, _pct raw
// lower-better. Metrics in the `noisy` allowlist are printed but never
// gate. Usage errors exit 2.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace {

constexpr double kMaxRegressPct = 15.0;

struct Report {
  std::string bench;
  std::string profile;
  double calibration = 0.0;
  std::set<std::string> noisy;
  std::map<std::string, double> metrics;
};

// Minimal parser for the flat PerfReport JSON: quoted keys, string/number
// scalars, one string array ("noisy"), one nested object ("metrics").
struct Parser {
  const std::string& s;
  size_t i = 0;
  bool ok = true;

  void Skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool Eat(char c) {
    Skip();
    if (i < s.size() && s[i] == c) { ++i; return true; }
    ok = false;
    return false;
  }
  std::string String() {
    Skip();
    std::string out;
    if (!Eat('"')) return out;
    while (i < s.size() && s[i] != '"') out += s[i++];
    Eat('"');
    return out;
  }
  double Number() {
    Skip();
    size_t end = 0;
    double v = 0.0;
    try {
      v = std::stod(s.substr(i), &end);
    } catch (...) {
      ok = false;
      return 0.0;
    }
    i += end;
    return v;
  }
};

bool ParseReport(const std::string& text, Report* out) {
  Parser p{text};
  if (!p.Eat('{')) return false;
  while (p.ok) {
    std::string key = p.String();
    p.Eat(':');
    if (key == "bench") {
      out->bench = p.String();
    } else if (key == "profile") {
      out->profile = p.String();
    } else if (key == "calibration_ops_per_sec") {
      out->calibration = p.Number();
    } else if (key == "schema_version") {
      (void)p.Number();
    } else if (key == "noisy") {
      p.Eat('[');
      p.Skip();
      while (p.ok && p.i < text.size() && text[p.i] != ']') {
        out->noisy.insert(p.String());
        p.Skip();
        if (p.i < text.size() && text[p.i] == ',') { ++p.i; p.Skip(); }
      }
      p.Eat(']');
    } else if (key == "metrics") {
      p.Eat('{');
      p.Skip();
      while (p.ok && p.i < text.size() && text[p.i] != '}') {
        std::string name = p.String();
        p.Eat(':');
        out->metrics[name] = p.Number();
        p.Skip();
        if (p.i < text.size() && text[p.i] == ',') { ++p.i; p.Skip(); }
      }
      p.Eat('}');
    } else {
      return false;  // unknown field: the schema is closed
    }
    p.Skip();
    if (p.i < text.size() && text[p.i] == ',') { ++p.i; continue; }
    break;
  }
  p.Eat('}');
  return p.ok && !out->bench.empty() && out->calibration > 0.0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class Direction { kLowerTime, kHigherRaw, kLowerRaw, kNone };

Direction Classify(const std::string& key) {
  if (EndsWith(key, "_speedup_x")) return Direction::kHigherRaw;
  if (EndsWith(key, "_pct")) return Direction::kLowerRaw;
  if (EndsWith(key, "_us")) return Direction::kLowerTime;
  return Direction::kNone;
}

int Compare(const Report& committed, const Report& current) {
  int failures = 0;
  if (committed.bench != current.bench ||
      committed.profile != current.profile) {
    std::fprintf(stderr, "FAIL: bench/profile mismatch (%s/%s vs %s/%s)\n",
                 committed.bench.c_str(), committed.profile.c_str(),
                 current.bench.c_str(), current.profile.c_str());
    return 1;
  }
  for (const auto& [key, _] : committed.metrics) {
    if (!current.metrics.count(key)) {
      std::fprintf(stderr, "FAIL: metric removed: %s\n", key.c_str());
      ++failures;
    }
  }
  for (const auto& [key, _] : current.metrics) {
    if (!committed.metrics.count(key)) {
      std::fprintf(stderr, "FAIL: metric added: %s\n", key.c_str());
      ++failures;
    }
  }
  if (committed.noisy != current.noisy) {
    std::fprintf(stderr, "FAIL: noisy allowlist drifted\n");
    ++failures;
  }
  // A gated key must say which way is better, or it would never gate.
  for (const auto& [key, _] : committed.metrics) {
    if (!committed.noisy.count(key) && Classify(key) == Direction::kNone) {
      std::fprintf(stderr, "FAIL: gated metric has no direction suffix: %s\n",
                   key.c_str());
      ++failures;
    }
  }
  if (failures > 0) return 1;

  // Machine-speed ratio: < 1 means the current machine is slower, so its
  // raw times shrink before comparison.
  const double ratio = current.calibration / committed.calibration;
  std::printf("calibration: committed %.0f ops/s, current %.0f ops/s "
              "(ratio %.3f)\n", committed.calibration, current.calibration,
              ratio);
  std::printf("%-34s %12s %12s %12s  %s\n", "metric", "committed", "current",
              "adjusted", "verdict");
  for (const auto& [key, base] : committed.metrics) {
    const double raw = current.metrics.at(key);
    const Direction dir = Classify(key);
    const double adjusted = dir == Direction::kLowerTime ? raw * ratio : raw;
    const bool noisy = committed.noisy.count(key) > 0;
    // A metric regresses only when BOTH the raw and the
    // calibration-adjusted values are past the threshold: a slower
    // machine is excused by adjustment, calibration jitter on an equal
    // machine is excused by the raw reading, and a genuine code slowdown
    // fails both.
    bool regressed = false;
    if (!noisy) {
      if (dir == Direction::kHigherRaw) {
        const double limit = base * (1.0 - kMaxRegressPct / 100.0);
        regressed = adjusted < limit && raw < limit;
      } else {
        const double limit = base * (1.0 + kMaxRegressPct / 100.0);
        regressed = adjusted > limit && raw > limit;
      }
    }
    const char* verdict = noisy ? "noisy" : (regressed ? "REGRESSED" : "ok");
    std::printf("%-34s %12.4g %12.4g %12.4g  %s\n", key.c_str(), base, raw,
                adjusted, verdict);
    if (regressed) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d metric(s) regressed more than %.0f%%\n",
                 failures, kMaxRegressPct);
    return 1;
  }
  std::printf("PASS: no gated metric regressed more than %.0f%%\n",
              kMaxRegressPct);
  return 0;
}

int SelfTest() {
  const std::string base =
      "{\"schema_version\": 1, \"bench\": \"latency\", \"profile\": "
      "\"quick\", \"calibration_ops_per_sec\": 1000, \"noisy\": "
      "[\"jitter_pct\"], \"metrics\": {\"hotpath_lcs_after_us\": 2.0, "
      "\"hotpath_lcs_speedup_x\": 4.0, \"jitter_pct\": 1.0}}";
  Report committed;
  if (!ParseReport(base, &committed)) return 1;

  // Same numbers on a machine measured 2x slower: times double,
  // dimensionless metrics hold — normalization must pass it.
  Report slower = committed;
  slower.calibration = 500;
  slower.metrics["hotpath_lcs_after_us"] = 4.0;
  slower.metrics["jitter_pct"] = 99.0;  // noisy: huge swing, still passes
  if (Compare(committed, slower) != 0) return 1;

  // A genuine 2x hot-path slowdown on the same machine must fail.
  Report slow = committed;
  slow.metrics["hotpath_lcs_after_us"] = 4.0;
  slow.metrics["hotpath_lcs_speedup_x"] = 2.0;
  if (Compare(committed, slow) != 1) return 1;

  // Schema drift (metric renamed) must fail.
  Report drifted = committed;
  drifted.metrics.erase("hotpath_lcs_after_us");
  drifted.metrics["hotpath_lcs_after_usec"] = 2.0;
  if (Compare(committed, drifted) != 1) return 1;

  // A gated key whose suffix names no direction must fail, even unchanged:
  // otherwise it would ride along without ever gating.
  Report undirected = committed;
  undirected.metrics["eval_queries_per_sec"] = 100;
  if (Compare(undirected, undirected) != 1) return 1;

  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") return SelfTest();
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: codes_benchdiff <committed.json> <current.json> "
                 "| --selftest\n");
    return 2;
  }
  Report committed;
  Report current;
  for (int i = 1; i <= 2; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    if (!ParseReport(buf.str(), i == 1 ? &committed : &current)) {
      std::fprintf(stderr, "cannot parse %s\n", argv[i]);
      return 2;
    }
  }
  return Compare(committed, current);
}
