// Wall-clock serving benchmark for the CodeS text-to-SQL pipeline.
//
//   servebench --workload <spider_sft|bird_icl_ek> --seed N --seconds S
//              --trace <0|1> [--spans-out PATH]
//
// Drives the public serving API from outside the program, times each
// request on the wall clock and scores every served SQL against gold with
// ExecutionMatch. --trace 0 runs the closed loops through
// CodesPipeline::PredictGuarded and prints the end-to-end metrics; --trace 1
// runs the separate traced run, which times the calls into each layer and
// sends the workload through serve::ServeFrontEnd::TryServeAsync. Per-phase
// lines go to stdout first; the last stdout line is one JSON object.
// README.md in this directory documents the workloads and every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "eval/metrics.h"
#include "serve/front_end.h"
#include "serve/harden.h"
#include "sqlengine/executor.h"

namespace codes {
namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

/// Seed documented for later gain claims; no tuning run may use it.
constexpr uint64_t kHeldOutSeed = 90210;

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 5;

/// Each end-to-end phase is measured in this many slices, alternating with
/// the run's other phase.
constexpr int kRounds = 5;

/// A percentile is reported only with at least this many samples beyond it.
constexpr size_t kMinBeyond = 10;

/// The traced layer calls must sum to within this share of the timed
/// PredictGuarded call (checked by test_servebench.py).
constexpr double kCoverageTolerancePct = 10.0;

/// One workload: which deployment it builds, and the front-end settings of
/// the traced run's serving segment. Rates are fixed absolute values (not
/// derived from a measured capacity), so a faster program shows up as lower
/// latency and more admitted requests at the same offered load. On a 4-core
/// x86 box (3 workers) they sit near a third and twice capacity.
struct Workload {
  const char* name;
  bool bird;          ///< BIRD-like data, 3-shot ICL with external knowledge
  double steady_rps;  ///< serving segment, phase "steady"
  double overload_rps;
  double deadline_ms;  ///< latency limit and front-end deadline
  double rate_limit_rps;  ///< front-end token bucket
  size_t queue_capacity;  ///< front-end backlog bound
};

constexpr Workload kWorkloads[] = {
    {"spider_sft", false, 200, 1400, 50, 900, 16},
    {"bird_icl_ek", true, 50, 280, 250, 180, 16},
};

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    ++i;
    uint64_t n = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(value)) args->workload = &w;
      }
      if (args->workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return false;
      }
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 120) {
      args->seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      args->trace = n == 1;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload == nullptr || !have_seed || args->seconds == 0) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n");
    return false;
  }
  return true;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// Set-up

struct SetupTimes {
  double data_s = 0, lm_s = 0, classifier_s = 0, model_s = 0, warm_s = 0;
  double total_s = 0;
};

/// A built deployment. Member order matters: the pipeline points into the
/// LM zoo and is destroyed first.
struct Deployment {
  Text2SqlBenchmark bench;
  std::unique_ptr<LmZoo> zoo;
  std::unique_ptr<CodesPipeline> pipeline;
  /// The distinct requests of the workload: the dev questions.
  std::vector<const Text2SqlSample*> requests;
};

template <typename F>
double TimeSeconds(F&& f) {
  int64_t start = NowNs();
  f();
  return SecondsSince(start);
}

std::unique_ptr<Deployment> SetUp(const Workload& w, SetupTimes* t) {
  auto d = std::make_unique<Deployment>();
  // The databases and questions come from the presets' fixed seeds (the
  // datasets every bench_* table uses); the run seed drives what the
  // program is sent: request order, and in the traced run the arrivals and
  // generation seeds. Seeding the
  // data too made the across-seed spread of ex_pct, latency and throughput
  // wider than any bound the benchmark could hold.
  t->data_s = TimeSeconds([&] {
    d->bench = w.bird ? BuildBirdLike() : BuildSpiderLike();
  });
  t->lm_s = TimeSeconds([&] { d->zoo = std::make_unique<LmZoo>(); });

  PipelineConfig config;
  config.size = ModelSize::k7B;
  if (w.bird) {
    config.icl_shots = 3;
    config.prompt.top_k1 = 5;
    config.prompt.top_k2 = 6;
    config.use_external_knowledge = true;
  }
  d->pipeline =
      std::make_unique<CodesPipeline>(config, d->zoo->CodesFor(config.size));

  t->classifier_s = TimeSeconds([&] { d->pipeline->TrainClassifier(d->bench); });
  t->model_s = TimeSeconds([&] {
    if (w.bird) {
      d->pipeline->SetDemonstrationPool(d->bench.train);
    } else {
      d->pipeline->FineTune(d->bench);
    }
  });

  for (const Text2SqlSample& s : d->bench.dev) d->requests.push_back(&s);

  // Warm the value-retriever cache for every database the requests touch.
  t->warm_s = TimeSeconds([&] {
    for (const Text2SqlSample* s : d->requests) {
      d->pipeline->RetrieverFor(d->bench.DbOf(*s));
    }
  });
  t->total_s = t->data_s + t->lm_s + t->classifier_s + t->model_s + t->warm_s;
  return d;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sets up kSetupRepeats times, keeps the last deployment, and returns the
/// median of each set-up time (the total too, so setup_s is the median of
/// whole set-ups, not a sum of medians).
std::unique_ptr<Deployment> SetUpRepeated(const Workload& w,
                                          SetupTimes* median) {
  std::vector<SetupTimes> runs(kSetupRepeats);
  std::unique_ptr<Deployment> d;
  for (SetupTimes& t : runs) {
    d.reset();  // never hold two deployments at once
    d = SetUp(w, &t);
  }
  for (double SetupTimes::*field :
       {&SetupTimes::data_s, &SetupTimes::lm_s, &SetupTimes::classifier_s,
        &SetupTimes::model_s, &SetupTimes::warm_s, &SetupTimes::total_s}) {
    std::vector<double> v;
    for (const SetupTimes& t : runs) v.push_back(t.*field);
    median->*field = Median(v);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Phases

/// One request as the benchmark saw it.
struct Record {
  uint32_t request = 0;
  bool served = false;  ///< SQL produced (not rejected or shed)
  bool clean = false;   ///< served, execution-verified, no ladder rung fired
  int brownout_level = 0;
  int64_t due_ns = 0;  ///< when it was due (closed loop: when it was sent)
  int64_t end_ns = 0;
  size_t slice = 0;  ///< which slice of its phase it was sent in
  std::string sql;
  bool correct = false;  ///< EX against gold; filled after the phase
  double LatencyMs() const { return (end_ns - due_ns) * 1e-6; }
};

/// One phase of a run ("1c", "Nc", "steady", "overload"). A phase may be
/// measured in several slices interleaved with the other phase, so a slow
/// spell of the host lands on both phases instead of wiping out one.
struct Phase {
  std::string name;
  std::vector<Record> records;
  /// Sending windows [start, stop) of the slices, in ns.
  std::vector<std::pair<int64_t, int64_t>> slices;
  double busy_s = 0;  ///< wall time of the slices, drain included
  std::vector<double> lag_ms;  ///< open loop: how late each send was
};

/// Closed loop: `clients` threads each send their next request when the
/// previous one returns, cycling through `order` from `*cursor`, for at
/// least `seconds` and at least `min_requests` requests. Appends one slice.
void RunClosed(const Deployment& d, const std::vector<uint32_t>& order,
               size_t* cursor, int clients, double seconds,
               size_t min_requests, Phase* phase) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  auto client = [&](std::vector<Record>* out) {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= min_requests && NowNs() >= stop) break;
      Record r;
      r.slice = phase->slices.size();
      r.request = order[(*cursor + i) % order.size()];
      const Text2SqlSample& sample = *d.requests[r.request];
      ServeReport report;
      r.due_ns = NowNs();
      r.sql = d.pipeline->PredictGuarded(d.bench, sample, ServeOptions(),
                                         &report);
      r.end_ns = NowNs();
      r.served = true;
      r.clean = report.execution_verified && report.rungs.empty();
      out->push_back(std::move(r));
    }
  };
  std::vector<std::thread> threads;
  for (auto& out : per_client) threads.emplace_back(client, &out);
  for (auto& t : threads) t.join();
  size_t sent = 0;
  for (auto& out : per_client) {
    sent += out.size();
    for (Record& r : out) phase->records.push_back(std::move(r));
  }
  *cursor += sent;
  phase->slices.emplace_back(start, stop);
  phase->busy_s += SecondsSince(start);
}

/// Open loop: one generator thread (this one) sends seeded Poisson arrivals
/// at `rate` for `seconds` through ServeFrontEnd::TryServeAsync into a pool
/// of workers. Each request is timed from its due time. Appends one slice.
void RunOpen(const Deployment& d, const Workload& w,
             const std::vector<uint32_t>& arrivals_requests, double rate,
             double seconds, Rng* rng, ThreadPool* pool, Phase* phase) {
  std::vector<int64_t> offsets;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  std::vector<Record> records(offsets.size());

  serve::FrontEndOptions options;
  options.admission.rate_per_sec = w.rate_limit_rps;
  options.admission.burst = 16;
  options.admission.queue_capacity = w.queue_capacity;
  options.default_deadline_us = static_cast<uint64_t>(w.deadline_ms * 1000);
  serve::ServeFrontEnd front_end(d.pipeline.get(), &d.bench, options);

  const int64_t start = NowNs() + 1'000'000;
  for (size_t i = 0; i < offsets.size(); ++i) {
    Record& r = records[i];
    r.slice = phase->slices.size();
    r.request = arrivals_requests[rng->Index(arrivals_requests.size())];
    r.due_ns = start + offsets[i];
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(r.due_ns)));
    phase->lag_ms.push_back((NowNs() - r.due_ns) * 1e-6);
    // Each callback writes only its own record; pool->Wait() below orders
    // those writes before the reads that follow.
    bool admitted = front_end.TryServeAsync(
        *d.requests[r.request], pool,
        [&r](const Status& status, const std::string& sql,
             const ServeReport& report) {
          r.end_ns = NowNs();
          if (!status.ok()) return;  // shed: deadline expired in backlog
          r.served = true;
          r.sql = sql;
          r.clean = report.execution_verified && report.rungs.empty();
          r.brownout_level = report.brownout_level;
        });
    if (!admitted) r.end_ns = NowNs();
  }
  pool->Wait();
  for (Record& r : records) phase->records.push_back(std::move(r));
  phase->slices.emplace_back(start, start + static_cast<int64_t>(seconds * 1e9));
  phase->busy_s += SecondsSince(start);
}

/// Scores every served SQL with ExecutionMatch (outside any timed region)
/// and checks determinism: a request served cleanly must get the same SQL
/// every time, in every phase. Returns false on a mismatch.
bool ScoreAndCheck(const Deployment& d, std::vector<Phase*> phases) {
  std::unordered_map<uint32_t, std::pair<std::string, bool>> reference;
  bool ok = true;
  for (Phase* phase : phases) {
    for (Record& r : phase->records) {
      if (!r.served) continue;
      const Text2SqlSample& sample = *d.requests[r.request];
      auto it = r.clean ? reference.find(r.request) : reference.end();
      if (it != reference.end()) {
        if (it->second.first != r.sql) {
          std::fprintf(stderr,
                       "determinism check failed: request %u served "
                       "different SQL in phase %s\n",
                       r.request, phase->name.c_str());
          ok = false;
        }
        r.correct = it->second.second;
        continue;
      }
      r.correct = ExecutionMatch(d.bench.DbOf(sample), r.sql, sample.sql);
      if (r.clean) reference.emplace(r.request, std::make_pair(r.sql, r.correct));
    }
  }
  return ok;
}

/// Requests counted failed: rejected, shed, timed out (past the deadline
/// when one applies), or served with emergency or unverified SQL.
bool Failed(const Record& r, double deadline_ms) {
  return !r.served || !r.clean ||
         (deadline_ms > 0 && r.LatencyMs() > deadline_ms);
}

/// Requests of one measurement window: a slice is split into equal windows
/// of at least a second (one window if the slice is shorter). Top-up slices
/// of zero length get none.
struct Window {
  double seconds = 0;
  std::vector<const Record*> records;
};

/// The phase's windows, with records assigned by due time (`by_end` false)
/// or by completion time.
std::vector<Window> Windows(const Phase& phase, bool by_end) {
  std::vector<size_t> first;  // index of each slice's first window
  std::vector<Window> windows;
  for (const auto& [start, stop] : phase.slices) {
    first.push_back(windows.size());
    double seconds = (stop - start) * 1e-9;
    if (seconds <= 0) continue;
    size_t count = std::max<size_t>(1, static_cast<size_t>(seconds));
    windows.resize(windows.size() + count, Window{seconds / count, {}});
  }
  first.push_back(windows.size());
  for (const Record& r : phase.records) {
    if (first[r.slice] == first[r.slice + 1]) continue;
    double since = ((by_end ? r.end_ns : r.due_ns) -
                    phase.slices[r.slice].first) * 1e-9;
    if (since < 0) continue;
    size_t k = first[r.slice] +
               static_cast<size_t>(since / windows[first[r.slice]].seconds);
    if (k < first[r.slice + 1]) windows[k].records.push_back(&r);
  }
  return windows;
}

/// Per-second rate of the records `count` selects: the median over the
/// phase's one-second windows, so a slow spell of the host shorter than
/// half the phase does not move it.
template <typename Pred>
double MedianRatePerSec(const Phase& phase, Pred count) {
  std::vector<double> per_window;
  for (const Window& window : Windows(phase, /*by_end=*/true)) {
    per_window.push_back(
        std::count_if(window.records.begin(), window.records.end(),
                      [&](const Record* r) { return count(*r); }) /
        window.seconds);
  }
  return per_window.empty() ? 0 : Median(per_window);
}

/// EX-correct share of the phase's distinct requests (closed loop: each
/// distinct request is deterministic, so this is identical across phases).
double DistinctExPct(const Phase& phase) {
  std::unordered_map<uint32_t, bool> correct;
  for (const Record& r : phase.records) {
    correct[r.request] = r.served && r.clean && r.correct;
  }
  size_t n = 0;
  for (const auto& [request, ok] : correct) n += ok ? 1 : 0;
  return 100.0 * static_cast<double>(n) / static_cast<double>(correct.size());
}

/// Nearest-rank percentile of raw samples. Returns false when fewer than
/// kMinBeyond samples lie beyond it.
bool Percentile(std::vector<double> samples, double p, double* value) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < kMinBeyond) return false;
  *value = samples[rank - 1];
  return true;
}

/// A request's latency; a failed request misses the latency limit, so it
/// sorts above every served request and reads as the limit.
double LatencySample(const Record& r, double deadline_ms) {
  bool failed = deadline_ms > 0 && Failed(r, deadline_ms);
  return failed ? std::max(deadline_ms, r.LatencyMs()) : r.LatencyMs();
}

struct LatencyStats {
  size_t samples = 0;
  double p50_ms = 0;  ///< median over one-second windows of their median
  double p99_ms = 0;  ///< over all samples of the phase
  bool has_p99 = false;
};

LatencyStats Latency(const Phase& phase, double deadline_ms) {
  LatencyStats stats;
  std::vector<double> all, window_medians;
  for (const Window& window : Windows(phase, /*by_end=*/false)) {
    std::vector<double> samples;
    for (const Record* r : window.records) samples.push_back(LatencySample(*r, deadline_ms));
    if (samples.size() >= 2 * kMinBeyond) window_medians.push_back(Median(samples));
  }
  for (const Record& r : phase.records) all.push_back(LatencySample(r, deadline_ms));
  stats.samples = all.size();
  // Windows too short to hold 2 * kMinBeyond samples (short runs only):
  // fall back to the median of the whole phase.
  if (window_medians.empty() && !all.empty()) window_medians.push_back(Median(all));
  stats.p50_ms = window_medians.empty() ? 0 : Median(window_medians);
  stats.has_p99 = Percentile(all, 0.99, &stats.p99_ms);
  return stats;
}

void PrintPhase(const Phase& phase, double deadline_ms) {
  size_t failed = 0;
  for (const Record& r : phase.records) failed += Failed(r, deadline_ms);
  size_t sent = phase.records.size();
  LatencyStats lat = Latency(phase, deadline_ms);
  std::string lag = "n/a";
  double lag_p99 = 0;
  if (Percentile(phase.lag_ms, 0.99, &lag_p99)) lag = std::to_string(lag_p99);
  std::printf(
      "phase %-8s sent=%zu succeeded=%zu failed=%zu slices=%zu seconds=%.3f "
      "samples=%zu p50_ms=%.4f p99_ms=%s generator_lag_p99_ms=%s\n",
      phase.name.c_str(), sent, sent - failed, failed, phase.slices.size(),
      phase.busy_s, lat.samples, lat.p50_ms,
      lat.has_p99 ? std::to_string(lat.p99_ms).c_str() : "n/a", lag.c_str());
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<uint32_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  rng.Shuffle(order);
  return order;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)

int RunEndToEnd(const Args& args) {
  const Workload& w = *args.workload;
  const int nproc = Nproc();
  SetupTimes setup;
  std::unique_ptr<Deployment> d = SetUpRepeated(w, &setup);

  // Each phase runs in kRounds slices, alternating with the other phase.
  // Latency needs more samples than throughput: 1c gets two thirds.
  std::vector<Phase> phases(2);
  Phase& one = phases[0];
  Phase& many = phases[1];
  one.name = "1c";
  many.name = "Nc";
  std::vector<uint32_t> order = SeededOrder(d->requests.size(), args.seed);
  size_t cursor_one = 0, cursor_many = 0;
  for (int round = 0; round < kRounds; ++round) {
    RunClosed(*d, order, &cursor_one, 1, args.seconds * 2.0 / 3 / kRounds, 0,
              &one);
    RunClosed(*d, order, &cursor_many, nproc, args.seconds / 3.0 / kRounds, 0,
              &many);
  }
  // Top up, outside the windows: phase 1c must support a p99 (kMinBeyond
  // samples beyond it) and both phases must serve every distinct request
  // for the EX check.
  size_t min_one = std::max<size_t>(100 * kMinBeyond + 100, order.size());
  if (one.records.size() < min_one) {
    RunClosed(*d, order, &cursor_one, 1, 0, min_one - one.records.size(),
              &one);
  }
  if (many.records.size() < order.size()) {
    RunClosed(*d, order, &cursor_many, nproc, 0,
              order.size() - many.records.size(), &many);
  }

  bool correct = ScoreAndCheck(*d, {&one, &many});
  double ex_one = DistinctExPct(one);
  double ex_many = DistinctExPct(many);
  std::printf("ex_pct 1c=%.6f Nc=%.6f over %zu distinct requests\n", ex_one,
              ex_many, d->requests.size());
  if (ex_one != ex_many) {
    std::fprintf(stderr, "EX check failed: 1c and Nc disagree\n");
    correct = false;
  }

  size_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    PrintPhase(p, /*deadline_ms=*/0);
    for (const Record& r : p.records) {
      ++attempted;
      failed += Failed(r, /*deadline_ms=*/0) ? 1 : 0;
    }
  }
  double throughput =
      MedianRatePerSec(many, [](const Record& r) { return r.served; });
  double goodput = MedianRatePerSec(
      many, [](const Record& r) { return !Failed(r, 0) && r.correct; });
  LatencyStats lat = Latency(one, /*deadline_ms=*/0);
  if (!lat.has_p99) {
    std::fprintf(stderr, "phase 1c has too few samples for a p99\n");
    return 1;
  }
  if (!correct) std::fprintf(stderr, "correctness check failed\n");
  std::vector<Metric> metrics = {
      {"setup_s", setup.total_s, "s"},
      {"rss_mb", PeakRssMb(), "MiB"},
      {"latency_p50_ms", lat.p50_ms, "ms"},
      {"latency_p99_ms", lat.p99_ms, "ms"},
      {"throughput_rps", throughput, "req/s"},
      {"goodput_rps", goodput, "req/s"},
      {"ex_pct", ex_one, "%"},
      {"served_ok_pct", 100.0 * (attempted - failed) / attempted, "%"},
  };
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

/// Spans recorded in memory by the benchmark around its calls into each
/// layer; written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 for a root
    uint32_t request;
  };

  int Begin(const char* name, int parent, uint32_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  template <typename F>
  auto Time(const char* name, int parent, uint32_t request, F&& f) {
    int span = Begin(name, parent, request);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      End(span);
    } else {
      auto result = f();
      End(span);
      return result;
    }
  }

  /// Mean self time per request of each span name, in microseconds: a
  /// span's duration minus the part its child spans cover.
  std::map<std::string, double> SelfUsPerRequest(size_t requests) const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    for (auto& [name, ns] : out) ns = ns * 1e-3 / static_cast<double>(requests);
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream file(path);
    file << "request\tspan\tname\tparent\tstart_ns\tend_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      file << s.request << '\t' << i << '\t' << s.name << '\t' << s.parent
           << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(file);
  }

 private:
  std::vector<Span> spans_;
};

/// Replays the stages of PredictGuarded through the layers' public calls,
/// in pipeline order, for one request.
struct TraceReplay {
  const Deployment& d;
  PromptOptions prompt_options;
  /// Demonstration retriever over the same pool the pipeline uses; on the
  /// SFT workloads it only serves the retrieval.demo_topk probe.
  std::unique_ptr<DemonstrationRetriever> demos;
  SpanLog log;

  // Per-request sums of the non-timing layer metrics.
  double items_scored = 0, tokens = 0, candidates = 0, first_exec_rank = 0;
  double executions = 0;
  size_t replays = 0;

  explicit TraceReplay(const Deployment& dep) : d(dep) {
    const CodesPipeline& p = *d.pipeline;
    // The options BuildPromptInternal derives: the context window caps the
    // prompt, and ICL reserves room for the mean demonstration cost.
    prompt_options = p.config().prompt;
    prompt_options.max_prompt_tokens =
        std::min(prompt_options.max_prompt_tokens,
                 p.model().profile().max_context_tokens);
    if (p.config().icl_shots > 0 && !d.bench.train.empty()) {
      int64_t total = 0;
      for (const Text2SqlSample& s : d.bench.train) {
        total += CountPromptTokens(s.question) + CountPromptTokens(s.sql) + 4;
      }
      int mean_cost =
          static_cast<int>(total / static_cast<int64_t>(d.bench.train.size()));
      prompt_options.max_prompt_tokens =
          std::max(256, prompt_options.max_prompt_tokens -
                            p.config().icl_shots * mean_cost);
    }
    if (p.classifier() == nullptr) prompt_options.use_schema_filter = false;
    DemonstrationRetriever::Options demo_options;
    demo_options.embedding_dim = p.model().profile().embedding_dim;
    demo_options.use_pattern_similarity = p.config().use_pattern_similarity;
    demos = std::make_unique<DemonstrationRetriever>(d.bench.train,
                                                     demo_options);
  }

  std::string QuestionWithEk(const Text2SqlSample& s) const {
    if (d.pipeline->config().use_external_knowledge &&
        !s.external_knowledge.empty()) {
      return s.question + " ; " + s.external_knowledge;
    }
    return s.question;
  }

  /// Returns the replayed prompt text (checked against BuildPrompt).
  std::string Replay(uint32_t id, uint64_t generation_seed) {
    const CodesPipeline& p = *d.pipeline;
    const Text2SqlSample& sample = *d.requests[id];
    const sql::Database& db = d.bench.DbOf(sample);
    const std::string question = QuestionWithEk(sample);
    const NgramLm& lm = *d.zoo->CodesFor(p.config().size);
    const int shots = p.config().icl_shots;

    int root = log.Begin("request", -1, id);
    auto lease = log.Time("retrieval.lease", root, id,
                          [&] { return p.RetrieverFor(db); });
    PromptBuilder builder(p.classifier(), prompt_options);
    DatabasePrompt prompt = log.Time("prompt.build", root, id, [&] {
      return builder.Build(db, question, lease.get());
    });
    GenerationInput input;
    input.db = &db;
    input.prompt = &prompt;
    input.question = sample.question;
    if (p.config().use_external_knowledge) {
      input.external_knowledge = sample.external_knowledge;
    }
    if (shots > 0) {
      std::vector<int> top = log.Time("retrieval.demo_topk", root, id,
                                      [&] { return demos->TopK(question, shots); });
      for (int i : top) input.demonstrations.push_back(&d.bench.train[i]);
    }
    auto beam = log.Time("generator.beam", root, id, [&] {
      return p.model().GenerateBeam(input, generation_seed,
                                    /*mark_executable=*/false);
    });
    int rank = -1, executed = 0;
    log.Time("sqlengine.verify", root, id, [&] {
      ExecGuard guard{ExecLimits{}};
      for (size_t i = 0; i < beam.size() && rank < 0; ++i) {
        if (beam[i].sql.empty()) continue;
        guard.ResetUsage();
        ++executed;
        if (sql::ExecuteSql(db, beam[i].sql, &guard).ok()) {
          rank = static_cast<int>(i);
        }
      }
    });
    log.End(root);

    // Probes: sub-calls that run inside a stage above, re-run alone so
    // their share of that stage can be read. Not part of the coverage sum.
    int probe = log.Begin("probe", -1, id);
    int scored = log.Time("linker.score", probe, id, [&] {
      return ScoreSchema(db, question);
    });
    log.Time("retrieval.value_lookup", probe, id, [&] {
      if (lease != nullptr) {
        lease->Retrieve(question, prompt_options.value_coarse_k,
                        prompt_options.value_fine_k);
      }
    });
    log.Time("lm.score", probe, id, [&] {
      double sum = 0;
      for (const auto& c : beam) sum += lm.AvgLogProb(c.sql);
      return sum;
    });
    log.Time("serve.harden", probe, id, [&] {
      return serve::HardenQuestion(sample.question, serve::HardenOptions());
    });
    if (shots == 0) {
      log.Time("retrieval.demo_topk", probe, id,
               [&] { return demos->TopK(question, 3); });
    }
    log.End(probe);

    ++replays;
    items_scored += scored;
    tokens += CountPromptTokens(prompt.text);
    candidates += static_cast<double>(beam.size());
    first_exec_rank += rank >= 0 ? rank : static_cast<double>(beam.size());
    executions += executed;
    return prompt.text;
  }

  /// The classifier calls PromptBuilder::Build makes: every table, then
  /// every non-key column of the top-k1 tables. Returns the items scored.
  int ScoreSchema(const sql::Database& db, const std::string& question) const {
    const SchemaItemClassifier* classifier = d.pipeline->classifier();
    if (!prompt_options.use_schema_filter || classifier == nullptr) return 0;
    const auto& schema = db.schema();
    std::vector<std::pair<double, int>> tables;
    for (size_t t = 0; t < schema.tables.size(); ++t) {
      tables.emplace_back(
          classifier->ScoreTable(question, db, static_cast<int>(t)),
          static_cast<int>(t));
    }
    std::sort(tables.begin(), tables.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    int scored = static_cast<int>(tables.size());
    size_t keep = std::min<size_t>(static_cast<size_t>(prompt_options.top_k1),
                                   tables.size());
    for (size_t k = 0; k < keep; ++k) {
      int t = tables[k].second;
      const auto& table = schema.tables[static_cast<size_t>(t)];
      for (size_t c = 0; c < table.columns.size(); ++c) {
        if (IsKeyColumn(db, t, static_cast<int>(c))) continue;
        classifier->ScoreColumn(question, db, t, static_cast<int>(c));
        ++scored;
      }
    }
    return scored;
  }

  static bool IsKeyColumn(const sql::Database& db, int table, int column) {
    const auto& t = db.schema().tables[static_cast<size_t>(table)];
    const auto& col = t.columns[static_cast<size_t>(column)];
    if (col.is_primary_key) return true;
    for (const auto& fk : db.schema().foreign_keys) {
      if ((ToLower(fk.table) == ToLower(t.name) &&
           ToLower(fk.column) == ToLower(col.name)) ||
          (ToLower(fk.ref_table) == ToLower(t.name) &&
           ToLower(fk.ref_column) == ToLower(col.name))) {
        return true;
      }
    }
    return false;
  }
};

int RunTraced(const Args& args) {
  const Workload& w = *args.workload;
  const int nproc = Nproc();
  SetupTimes setup;
  std::unique_ptr<Deployment> d = SetUpRepeated(w, &setup);
  const CodesPipeline& p = *d->pipeline;
  std::vector<uint32_t> order = SeededOrder(d->requests.size(), args.seed);

  // Per-layer cold index builds, one per database the workload touches.
  double index_build_us = 0;
  {
    std::vector<bool> seen(d->bench.databases.size(), false);
    size_t n = 0;
    for (const Text2SqlSample* s : d->requests) {
      if (seen[static_cast<size_t>(s->db_index)]) continue;
      seen[static_cast<size_t>(s->db_index)] = true;
      ValueRetriever retriever;
      int64_t t0 = NowNs();
      retriever.BuildIndex(d->bench.DbOf(*s));
      index_build_us += (NowNs() - t0) * 1e-3;
      ++n;
    }
    index_build_us /= static_cast<double>(n);
  }

  // Traced replay: the layer calls in pipeline order, then one timed
  // PredictGuarded of the same request.
  TraceReplay replay(*d);
  bool correct = true;
  double verified = 0, repairs = 0;
  {
    Rng seeds(args.seed ^ 0x7EACE);
    const int64_t stop = NowNs() + static_cast<int64_t>(args.seconds * 0.4e9);
    for (size_t i = 0; i < order.size() || NowNs() < stop; ++i) {
      uint32_t id = order[i % order.size()];
      const Text2SqlSample& s = *d->requests[id];
      std::string prompt = replay.Replay(id, seeds.Next());
      ServeReport report;
      replay.log.Time("core.predict", -1, id, [&] {
        return p.PredictGuarded(d->bench, s, ServeOptions(), &report);
      });
      verified += report.execution_verified ? 1 : 0;
      repairs += report.repair_attempts;
      if (i < order.size() && prompt != p.BuildPrompt(d->bench, s).text) {
        std::fprintf(stderr, "replayed prompt differs for request %u\n", id);
        correct = false;
      }
    }
  }
  const double n = static_cast<double>(replay.replays);

  // Untraced baseline over the same requests, for trace.overhead_pct.
  double untraced_us = 0;
  for (size_t i = 0; i < replay.replays; ++i) {
    const Text2SqlSample& s = *d->requests[order[i % order.size()]];
    int64_t t0 = NowNs();
    p.PredictGuarded(d->bench, s, ServeOptions());
    untraced_us += (NowNs() - t0) * 1e-3;
  }
  untraced_us /= n;

  std::map<std::string, double> self = replay.log.SelfUsPerRequest(replay.replays);
  double stages = 0;
  for (const char* stage : {"retrieval.lease", "prompt.build", "generator.beam",
                            "sqlengine.verify"}) {
    stages += self[stage];
  }
  // On the SFT workloads demo_topk is a probe, not a stage.
  if (p.config().icl_shots > 0) stages += self["retrieval.demo_topk"];
  double predict_us = self["core.predict"];

  // Serving segment: the workload's requests through the front end, as an
  // open loop at its steady and overload rates, for the serve layer.
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::vector<Phase> serving(2);
  serving[0].name = "steady";
  serving[1].name = "overload";
  {
    ThreadPool pool(std::max(1, nproc - 1));  // + the generator thread
    Rng rng(args.seed ^ 0x5E4E);
    double seg = std::max(args.seconds * 0.2, 1000.0 / w.overload_rps);
    RunOpen(*d, w, order, w.steady_rps, seg, &rng, &pool, &serving[0]);
    RunOpen(*d, w, order, w.overload_rps, seg, &rng, &pool, &serving[1]);
  }
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& counter) {
    return static_cast<double>(after.counters[counter] -
                               before.counters[counter]);
  };
  const auto& wait_before = before.histograms["serve.queue.wait_us"];
  const auto& wait_after = after.histograms["serve.queue.wait_us"];
  std::vector<double> lag;
  double brownout = 0, served = 0;
  for (const Phase& ph : serving) {
    lag.insert(lag.end(), ph.lag_ms.begin(), ph.lag_ms.end());
    for (const Record& r : ph.records) {
      if (r.served) {
        brownout += r.brownout_level;
        ++served;
      }
    }
  }
  double lag_p99 = 0;
  if (!Percentile(lag, 0.99, &lag_p99)) {
    std::fprintf(stderr, "too few arrivals for a lag p99\n");
    return 1;
  }
  double offered = delta("serve.offered");
  double hits = delta("pipeline.retriever_cache.hits");
  double misses = delta("pipeline.retriever_cache.misses");
  double waits = static_cast<double>(wait_after.count - wait_before.count);

  if (!args.spans_out.empty() && !replay.log.Write(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
    return 1;
  }
  std::printf(
      "traced: requests=%zu stages_us=%.3f predict_us=%.3f "
      "untraced_us=%.3f coverage_tolerance_pct=%.1f\n",
      replay.replays, stages, predict_us, untraced_us, kCoverageTolerancePct);
  for (const Phase& ph : serving) PrintPhase(ph, w.deadline_ms);

  std::vector<Metric> metrics = {
      {"setup.data_s", setup.data_s, "s"},
      {"setup.lm_s", setup.lm_s, "s"},
      {"setup.classifier_s", setup.classifier_s, "s"},
      {"setup.model_s", setup.model_s, "s"},
      {"setup.warm_s", setup.warm_s, "s"},
      {"core.predict_us", predict_us, "us"},
      {"core.verified_pct", 100.0 * verified / n, "%"},
      {"core.repair_attempts", repairs / n, "count"},
      {"linker.score_us", self["linker.score"], "us"},
      {"linker.items_scored", replay.items_scored / n, "count"},
      {"retrieval.value_lookup_us", self["retrieval.value_lookup"], "us"},
      {"retrieval.index_build_us", index_build_us, "us"},
      {"retrieval.cache_hit_pct", 100.0 * hits / std::max(1.0, hits + misses),
       "%"},
      {"retrieval.demo_topk_us", self["retrieval.demo_topk"], "us"},
      {"prompt.build_us", self["prompt.build"], "us"},
      {"prompt.tokens", replay.tokens / n, "count"},
      {"generator.beam_us", self["generator.beam"], "us"},
      {"generator.candidates", replay.candidates / n, "count"},
      {"generator.share_pct", 100.0 * self["generator.beam"] / stages, "%"},
      {"generator.first_exec_rank", replay.first_exec_rank / n, "count"},
      {"lm.score_us", self["lm.score"], "us"},
      {"sqlengine.verify_us", self["sqlengine.verify"], "us"},
      {"sqlengine.executions", replay.executions / n, "count"},
      {"serve.harden_us", self["serve.harden"], "us"},
      {"serve.admitted_pct",
       100.0 * delta("serve.admitted") / std::max(1.0, offered), "%"},
      {"serve.rejected_pct",
       100.0 * delta("serve.rejected") / std::max(1.0, offered), "%"},
      {"serve.shed_pct",
       100.0 * delta("serve.shed") / std::max(1.0, offered), "%"},
      {"serve.queue_wait_us_mean",
       (wait_after.sum_us - wait_before.sum_us) / std::max(1.0, waits), "us"},
      {"serve.brownout_level_mean", brownout / std::max(1.0, served), "level"},
      {"loadgen.lag_p99_ms", lag_p99, "ms"},
      {"trace.overhead_pct",
       100.0 * (predict_us - untraced_us) / untraced_us,
       "%"},
      {"trace.coverage_pct", 100.0 * stages / predict_us, "%"},
  };
  size_t attempted = replay.replays;
  PrintResult(correct, attempted, 0, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench
}  // namespace codes

int main(int argc, char** argv) {
  using namespace codes::servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::printf(
      "context: workload=%s seed=%llu seconds=%d trace=%d nproc=%d "
      "build_type=%s held_out_seed=%llu\n",
      args.workload->name, static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, Nproc(), SERVEBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(kHeldOutSeed));
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
