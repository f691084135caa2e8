// Reproduces Section 9.7 (latency/deployment) and prints the Table 1
// architecture sheet: per-sample inference latency by model scale, plus
// the capacity profiles standing in for the transformer hyper-parameters.
// The 7B pipeline then prices each serving layer (guard, instrumentation,
// admission, hardening) against the path without it; every before/after
// pair here is timed by bench::AbTimer. Request-level latency, throughput,
// EX and per-layer shares are servebench's numbers (BENCHMARK.json), not
// this snapshot's.
//
// Paper shape to reproduce: latency grows with scale but stays far below
// API-based systems (DIN-SQL + GPT-4 at ~60 s/sample); the ratio between
// 15B and 1B is modest (~2.5x).

#include <algorithm>
#include <cstdio>

#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/perf_report.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "index/bm25_index.h"
#include "index/bm25_reference.h"
#include "lm/ngram_lm.h"
#include "lm/ngram_reference.h"
#include "serve/front_end.h"
#include "serve/load_gen.h"
#include "sqlengine/database.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"
#include "storage/crash_sim.h"
#include "storage/storage_db.h"
#include "text/similarity.h"

namespace codes {
namespace {

/// Hot-path before/after: each speed-campaign rewrite raced against the
/// pinned reference implementation it replaced, on identical workloads,
/// inside one binary (so compiler/flags/machine cancel out). The
/// equivalence suite (tests/speed_equivalence_test.cc) guarantees both
/// sides return byte-identical results; this section reports what the
/// rewrite bought. Speedups land in BENCH_latency.json as gated metrics.
void HotPathSection(bench::PerfReport* report, bool quick) {
  bench::Banner("Hot paths: pinned reference vs speed-campaign rewrite");

  const int scale = quick ? 1 : 4;
  bench::TablePrinter table({26, 14, 14, 10});
  table.Row({"hot path", "before us/op", "after us/op", "speedup"});
  table.Separator();

  // Times `ops` operations of the reference (before) and the rewrite
  // (after), prints the row and records the three hotpath_<key>_* keys.
  auto race = [&](const char* label, const std::string& key, size_t ops,
                  auto&& run_ref, auto&& run_new) {
    bench::AbTiming timing = bench::AbTimer::Run(run_ref, run_new);
    double before_us = 1e6 * timing.a / ops;
    double after_us = 1e6 * timing.b / ops;
    table.Row({label, FormatDouble(before_us, 3), FormatDouble(after_us, 3),
               FormatDouble(before_us / after_us, 2) + "x"});
    report->Add("hotpath_" + key + "_before_us", before_us);
    report->Add("hotpath_" + key + "_after_us", after_us);
    report->Add("hotpath_" + key + "_speedup_x", before_us / after_us);
  };

  // --- Longest common substring (value retriever fine-ranking) ---------
  {
    std::mt19937 rng(20260808);
    const std::string alphabet =
        "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::uniform_int_distribution<size_t> len(20, 120);
    std::uniform_int_distribution<size_t> chr(0, alphabet.size() - 1);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 400 * scale; ++i) {
      std::string a, b;
      for (size_t j = len(rng); j > 0; --j) a.push_back(alphabet[chr(rng)]);
      for (size_t j = len(rng); j > 0; --j) b.push_back(alphabet[chr(rng)]);
      pairs.emplace_back(std::move(a), std::move(b));
    }
    long long sink = 0;
    race(
        "lcs (string pair)", "lcs", pairs.size(),
        [&] {
          for (const auto& [a, b] : pairs) {
            sink += LongestCommonSubstringLengthReferenceDp(a, b);
          }
        },
        [&] {
          for (const auto& [a, b] : pairs) {
            sink += LongestCommonSubstringLength(a, b);
          }
        });
    if (sink == 42) std::printf(" ");  // keep the loops observable
  }

  // --- BM25 query (value retriever coarse stage) -----------------------
  {
    std::mt19937 rng(7);
    static const char* kWords[] = {
        "Jesenik", "Prague",  "branch",  "office", "Sarah",    "Martinez",
        "road",    "losses",  "castle",  "client", "account",  "2019",
        "total",   "north",   "station", "premium","Ostrava",  "wine",
        "exporter","district","arena",   "velvet", "capacity", "stadium"};
    std::uniform_int_distribution<int> nwords(1, 5);
    std::uniform_int_distribution<size_t> word(0, std::size(kWords) - 1);
    Bm25Index fast;
    ReferenceBm25Index ref;
    for (int d = 0; d < 1500 * scale; ++d) {
      std::string doc;
      for (int w = nwords(rng); w > 0; --w) {
        if (!doc.empty()) doc += ' ';
        doc += kWords[word(rng)];
      }
      fast.AddDocument(doc);
      ref.AddDocument(doc);
    }
    fast.Finalize();
    ref.Finalize();
    std::vector<std::string> queries;
    for (int q = 0; q < 300 * scale; ++q) {
      std::string query;
      for (int w = 0; w < 4; ++w) {
        if (!query.empty()) query += ' ';
        query += kWords[word(rng)];
      }
      queries.push_back(std::move(query));
    }
    size_t sink = 0;
    race(
        "bm25 query (top-10)", "bm25", queries.size(),
        [&] {
          for (const auto& q : queries) sink += ref.Query(q, 10).size();
        },
        [&] {
          for (const auto& q : queries) sink += fast.Query(q, 10).size();
        });
    if (sink == 42) std::printf(" ");
  }

  // --- N-gram scoring (generation-time candidate ranking) --------------
  {
    std::vector<std::string> corpus;
    static const char* kFragments[] = {
        "SELECT name FROM singer WHERE age > 20",
        "SELECT count(*) FROM concert WHERE year = 2014",
        "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = "
        "T2.singer_id",
        "SELECT avg(age), min(age), max(age) FROM singer",
        "SELECT stadium_id, count(*) FROM concert GROUP BY stadium_id "
        "ORDER BY count(*) DESC",
        "SELECT DISTINCT country FROM singer WHERE age > 20"};
    for (int i = 0; i < 40 * scale; ++i) {
      corpus.push_back(kFragments[i % std::size(kFragments)] +
                       std::string(" -- v") + std::to_string(i));
    }
    NgramLm fast(5);
    ReferenceNgramLm ref(5);
    fast.Train(corpus);
    ref.Train(corpus);
    double sink = 0;
    race(
        "ngram AvgLogProb (doc)", "ngram", corpus.size(),
        [&] {
          for (const auto& doc : corpus) sink += ref.AvgLogProb(doc);
        },
        [&] {
          for (const auto& doc : corpus) sink += fast.AvgLogProb(doc);
        });
    if (sink == 42.0) std::printf(" ");
  }

  std::printf(
      "\nboth columns run in this binary on identical workloads; the "
      "equivalence suite pins byte-identical outputs, so the ratio is a "
      "pure data-structure win.\n");
}

/// Index-scan vs sequential-scan access path on the disk-backed storage
/// engine: the SAME StorageDb, the SAME parsed statements, with only the
/// index knob toggled — so the ratio isolates what the B+ tree access path
/// buys on a selective predicate over 100k rows. The differential suite
/// pins both paths byte-identical; this section reports the speed.
void StorageAccessPathSection(bench::PerfReport* report, bool quick) {
  bench::Banner(
      "Storage access paths: index scan vs sequential scan (100k rows)");

  // Row count is identical in both profiles: the gated metric is a ratio,
  // and shrinking the table would change the claim, not just the runtime.
  constexpr int kRows = 100'000;
  sql::DatabaseSchema schema;
  schema.name = "bench_storage";
  sql::TableDef items;
  items.name = "items";
  items.columns = {
      {"id", sql::DataType::kInteger, "row id", true},
      {"grp", sql::DataType::kInteger, "bucket", false},
      {"payload", sql::DataType::kText, "ballast", false},
  };
  schema.tables = {items};
  sql::Database db(std::move(schema));
  for (int i = 0; i < kRows; ++i) {
    CODES_CHECK(db.Insert("items",
                          {sql::Value(static_cast<int64_t>(i)),
                           sql::Value(static_cast<int64_t>(i % 997)),
                           sql::Value("payload-" + std::to_string(i))})
                    .ok());
  }
  auto built = storage::StorageDb::CreateInMemoryFrom(db, /*pool_frames=*/256);
  CODES_CHECK(built.ok());
  storage::StorageDb& sdb = **built;

  // Pre-parsed selective range probes (50 of 100k rows each, well under
  // the planner's selectivity cutoff), spread across the key space so no
  // single hot leaf serves every query.
  std::vector<std::unique_ptr<sql::SelectStatement>> stmts;
  for (int q = 0; q < 16; ++q) {
    int lo = (q * 6151) % (kRows - 60);
    auto parsed = sql::ParseSql(
        "SELECT payload FROM items WHERE id BETWEEN " + std::to_string(lo) +
        " AND " + std::to_string(lo + 49));
    CODES_CHECK(parsed.ok());
    stmts.push_back(std::move(*parsed));
  }
  sql::Executor exec(sdb);
  const int reps = quick ? 2 : 6;
  size_t result_rows = 0;
  auto run_paths = [&](bool indexed) {
    sdb.set_index_scans_enabled(indexed);
    for (int r = 0; r < reps; ++r) {
      for (const auto& stmt : stmts) {
        auto result = exec.Execute(*stmt);
        CODES_CHECK(result.ok());
        result_rows += result->NumRows();
      }
    }
  };

  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().Reset();
  bench::AbTiming timing = bench::AbTimer::Run([&] { run_paths(false); },
                                               [&] { run_paths(true); });
  // Confirm the planner actually took the index path when allowed — a
  // silent fallback to seq scan would turn this section into noise.
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  CODES_CHECK(snap.counters["storage.path.index_scan"] > 0);

  const double per_query = static_cast<double>(reps) * stmts.size();
  double seq_us = 1e6 * timing.a / per_query;
  double idx_us = 1e6 * timing.b / per_query;
  if (result_rows == 0) std::printf(" ");  // keep the loops observable

  bench::TablePrinter table({26, 14, 14});
  table.Row({"access path", "us / query", "rows touched"});
  table.Separator();
  table.Row({"sequential scan", FormatDouble(seq_us, 1),
             std::to_string(kRows)});
  table.Row({"B+ tree index scan", FormatDouble(idx_us, 1), "~50"});
  std::printf("\nindex-path speedup: %.1fx (gate: >= 5x; both paths return "
              "byte-identical rows)\n",
              seq_us / idx_us);
  // Absolute per-query times depend on machine memory speed: noisy. The
  // ratio is the architectural claim and gates.
  report->AddNoisy("storage_seq_scan_us", seq_us);
  report->AddNoisy("storage_index_scan_us", idx_us);
  report->Add("storage_index_speedup_x", seq_us / idx_us);
}

/// Durability cost of the crash-safety layer (DESIGN.md section 15): what
/// WAL page-image logging plus the commit-marker group flush add to a
/// mutation batch, against the same staging with plain write-back and no
/// log. Both sides run on RAM-backed page stores, so the numbers isolate
/// the CPU/write-amplification cost of the logging protocol itself — real
/// device sync latency is workload- and hardware-specific and is NOT
/// measured here. A recovery row reports redo-replay time over the full
/// un-checkpointed log. All absolute times and the ratio are noisy (tiny
/// batches, allocator-sensitive); the section exists to keep the overhead
/// visible in every snapshot, not to gate it.
void DurabilitySection(bench::PerfReport* report, bool quick) {
  bench::Banner("Durability: WAL commit overhead and recovery replay");

  sql::DatabaseSchema schema;
  schema.name = "bench_durability";
  sql::TableDef events;
  events.name = "events";
  events.columns = {
      {"id", sql::DataType::kInteger, "row id", true},
      {"grp", sql::DataType::kInteger, "bucket", false},
      {"payload", sql::DataType::kText, "ballast", false},
  };
  schema.tables = {events};
  sql::Database db(std::move(schema));
  constexpr int kInitialRows = 512;
  for (int i = 0; i < kInitialRows; ++i) {
    CODES_CHECK(db.Insert("events",
                          {sql::Value(static_cast<int64_t>(i)),
                           sql::Value(static_cast<int64_t>(i % 53)),
                           sql::Value("seed-" + std::to_string(i))})
                    .ok());
  }

  const int batches = quick ? 32 : 96;
  constexpr int kRowsPerBatch = 16;
  auto batch_rows = [&](int b) {
    std::vector<sql::Row> rows;
    rows.reserve(kRowsPerBatch);
    for (int r = 0; r < kRowsPerBatch; ++r) {
      int64_t id = kInitialRows + int64_t{b} * kRowsPerBatch + r;
      rows.push_back({sql::Value(id), sql::Value(id % 53),
                      sql::Value("row-" + std::to_string(id))});
    }
    return rows;
  };

  // WAL path: stage, log page images, group-flush. No checkpoints, so the
  // log holds every batch and the reopen below replays all of them.
  storage::SimEnv env;
  auto wal_built =
      storage::StorageDb::CreateSimFrom(db, &env, "bench.db",
                                        /*pool_frames=*/256);
  CODES_CHECK(wal_built.ok());
  Timer wal_timer;
  for (int b = 0; b < batches; ++b) {
    CODES_CHECK((*wal_built)->AppendRows(0, batch_rows(b)).ok());
    CODES_CHECK((*wal_built)->CommitBatch().ok());
  }
  double wal_us = 1e6 * wal_timer.ElapsedSeconds() / batches;
  wal_built->reset();  // release the sim files before the recovery reopen

  // Baseline: identical staging, plain write-back, no logging. Flush() is
  // the closest durability stand-in the no-WAL engine has.
  auto raw_built = storage::StorageDb::CreateInMemoryFrom(
      db, /*pool_frames=*/256);
  CODES_CHECK(raw_built.ok());
  Timer raw_timer;
  for (int b = 0; b < batches; ++b) {
    CODES_CHECK((*raw_built)->AppendRows(0, batch_rows(b)).ok());
    CODES_CHECK((*raw_built)->Flush().ok());
  }
  double raw_us = 1e6 * raw_timer.ElapsedSeconds() / batches;

  // Clean reopen of the WAL-path database: redo recovery replays every
  // batch's page images (nothing was checkpointed) and re-checkpoints.
  Timer recover_timer;
  auto reopened = storage::StorageDb::OpenSim(&env, "bench.db",
                                              /*pool_frames=*/256);
  double recover_us = 1e6 * recover_timer.ElapsedSeconds();
  CODES_CHECK(reopened.ok());
  CODES_CHECK((*reopened)->SourceRowCount(0) ==
              static_cast<size_t>(kInitialRows + batches * kRowsPerBatch));

  double overhead_pct = 100.0 * (wal_us - raw_us) / raw_us;
  bench::TablePrinter table({34, 14});
  table.Row({"commit path", "us / batch"});
  table.Separator();
  table.Row({"write-back, no log", FormatDouble(raw_us, 1)});
  table.Row({"WAL log + commit flush", FormatDouble(wal_us, 1)});
  std::printf("\nWAL overhead: %+.1f%% per committed batch (%d batches of "
              "%d rows)\nredo recovery: %.0f us to replay the full "
              "un-checkpointed log\n",
              overhead_pct, batches, kRowsPerBatch, recover_us);
  report->AddNoisy("durability_commit_wal_us", wal_us);
  report->AddNoisy("durability_commit_nowal_us", raw_us);
  report->AddNoisy("durability_wal_overhead_pct", overhead_pct);
  report->AddNoisy("durability_recovery_replay_us", recover_us);
}

/// One serving layer's overhead: `queries` requests through the `base`
/// path and through the `layered` path (per-request callables), timed by
/// the AbTimer. Prints the section's two-row table and budget line and
/// records `<layer>_overhead_pct` — a difference of two noisy wall-clock
/// reads, so it is reported in the noisy list, never gated.
template <typename Base, typename Layered>
void OverheadSection(const Text2SqlBenchmark& bench, int queries,
                     const std::string& layer, const char* base_label,
                     const char* layered_label, Base&& base, Layered&& layered,
                     bench::PerfReport* report) {
  bench::AbTiming timing = bench::AbTimer::Run(
      [&] { bench::ServeRequests(bench, queries, base); },
      [&] { bench::ServeRequests(bench, queries, layered); });
  double overhead_pct = 100.0 * (timing.b - timing.a) / timing.a;

  bench::TablePrinter table({24, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({base_label, FormatDouble(timing.a, 3),
             FormatDouble(1000.0 * timing.a / queries, 3)});
  table.Row({layered_label, FormatDouble(timing.b, 3),
             FormatDouble(1000.0 * timing.b / queries, 3)});
  std::printf("\n%s overhead: %+.2f%% (budget: <= 2%%)\n", layer.c_str(),
              overhead_pct);
  report->AddNoisy(layer + "_overhead_pct", overhead_pct);
}

/// Limits generous enough that every guard check runs but none trips.
ExecLimits GenerousLimits() {
  ExecLimits limits;
  limits.max_rows = 50'000'000;
  limits.max_bytes = static_cast<size_t>(1) << 40;
  limits.max_depth = 64;
  return limits;
}

/// A front end with every protection active but nothing tripping: no rate
/// limit, a near-empty queue so brownout stays at level 0, and a breaker
/// threshold the failure ratio (at most 1.0) never reaches.
serve::FrontEndOptions QuietFrontEndOptions() {
  serve::FrontEndOptions fe;
  fe.limits = GenerousLimits();
  fe.admission.queue_capacity = 4096;
  fe.breaker.failure_threshold = 1.1;
  return fe;
}

/// Unguarded Predict vs PredictGuarded with an *active* guard (generous
/// budgets, so every check runs but nothing trips). The robustness layer's
/// contract is <= 2% overhead for guard-enabled serving.
void GuardOverheadSection(const Text2SqlBenchmark& bench,
                          const CodesPipeline& pipeline, int queries,
                          bench::PerfReport* report) {
  bench::Banner("Guard overhead: Predict vs guarded serving (7B SFT)");

  ServeOptions guarded;
  guarded.limits = GenerousLimits();

  OverheadSection(
      bench, queries, "guard", "Predict (no guard)", "PredictGuarded",
      [&](const Text2SqlSample& sample) {
        (void)pipeline.Predict(bench, sample);
      },
      [&](const Text2SqlSample& sample) {
        (void)pipeline.PredictGuarded(bench, sample, guarded);
      },
      report);
}

/// The observability layer's own cost: the same prediction loop with the
/// metrics switch off (spans skip clock reads and histogram writes) vs on.
/// Budget: <= 2%.
void InstrumentationOverheadSection(const Text2SqlBenchmark& bench,
                                    const CodesPipeline& pipeline,
                                    int queries, bench::PerfReport* report) {
  bench::Banner("Instrumentation overhead: metrics off vs on (7B SFT)");

  ServeOptions options;
  options.limits.max_rows = 20000;

  // Both sides pay the same relaxed store per request to set the switch.
  auto predict_with_metrics = [&](bool enabled) {
    return [&, enabled](const Text2SqlSample& sample) {
      MetricsRegistry::SetEnabled(enabled);
      (void)pipeline.PredictGuarded(bench, sample, options);
    };
  };
  OverheadSection(bench, queries, "instrumentation", "metrics disabled",
                  "metrics enabled", predict_with_metrics(false),
                  predict_with_metrics(true), report);
  MetricsRegistry::SetEnabled(true);
}

/// Per-request latency distribution with every failpoint armed at 1%:
/// the repair loop and fallback rungs should fatten the tail, not the
/// median.
void ChaosTailLatencySection(const Text2SqlBenchmark& bench,
                             const CodesPipeline& pipeline, int queries) {
  bench::Banner("Tail latency under 1% fault injection (7B SFT)");

  ServeOptions options;
  options.limits.max_rows = 20000;

  auto percentile = [](std::vector<double>& ms, double p) {
    size_t idx = static_cast<size_t>(p * (ms.size() - 1));
    return ms[idx];
  };
  bench::TablePrinter table({16, 10, 10, 10, 10});
  table.Row({"faults", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  table.Separator();
  for (bool inject : {false, true}) {
    if (inject) {
      CODES_CHECK(Failpoints::Configure("*=prob:0.01", 7).ok());
    }
    std::vector<double> ms;
    ms.reserve(queries);
    bench::ServeRequests(bench, queries, [&](const Text2SqlSample& sample) {
      Timer timer;
      (void)pipeline.PredictGuarded(bench, sample, options);
      ms.push_back(1000.0 * timer.ElapsedSeconds());
    });
    std::sort(ms.begin(), ms.end());
    table.Row({inject ? "*=prob:0.01" : "none",
               FormatDouble(percentile(ms, 0.50), 2),
               FormatDouble(percentile(ms, 0.95), 2),
               FormatDouble(percentile(ms, 0.99), 2),
               FormatDouble(ms.back(), 2)});
  }
  Failpoints::Clear();
  std::printf(
      "\nfaulted requests pay for fallback prompt rebuilds and repair "
      "re-executions; the clean median must not move.\n");
}

/// Goodput as offered load sweeps past saturation: open-loop virtual-time
/// campaigns through the serving front end at several multiples of the
/// level-0 capacity. An unprotected open-loop server collapses past 1x
/// (every request eventually misses its deadline inside an unbounded
/// backlog); with admission control, deadline shedding, and brownout the
/// goodput curve must stay flat instead — the 2x point is required to
/// hold >= 90% of the best goodput seen at or below it. The table also
/// records the shed/reject
/// rate and where served requests landed on the brownout ladder.
void OverloadGoodputSection(const Text2SqlBenchmark& bench,
                            const CodesPipeline& pipeline) {
  bench::Banner("Overload goodput: offered load vs served-in-deadline");

  serve::LoadGenOptions base;
  base.seed = 20240806;
  base.num_requests = 600;
  base.virtual_workers = 4;
  base.service_base_us = 20'000;  // level-0 capacity: 4 / 20 ms = 200 qps
  base.deadline_us = 200'000;
  base.threads = 4;
  const double capacity_qps = 1e6 * base.virtual_workers /
                              static_cast<double>(base.service_base_us);
  std::printf("level-0 capacity: %.0f qps (%d virtual workers x %.0f ms)\n",
              capacity_qps, base.virtual_workers,
              base.service_base_us / 1000.0);

  bench::TablePrinter table({10, 10, 10, 10, 8, 10, 20});
  table.Row({"offered", "goodput", "shed+rej%", "late%", "deg", "rec",
             "served L0..L4"});
  table.Separator();
  double peak_goodput = 0.0;
  double goodput_at_2x = 0.0;
  for (double mult : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    serve::LoadGenOptions options = base;
    options.offered_qps = capacity_qps * mult;
    serve::LoadReport report = serve::RunLoadCampaign(pipeline, bench, options);
    double goodput = report.GoodputQps();
    // Peak over offered <= 2x: the asserted point must not sit in a
    // collapse relative to anything before it. (Brownout keeps goodput
    // *rising* past 2x — served requests get cheaper — so the 3x row is
    // informational, not part of the budget.)
    if (mult <= 2.0) peak_goodput = std::max(peak_goodput, goodput);
    if (mult == 2.0) goodput_at_2x = goodput;
    uint64_t dropped = report.rejected_rate + report.rejected_queue_full +
                       report.shed_deadline + report.shed_drain;
    std::string levels;
    for (int level = 0; level < kNumBrownoutLevels; ++level) {
      if (level > 0) levels += "/";
      levels += std::to_string(report.served_at_level[level]);
    }
    table.Row({FormatDouble(options.offered_qps, 0), FormatDouble(goodput, 1),
               bench::Pct(static_cast<double>(dropped) / report.offered) + "%",
               bench::Pct(static_cast<double>(report.served_late) /
                          report.offered) +
                   "%",
               std::to_string(report.brownout_degrades),
               std::to_string(report.brownout_recoveries), levels});
  }
  double retained = 100.0 * goodput_at_2x / peak_goodput;
  std::printf(
      "\ngoodput at 2x saturation: %.1f qps = %.1f%% of the peak over "
      "offered <= 2x (budget: >= 90%%)\n"
      "past 1x the queue saturates, deadline shedding discards doomed "
      "requests before they cost pipeline time, and brownout moves served "
      "traffic to cheaper richness levels.\n",
      goodput_at_2x, retained);
  CODES_CHECK(retained >= 90.0);
}

/// The serving front door's own cost: PredictGuarded called directly vs
/// through a quiet ServeFrontEnd::Serve (every protection active, nothing
/// tripping). The difference is pure admission
/// bookkeeping — token bucket, breaker consults, brownout update, serve.*
/// metrics — and must stay within the same <= 2% budget as the guards.
void AdmissionOverheadSection(const Text2SqlBenchmark& bench,
                              const CodesPipeline& pipeline, int queries,
                              bench::PerfReport* report) {
  bench::Banner("Admission overhead: PredictGuarded vs front-end Serve");

  serve::ServeFrontEnd front_end(&pipeline, &bench, QuietFrontEndOptions());
  ServeOptions direct;
  direct.limits = GenerousLimits();

  OverheadSection(
      bench, queries, "admission", "PredictGuarded", "ServeFrontEnd::Serve",
      [&](const Text2SqlSample& sample) {
        (void)pipeline.PredictGuarded(bench, sample, direct);
      },
      [&](const Text2SqlSample& sample) {
        std::string sql;
        (void)front_end.Serve(sample, &sql);
      },
      report);
}

/// What the request-hardening front door costs clean traffic: the same
/// front-end Serve loop with hardening off vs on. Dev questions are plain
/// ASCII, so the sanitized tier is byte-identical to the input and the
/// whole pass is validation work — UTF-8 scan, control scan,
/// canonicalization, anomaly score. Budget: <= 2%, same as the guards.
void HardeningOverheadSection(const Text2SqlBenchmark& bench,
                              const CodesPipeline& pipeline, int queries,
                              bench::PerfReport* report) {
  bench::Banner("Hardening overhead: front-end Serve, harden off vs on");

  serve::FrontEndOptions fe = QuietFrontEndOptions();
  fe.harden.enabled = false;
  serve::ServeFrontEnd unhardened(&pipeline, &bench, fe);
  fe.harden.enabled = true;
  serve::ServeFrontEnd hardened(&pipeline, &bench, fe);

  auto serve_through = [](serve::ServeFrontEnd& front_end) {
    return [&front_end](const Text2SqlSample& sample) {
      std::string sql;
      (void)front_end.Serve(sample, &sql);
    };
  };
  OverheadSection(bench, queries, "hardening", "Serve, harden off",
                  "Serve, harden on", serve_through(unhardened),
                  serve_through(hardened), report);
}

void Run(bench::PerfReport* report, bool quick) {
  HotPathSection(report, quick);
  StorageAccessPathSection(report, quick);
  DurabilitySection(report, quick);

  bench::Banner("Table 1: model capacity profiles");
  bench::TablePrinter arch({12, 8, 8, 8, 8, 8, 8, 8});
  arch.Row({"model", "params", "hidden", "ffn", "heads", "blocks", "ctx",
            "ngram"});
  arch.Separator();
  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  for (int i = 0; i < count; ++i) {
    const CapacityProfile& p = ProfileFor(sizes[i]);
    arch.Row({p.name, FormatDouble(p.params_billion, 0) + "B",
              std::to_string(p.hidden_size), std::to_string(p.ffn_size),
              std::to_string(p.attention_heads),
              std::to_string(p.transformer_blocks),
              std::to_string(p.max_context_tokens),
              std::to_string(p.ngram_order)});
  }

  bench::Banner("Section 9.7: inference latency per sample (SFT, Spider)");
  auto spider = BuildSpiderLike();
  LmZoo zoo;
  bench::TablePrinter table({12, 16, 14});
  table.Row({"model", "ms / sample", "samples / s"});
  table.Separator();
  // The quick (CI) profile measures only the 7B point of the scale sheet:
  // training four model sizes dominates wall-clock and the JSON schema
  // carries no per-size metrics.
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    if (quick && size != ModelSize::k7B) continue;
    PipelineConfig config;
    config.size = size;
    CodesPipeline pipeline(config, zoo.CodesFor(size));
    pipeline.TrainClassifier(spider);
    pipeline.FineTune(spider);
    bench::WarmRetrievers(pipeline, spider);
    constexpr int kSamples = 100;
    Timer timer;
    bench::ServeRequests(spider, kSamples, [&](const Text2SqlSample& sample) {
      (void)pipeline.Predict(spider, sample);
    });
    double seconds = timer.ElapsedSeconds();
    table.Row({ModelSizeName(size),
               FormatDouble(1000.0 * seconds / kSamples, 2),
               FormatDouble(kSamples / seconds, 1)});
  }
  std::printf(
      "\npaper reference: 0.6 / 0.9 / 1.1 / 1.5 seconds per sample on an "
      "A800; DIN-SQL + GPT-4 needs ~60 s per sample.\n");

  {
    PipelineConfig config;
    config.size = ModelSize::k7B;
    CodesPipeline pipeline(config, zoo.CodesFor(config.size));
    pipeline.TrainClassifier(spider);
    pipeline.FineTune(spider);
    bench::WarmRetrievers(pipeline, spider);
    const int q = quick ? 80 : 300;
    GuardOverheadSection(spider, pipeline, q, report);
    InstrumentationOverheadSection(spider, pipeline, q, report);
    ChaosTailLatencySection(spider, pipeline, /*queries=*/quick ? 150 : 500);
    OverloadGoodputSection(spider, pipeline);
    AdmissionOverheadSection(spider, pipeline, q, report);
    HardeningOverheadSection(spider, pipeline, q, report);
  }
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  const bool quick = codes::bench::QuickRequested(argc, argv);
  codes::bench::PerfReport report("latency", quick ? "quick" : "full");
  report.SetCalibration(codes::bench::CalibrateOpsPerSec());
  codes::Run(&report, quick);
  if (int rc = codes::bench::CheckAndWriteMetrics(argc, argv); rc != 0) {
    return rc;
  }
  if (!report.WriteIfRequested(argc, argv)) return 1;
  return 0;
}
