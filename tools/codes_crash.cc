// codes_crash: deterministic crash-recovery campaign runner.
//
// Runs the DESIGN.md section 15 campaign: a WAL-enabled StorageDb executes
// a deterministic mixed insert/index workload inside the simulated-crash
// environment, then the harness crashes it at EVERY write/sync/truncate
// boundary (times three crash variants: lost buffers, eagerly flushed
// buffers, torn writes), reboots, recovers, and differentially checks the
// recovered state against a pure-function oracle. The per-case outcomes
// fold into one FNV digest that is independent of --threads, which
// --selfcheck pins with a 1-thread replay.
//
// Modes:
//   campaign (default)  codes_crash --batches=200 --threads=8 --seed=1
//   smoke               codes_crash --smoke   (small fixed-seed campaign
//                                              with the determinism check)
//
// Campaign stdout is byte-identical across thread counts (timing goes to
// stderr). Exit status: 0 clean, 1 invariant violation, 2 usage error.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "campaign.h"
#include "common/metrics.h"
#include "storage/crash_harness.h"

namespace {

struct Flags {
  int batches = 200;
  int rows_per_batch = 3;
  int initial_rows = 8;
  int checkpoint_every = 9;
  int threads = 8;
  uint64_t seed = 1;
  uint64_t pool_frames = 16;
  uint64_t max_cases = 0;
  bool no_torn = false;
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool smoke = false;
  bool selfcheck = false;
};

codes::storage::CrashCampaignConfig MakeConfig(const Flags& flags,
                                               int threads) {
  codes::storage::CrashCampaignConfig config;
  config.seed = flags.seed;
  config.batches = flags.batches;
  config.rows_per_batch = flags.rows_per_batch;
  config.initial_rows = flags.initial_rows;
  config.checkpoint_every = flags.checkpoint_every;
  config.pool_frames = flags.pool_frames;
  config.threads = threads;
  config.torn_variants = !flags.no_torn;
  config.max_cases = flags.max_cases;
  return config;
}

void PrintResult(const codes::storage::CrashCampaignResult& r,
                 const Flags& flags) {
  std::printf("crash campaign: batches=%d rows_per_batch=%d seed=%" PRIu64
              " checkpoint_every=%d pool_frames=%" PRIu64 "\n",
              flags.batches, flags.rows_per_batch, flags.seed,
              flags.checkpoint_every, flags.pool_frames);
  std::printf("boundaries=%" PRIu64 " cases_run=%" PRIu64
              " cases_dropped=%" PRIu64 " failures=%" PRIu64 "\n",
              r.boundaries, r.cases_run, r.cases_dropped, r.failures);
  for (const codes::storage::CrashCaseOutcome& f : r.failed) {
    std::printf("FAILED case op=%" PRIu64 " variant=%s: %s\n", f.crash_op,
                codes::storage::CrashVariantName(f.variant), f.error.c_str());
  }
  std::printf("recovery: runs=%" PRIu64 " wal_records_seen=%" PRIu64
              " replayed=%" PRIu64 " discarded=%" PRIu64 "\n",
              r.recovery_runs, r.wal_records_seen, r.wal_records_replayed,
              r.wal_records_discarded);
  std::printf("digest=%016" PRIx64 "\n", r.digest);
}

}  // namespace

int main(int argc, char** argv) {
  using codes::campaign::AtLeast;
  Flags flags;
  const codes::campaign::Flag table[] = {
      {"--batches", &flags.batches, "N", AtLeast(1)},
      {"--rows-per-batch", &flags.rows_per_batch, "N", AtLeast(1)},
      {"--initial-rows", &flags.initial_rows, "N", AtLeast(0)},
      {"--checkpoint-every", &flags.checkpoint_every, "N", AtLeast(0)},
      {"--threads", &flags.threads, "N", AtLeast(1)},
      {"--seed", &flags.seed, "S"},
      {"--pool-frames", &flags.pool_frames, "N", AtLeast(2)},
      {"--max-cases", &flags.max_cases, "N"},
      {"--no-torn", &flags.no_torn},
      {"--metrics-out", &flags.metrics_out, "PATH"},
      {"--selfcheck", &flags.selfcheck},
      {"--smoke", &flags.smoke},
  };
  codes::campaign::ParseFlags(argc, argv, "codes_crash", table);
  if (flags.smoke) {
    // Fixed, fast configuration for ctest / CI gating.
    flags.batches = 24;
    flags.rows_per_batch = 3;
    flags.checkpoint_every = 5;
    flags.threads = 2;
    flags.seed = 20240807;
    flags.selfcheck = true;
  }

  auto start = std::chrono::steady_clock::now();
  // Zero the registry so the exported snapshot covers exactly this
  // campaign's storage traffic.
  codes::MetricsRegistry::Global().Reset();

  codes::Result<codes::storage::CrashCampaignResult> run =
      codes::storage::RunCrashCampaign(MakeConfig(flags, flags.threads));
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed to run: %s\n",
                 run.status().ToString().c_str());
    return 2;
  }
  const codes::storage::CrashCampaignResult& result = *run;
  // Snapshot immediately after the campaign, before the selfcheck replay
  // adds its own recoveries.
  codes::MetricsSnapshot snapshot = codes::MetricsRegistry::Global().Snapshot();
  PrintResult(result, flags);

  int exit_code = 0;
  if (result.failures > 0) {
    std::printf("INVARIANT VIOLATION: %" PRIu64
                " crash cases failed recovery or the differential check\n",
                result.failures);
    exit_code = 1;
  }
  // Every crash case reboots through recovery at least once.
  if (result.recovery_runs == 0 || result.recovery_runs < result.cases_run) {
    std::printf("INVARIANT VIOLATION: %" PRIu64 " recovery runs for %" PRIu64
                " cases\n",
                result.recovery_runs, result.cases_run);
    exit_code = 1;
  }
  int checked = codes::campaign::CheckAndWrite(snapshot, flags.metrics_out);
  if (checked == 2) return 2;
  exit_code = std::max(exit_code, checked);

  // The whole campaign must replay byte-identically single-threaded:
  // every crash case owns its own SimEnv and outcome slot, so the digest
  // depends only on (config, seed), never on scheduling.
  if (flags.selfcheck) {
    int replayed = codes::campaign::ReplaySelfcheck(
        flags.threads, result.digest, [&]() -> codes::Result<uint64_t> {
          auto serial = codes::storage::RunCrashCampaign(MakeConfig(flags, 1));
          if (!serial.ok()) return serial.status();
          return serial->digest;
        });
    if (replayed == 2) return 2;
    exit_code = std::max(exit_code, replayed);
  }

  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::fprintf(stderr, "elapsed: %lld ms (%d threads)\n",
               static_cast<long long>(elapsed), flags.threads);
  return exit_code;
}
