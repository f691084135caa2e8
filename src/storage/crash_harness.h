#ifndef CODES_STORAGE_CRASH_HARNESS_H_
#define CODES_STORAGE_CRASH_HARNESS_H_

// Deterministic crash-recovery campaign (DESIGN.md section 15).
//
// The harness builds a WAL-enabled StorageDb inside a SimEnv, runs a
// deterministic mixed insert/index workload once while RECORDING every
// write/sync/truncate boundary, then re-runs the workload once per
// (boundary, crash variant) pair with the CrashController armed at that
// boundary. After each simulated power loss it reboots the environment,
// reopens the database (which runs redo recovery), and differentially
// checks the recovered state against a pure-function oracle:
//
//   * the recovered row count must sit exactly on a batch boundary c, and
//     c must lie in the prefix-consistency window {j, j+1} where j is the
//     number of batches whose commit had fully completed before the crash
//     boundary (the +1 covers eager-buffer crashes inside a commit whose
//     WAL records all reached the durable image);
//   * the full content digest — sequential scan, three index range scans,
//     a point lookup, and the primary-key index stats — must be byte-for-
//     byte the oracle digest for prefix c, computed without any storage
//     code from the deterministic row generator.
//
// Campaign outcomes fold into one FNV digest in case order; the digest is
// independent of the thread count (each case owns a private SimEnv and the
// result slot vector is pre-assigned), which the codes_crash tool's
// --selfcheck mode pins.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/crash_sim.h"

namespace codes::storage {

struct CrashCampaignConfig {
  uint64_t seed = 1;
  /// Mutation batches appended (and committed) after the bulk load.
  int batches = 40;
  int rows_per_batch = 3;
  /// Rows bulk-loaded before the WAL workload starts.
  int initial_rows = 8;
  /// Checkpoint after every N batches; 0 = never checkpoint.
  int checkpoint_every = 7;
  /// Deliberately small so the workload evicts under WAL pressure.
  size_t pool_frames = 16;
  int threads = 1;
  /// Also crash mid-write with a half-persisted (torn) page/record.
  bool torn_variants = true;
  /// Cap on enumerated cases (deterministic stride sample); 0 = all.
  uint64_t max_cases = 0;
};

struct CrashCaseOutcome {
  uint64_t crash_op = 0;
  CrashVariant variant = CrashVariant::kLostBuffer;
  /// Batches surviving recovery; -1 when the case failed.
  int recovered_batches = -1;
  /// Empty when the case passed.
  std::string error;
};

struct CrashCampaignResult {
  /// Write/sync/truncate boundaries in the crash-free workload run.
  uint64_t boundaries = 0;
  uint64_t cases_run = 0;
  uint64_t cases_dropped = 0;  ///< sampled away by max_cases
  uint64_t failures = 0;
  /// FNV-1a over per-case outcome lines in enumeration order.
  uint64_t digest = 0;
  /// storage.recovery.* counter deltas across the campaign (their
  /// accounting identity is declared in storage_db.cc).
  uint64_t recovery_runs = 0;
  uint64_t wal_records_seen = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_records_discarded = 0;
  /// First few failing cases, for diagnostics.
  std::vector<CrashCaseOutcome> failed;
};

/// Runs the full campaign: every boundary x every applicable variant.
Result<CrashCampaignResult> RunCrashCampaign(const CrashCampaignConfig& config);

/// Replays a single crash case (corpus regression path): crash at boundary
/// `crash_op` with `variant`, recover, differential-check. kTorn derives
/// its torn prefix from the recorded write size, like the campaign.
Result<CrashCaseOutcome> RunCrashCase(const CrashCampaignConfig& config,
                                      uint64_t crash_op, CrashVariant variant);

}  // namespace codes::storage

#endif  // CODES_STORAGE_CRASH_HARNESS_H_
