#ifndef CODES_COMMON_EXEC_GUARD_H_
#define CODES_COMMON_EXEC_GUARD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace codes {

/// Resource budgets for one guarded operation. Zero means "unlimited" for
/// every field, so a default-constructed ExecLimits guards nothing and the
/// guarded code path is behaviourally identical to the unguarded one.
struct ExecLimits {
  /// Wall-clock budget in seconds, measured from ExecGuard construction
  /// (or the last ResetUsage with `rearm_deadline`).
  double deadline_seconds = 0.0;
  /// Maximum rows materialized (intermediate join/filter products and
  /// output rows both count — the budget is about memory, not semantics).
  size_t max_rows = 0;
  /// Maximum approximate bytes materialized. Accounting is
  /// sizeof(Value)-per-cell plus text payload sizes; an estimate, not an
  /// allocator-accurate figure.
  size_t max_bytes = 0;
  /// Maximum nesting depth of guarded sub-operations (subquery execution,
  /// set-operation arms).
  int max_depth = 0;
};

/// A per-request execution guard: wall-clock deadline, row/byte budgets
/// and nesting-depth budget, checked from the hot loops of the SQL
/// executor (and anywhere else a stage wants to honor serving budgets).
///
/// The guard is intentionally cheap when idle: a default ExecGuard (no
/// limits) short-circuits every check on one boolean, and deadline clock
/// reads are throttled to one in kTimeCheckStride row charges, so
/// guard-enabled execution stays within the ≤2% overhead budget of
/// bench_latency.
///
/// Thread model: one ExecGuard belongs to one request/worker thread. Usage
/// counters are plain (non-atomic) members.
class ExecGuard {
 public:
  /// No limits: all checks succeed.
  ExecGuard() = default;

  /// Guard with `limits`.
  explicit ExecGuard(const ExecLimits& limits);

  /// Flushes accumulated row/byte consumption into the global
  /// MetricsRegistry (`guard.rows_charged` / `guard.bytes_charged`) — one
  /// branch for an idle guard, two counter bumps for an active one.
  ~ExecGuard();

  /// Deadline check, unthrottled. Call at operation boundaries (start of
  /// a statement, start of a stage).
  Status Check();

  /// Charges one materialized row of ~`approx_bytes` bytes. Row/byte
  /// budgets are enforced exactly; the deadline is observed within
  /// kTimeCheckStride charges (checking it per row costs more than the
  /// row processing it guards). This is the one call executors need per
  /// produced row, so the fast path is inline: one branch when the guard
  /// is idle, increments and compares otherwise.
  Status ChargeRow(size_t approx_bytes) {
    if (!active_) return Status::Ok();
    ++rows_;
    bytes_ += approx_bytes;
    if (limits_.max_rows > 0 && rows_ > limits_.max_rows) {
      return BudgetStatus();
    }
    if (limits_.max_bytes > 0 && bytes_ > limits_.max_bytes) {
      return BudgetStatus();
    }
    if (++ticks_ >= kTimeCheckStride) {
      ticks_ = 0;
      return Check();
    }
    return Status::Ok();
  }

  /// Enters / leaves a nested guarded scope (subquery, set-op arm). A
  /// failed EnterNested does not enter the scope: call LeaveNested only
  /// after a successful enter.
  Status EnterNested();
  void LeaveNested();

  /// Clears row/byte usage (depth is scoped, not cleared) so one guard can
  /// budget several candidate executions of a single request. The deadline
  /// keeps running unless `rearm_deadline` is true. Usage cleared here is
  /// first flushed to the consumption counters, so per-candidate resets
  /// never lose accounting.
  void ResetUsage(bool rearm_deadline = false);

  /// True when any budget is configured; false for a default guard (used
  /// by callers to skip byte-estimation work).
  bool active() const { return active_; }
  /// True when max_bytes is set (callers skip byte estimation otherwise).
  bool tracks_bytes() const { return limits_.max_bytes > 0; }

  size_t rows_charged() const { return rows_; }
  size_t bytes_charged() const { return bytes_; }
  const ExecLimits& limits() const { return limits_; }

  /// Clock reads happen once per this many ChargeRow calls.
  static constexpr uint32_t kTimeCheckStride = 64;

 private:
  Status DeadlineStatus() const;
  /// Out-of-line: names whichever row/byte budget was exceeded.
  Status BudgetStatus() const;
  /// Adds current rows_/bytes_ to the global consumption counters.
  void FlushUsage();

  using Clock = std::chrono::steady_clock;

  ExecLimits limits_;
  bool active_ = false;
  Clock::time_point deadline_{};  ///< valid iff deadline_seconds > 0
  size_t rows_ = 0;
  size_t bytes_ = 0;
  int depth_ = 0;
  uint32_t ticks_ = 0;  ///< ChargeRow calls since last clock read
};

}  // namespace codes

#endif  // CODES_COMMON_EXEC_GUARD_H_
