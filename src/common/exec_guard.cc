#include "common/exec_guard.h"

#include <string>

#include "common/metrics.h"

namespace codes {

namespace {

/// Guard consumption and trip counters; registered once, stable across
/// MetricsRegistry::Reset().
struct GuardMetrics {
  Counter& rows_charged =
      MetricsRegistry::Global().GetCounter("guard.rows_charged");
  Counter& bytes_charged =
      MetricsRegistry::Global().GetCounter("guard.bytes_charged");
  Counter& timeout_trips =
      MetricsRegistry::Global().GetCounter("guard.trips.timeout");
  Counter& budget_trips =
      MetricsRegistry::Global().GetCounter("guard.trips.resource_exhausted");
};

GuardMetrics& Metrics() {
  static GuardMetrics* metrics = new GuardMetrics();  // never freed
  return *metrics;
}

}  // namespace

ExecGuard::ExecGuard(const ExecLimits& limits) : limits_(limits) {
  active_ = limits_.deadline_seconds > 0.0 || limits_.max_rows > 0 ||
            limits_.max_bytes > 0 || limits_.max_depth > 0;
  if (limits_.deadline_seconds > 0.0) {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       limits_.deadline_seconds));
  }
}

ExecGuard::~ExecGuard() { FlushUsage(); }

void ExecGuard::FlushUsage() {
  if (rows_ == 0 && bytes_ == 0) return;
  Metrics().rows_charged.Increment(rows_);
  Metrics().bytes_charged.Increment(bytes_);
}

Status ExecGuard::DeadlineStatus() const {
  Metrics().timeout_trips.Increment();
  return Status::Timeout("deadline of " +
                         std::to_string(limits_.deadline_seconds) +
                         "s exceeded");
}

Status ExecGuard::Check() {
  if (!active_) return Status::Ok();
  if (limits_.deadline_seconds > 0.0 && Clock::now() > deadline_) {
    return DeadlineStatus();
  }
  return Status::Ok();
}

Status ExecGuard::BudgetStatus() const {
  Metrics().budget_trips.Increment();
  if (limits_.max_rows > 0 && rows_ > limits_.max_rows) {
    return Status::ResourceExhausted(
        "row budget of " + std::to_string(limits_.max_rows) +
        " rows exceeded");
  }
  return Status::ResourceExhausted(
      "byte budget of " + std::to_string(limits_.max_bytes) +
      " bytes exceeded");
}

Status ExecGuard::EnterNested() {
  // On failure the scope is NOT entered (depth unchanged) so callers can
  // uniformly skip LeaveNested on a failed enter without leaking depth
  // into later candidate executions that reuse this guard.
  CODES_RETURN_IF_ERROR(Check());
  if (limits_.max_depth > 0 && depth_ + 1 > limits_.max_depth) {
    return Status::ResourceExhausted(
        "nesting depth budget of " + std::to_string(limits_.max_depth) +
        " exceeded");
  }
  ++depth_;
  return Status::Ok();
}

void ExecGuard::LeaveNested() {
  if (depth_ > 0) --depth_;
}

void ExecGuard::ResetUsage(bool rearm_deadline) {
  FlushUsage();
  rows_ = 0;
  bytes_ = 0;
  ticks_ = 0;
  if (rearm_deadline && limits_.deadline_seconds > 0.0) {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       limits_.deadline_seconds));
  }
}

}  // namespace codes
