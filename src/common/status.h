#ifndef CODES_COMMON_STATUS_H_
#define CODES_COMMON_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <variant>

namespace codes {

/// Error category for a failed operation. Mirrors the small set of failure
/// modes the library can produce; `kOk` means success.
///
/// The first block is the data-dependent taxonomy (bad input, bad SQL).
/// The second block — kTimeout / kResourceExhausted — is the
/// *guard* taxonomy introduced with ExecGuard (common/exec_guard.h): these
/// mean the operation itself may have been fine but a serving-side budget
/// ended it early. Degradation logic treats the two blocks differently:
/// a kParseError prediction is wrong, a kTimeout prediction is merely
/// unverified.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kParseError,      ///< SQL text could not be parsed.
  kBindError,       ///< SQL parsed but references unknown schema objects.
  kExecutionError,  ///< SQL bound but failed while executing.
  kInternal,
  kTimeout,            ///< a wall-clock deadline expired mid-operation.
  kResourceExhausted,  ///< a row/byte/depth budget was exceeded.
  kDataLoss,           ///< persisted bytes failed verification (torn write,
                       ///< bit rot, checksum mismatch). Unlike kInternal,
                       ///< retrying cannot help: the medium lied.
};

/// Returns a short human-readable name for `code` (e.g. "ParseError").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value, modeled after absl::Status.
/// The library does not throw exceptions across module boundaries; fallible
/// functions return `Status` or `Result<T>` instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "Code: message" for logs and error reports.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error holder, modeled after absl::StatusOr<T>.
/// Accessing `value()` on an error result aborts the process; callers must
/// check `ok()` first (or use `value_or`).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error keeps call sites terse:
  /// `return my_value;` / `return Status::ParseError(...)`.
  Result(T value) : data_(std::move(value)) {}
  Result(Status status) : data_(std::move(status)) {
    if (std::get<Status>(data_).ok()) {
      std::cerr << "Result constructed from OK status\n";
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }

  T& value() & {
    CheckOk();
    return std::get<T>(data_);
  }
  const T& value() const& {
    CheckOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(data_));
  }

  T value_or(T fallback) const {
    if (ok()) return std::get<T>(data_);
    return fallback;
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::cerr << "Result accessed without value: " << status().ToString()
                << "\n";
      std::abort();
    }
  }

  std::variant<T, Status> data_;
};

/// Propagates a non-OK Status out of the enclosing function (which must
/// return Status or Result<T>). Replaces hand-rolled
/// `Status s = Op(); if (!s.ok()) return s;` chains.
#define CODES_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::codes::Status codes_status_tmp_ = (expr);    \
    if (!codes_status_tmp_.ok()) {                 \
      return codes_status_tmp_;                    \
    }                                              \
  } while (0)

#define CODES_MACRO_CONCAT_INNER_(x, y) x##y
#define CODES_MACRO_CONCAT_(x, y) CODES_MACRO_CONCAT_INNER_(x, y)

/// Evaluates `rexpr` (a Result<T>); on error returns the Status out of the
/// enclosing function, otherwise move-assigns the value into `lhs`. `lhs`
/// may declare a new variable (`CODES_ASSIGN_OR_RETURN(auto v, Op())`) or
/// name an existing lvalue. At most one use per source line.
#define CODES_ASSIGN_OR_RETURN(lhs, rexpr) \
  CODES_ASSIGN_OR_RETURN_IMPL_(            \
      CODES_MACRO_CONCAT_(codes_result_tmp_, __LINE__), lhs, rexpr)

#define CODES_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                                 \
  if (!result.ok()) {                                    \
    return result.status();                              \
  }                                                      \
  lhs = std::move(result).value()

/// CHECK-style invariant macro: aborts with a message when `cond` is false.
/// Used for programmer errors, never for data-dependent failures.
#define CODES_CHECK(cond)                                                 \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::cerr << "CHECK failed: " #cond " at " << __FILE__ << ":"       \
                << __LINE__ << "\n";                                      \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

}  // namespace codes

#endif  // CODES_COMMON_STATUS_H_
