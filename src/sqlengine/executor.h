#ifndef CODES_SQLENGINE_EXECUTOR_H_
#define CODES_SQLENGINE_EXECUTOR_H_

#include <memory>
#include <string_view>

#include "common/exec_guard.h"
#include "common/status.h"
#include "sqlengine/ast.h"
#include "sqlengine/database.h"
#include "sqlengine/exec_source.h"
#include "sqlengine/result_table.h"

namespace codes::sql {

/// Query executor over any ExecSource backend — the in-memory Database or
/// the disk-backed storage engine. The same AST produces byte-identical
/// results over either (the two-backend equivalence contract, DESIGN.md
/// section 14).
///
/// Supported plan shapes: scans, inner equi-/theta-joins (hash join is used
/// automatically for equality ON conditions), WHERE filters, grouped and
/// global aggregation with HAVING, DISTINCT, ORDER BY (expressions, select
/// aliases, or 1-based positions), LIMIT, set operations, uncorrelated IN /
/// scalar subqueries, and the scalar functions ABS, ROUND, LENGTH, UPPER,
/// LOWER, SUBSTR, CAST.
///
/// Access paths: the first FROM table is read through a pluggable access
/// path. Backends exposing indexes get an index scan when the WHERE clause
/// has a sargable conjunct (`col op literal`, `col BETWEEN lit AND lit`)
/// whose estimated selectivity passes a simple cost rule; everything else
/// is a sequential scan. Path choice never changes results — an index scan
/// is a pure prefilter and the full WHERE clause is still applied.
///
/// Guarded execution: when a non-null ExecGuard is passed, row production
/// charges its row/byte budgets, the deadline is polled from every
/// materializing loop, and subquery / set-operation arms count against
/// the guard's nesting-depth budget. Guard violations surface as
/// StatusCode::{kTimeout, kResourceExhausted}. A null guard
/// (the default) is the historical unguarded behaviour.
class Executor {
 public:
  explicit Executor(const ExecSource& source) : source_(source) {}

  /// Executes `stmt` and returns the result table. `guard`, when non-null,
  /// must outlive the call; it is shared by nested subquery execution.
  Result<ResultTable> Execute(const SelectStatement& stmt,
                              ExecGuard* guard = nullptr) const;

 private:
  const ExecSource& source_;
};

/// Parses and executes `sql` against `source` in one step, honoring `guard`
/// during execution (parsing enforces its own fixed nesting-depth cap).
Result<ResultTable> ExecuteSql(const ExecSource& source, std::string_view sql,
                               ExecGuard* guard = nullptr);

/// True if `sql` parses and executes without error ("is executable"), the
/// predicate the paper uses to pick among beam candidates.
bool IsExecutable(const ExecSource& source, std::string_view sql);

}  // namespace codes::sql

#endif  // CODES_SQLENGINE_EXECUTOR_H_
