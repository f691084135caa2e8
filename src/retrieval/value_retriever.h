#ifndef CODES_RETRIEVAL_VALUE_RETRIEVER_H_
#define CODES_RETRIEVAL_VALUE_RETRIEVER_H_

#include <string>
#include <vector>

#include "common/exec_guard.h"
#include "common/status.h"
#include "index/bm25_index.h"
#include "sqlengine/database.h"

namespace codes {

/// A database value matched to a question.
struct RetrievedValue {
  std::string text;
  int table = -1;
  int column = -1;
  double score = 0.0;  ///< fine-grained LCS match degree
};

/// The coarse-to-fine value retriever of Section 6.2: a BM25 index over
/// every distinct text value in the database performs a fast coarse
/// search; the longest-common-substring match degree re-ranks the few
/// hundred coarse candidates. This reduces LCS invocations from
/// |values| to `coarse_k` per query.
class ValueRetriever {
 public:
  ValueRetriever() = default;

  /// Indexes every distinct non-null TEXT value of `db`. The database must
  /// outlive retrieval only if you plan to re-index; retrieved values are
  /// self-contained copies.
  void BuildIndex(const sql::Database& db);

  /// Guarded index construction for the serving path. `guard`, when
  /// non-null, is polled for its deadline while values are scanned
  /// (row/byte budgets are not charged — those belong to SQL execution).
  /// `check_failpoint` controls whether this call evaluates the
  /// value_retriever.build_index failpoint itself; the pipeline passes
  /// false because it evaluates that site once per request, cache hit or
  /// miss, to keep fault decisions independent of cache state. On failure
  /// the retriever is left empty and safe to discard or rebuild.
  Status TryBuildIndex(const sql::Database& db, ExecGuard* guard = nullptr,
                       bool check_failpoint = true);

  /// Number of distinct indexed values.
  size_t NumIndexedValues() const { return entries_.size(); }

  /// Coarse-to-fine retrieval: BM25 top-`coarse_k`, LCS re-rank, return
  /// top-`fine_k` (deduplicated by (table, column, text)).
  std::vector<RetrievedValue> Retrieve(const std::string& question,
                                       int coarse_k = 200,
                                       int fine_k = 6) const;

  /// Baseline for the §6.2 latency claim: LCS over every indexed value.
  std::vector<RetrievedValue> RetrieveBruteForce(const std::string& question,
                                                 int fine_k = 6) const;

  /// Resident cost in bytes (entries plus the BM25 index) — what the
  /// fleet manager charges against its memory budget.
  size_t ApproxBytes() const;

  /// Appends a snapshot (entry table + BM25 index) to `out`. Entry texts
  /// are not duplicated — they equal the index's document texts, so the
  /// snapshot stores only (table, column) pairs alongside the index.
  void SaveTo(std::string* out) const;

  /// Restores a retriever from SaveTo bytes, consuming one snapshot from
  /// `reader`. Returns kDataLoss (retriever left empty) on malformation;
  /// on success Retrieve results are byte-identical to the saved one.
  Status LoadFrom(serial::Reader* reader);

 private:
  struct Entry {
    std::string text;
    int table;
    int column;
  };

  std::vector<RetrievedValue> FineRank(const std::string& question,
                                       const std::vector<int>& candidates,
                                       int fine_k) const;

  std::vector<Entry> entries_;
  Bm25Index index_;
};

}  // namespace codes

#endif  // CODES_RETRIEVAL_VALUE_RETRIEVER_H_
