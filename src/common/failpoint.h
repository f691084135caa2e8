#ifndef CODES_COMMON_FAILPOINT_H_
#define CODES_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace codes {

/// Named fault-injection sites. Each corresponds to one operation of the
/// serving path that production hardening must assume can fail:
///
///   classifier.score             schema item classifier scoring
///   value_retriever.build_index  per-database value index construction
///   bm25.lookup                  coarse BM25 candidate lookup
///   executor.step                SQL executor row production
///   lm.decode                    LM decoding of one beam candidate
///   storage.page_read            disk page read into the buffer pool
///   storage.evict                dirty-page write-back during eviction
///   storage.split                B+ tree node split
///   storage.sync                 data-file durability barrier (fdatasync)
///   storage.wal.sync             WAL group-flush durability barrier
///   storage.torn_write           page write persists only a prefix (the
///                                write itself reports success; the tear
///                                surfaces later as a checksum kDataLoss)
///
/// Sites are compiled in unconditionally; when no failpoint is configured
/// the per-site check is one relaxed atomic load.
enum class FailpointSite : int {
  kClassifierScore = 0,
  kValueRetrieverBuildIndex,
  kBm25Lookup,
  kExecutorStep,
  kLmDecode,
  kStoragePageRead,
  kStorageEvict,
  kStorageSplit,
  kStorageSync,
  kStorageWalSync,
  kStorageTornWrite,
  kNumSites,  // sentinel
};

inline constexpr int kNumFailpointSites =
    static_cast<int>(FailpointSite::kNumSites);

/// Dotted site name ("classifier.score"). Inverse of FailpointSiteByName.
const char* FailpointSiteName(FailpointSite site);

/// Parses a dotted site name; returns kNumSites when unknown.
FailpointSite FailpointSiteByName(std::string_view name);

/// How an armed site decides to fire. All triggers are evaluated inside
/// the current deterministic scope (see FailpointScope): the decision is a
/// pure function of (campaign seed, site, scope slot, per-scope evaluation
/// counter), never of wall clock, thread identity, or global evaluation
/// order — which is what makes chaos campaigns byte-identical at any
/// thread count (the same slot-based determinism contract the parallel
/// evaluator and fuzzer follow).
struct FailpointSpec {
  enum class Trigger {
    kOff,          ///< never fires
    kProbability,  ///< fires pseudo-randomly with `probability`
    kEveryNth,     ///< fires on every `nth` evaluation within a scope
    kOneShot,      ///< fires on the first evaluation within each scope
  };
  Trigger trigger = Trigger::kOff;
  double probability = 0.0;
  uint64_t nth = 0;
};

/// Process-wide failpoint registry.
///
/// Configuration model: configure-then-run. Configure/Clear must not race
/// with ShouldFail from other threads (same setup/inference phase contract
/// as CodesPipeline); ShouldFail itself is safe to call from any number of
/// threads concurrently.
class Failpoints {
 public:
  /// True when at least one site is armed (one relaxed atomic load).
  static bool Enabled();

  /// Parses and installs a campaign spec. Grammar (';'-separated):
  ///   <site>=prob:<p>     fire with probability p in [0,1]
  ///   <site>=nth:<n>      fire on every n-th in-scope evaluation
  ///   <site>=oneshot      fire on the first in-scope evaluation
  ///   *=<trigger>         arm every registered site
  /// Example: "classifier.score=prob:0.01;executor.step=nth:3".
  /// `seed` drives every probabilistic decision; rerunning with the same
  /// spec and seed reproduces the exact fault pattern.
  static Status Configure(const std::string& spec, uint64_t seed);

  /// Disarms everything and zeroes statistics.
  static void Clear();

  /// Evaluates the site's trigger in the current scope. False whenever the
  /// registry is disabled or the site is off.
  static bool ShouldFail(FailpointSite site);

  /// The canonical error a fired site reports.
  static Status FailStatus(FailpointSite site);

  /// Number of times `site` fired since the last Clear()/Configure().
  static uint64_t FiredCount(FailpointSite site);
};

/// Establishes the deterministic decision scope for one unit of work (one
/// serving request, one chaos query) on the current thread. The slot seed
/// should identify the work unit independently of scheduling — e.g. the
/// per-sample generation seed — so that re-running a campaign at a
/// different thread count replays identical faults. Scopes nest; the
/// destructor restores the outer scope. Per-site evaluation counters reset
/// on scope entry.
class FailpointScope {
 public:
  explicit FailpointScope(uint64_t slot_seed);
  ~FailpointScope();

  FailpointScope(const FailpointScope&) = delete;
  FailpointScope& operator=(const FailpointScope&) = delete;

 private:
  void* prev_;  ///< opaque ScopeState*
};

}  // namespace codes

#endif  // CODES_COMMON_FAILPOINT_H_
