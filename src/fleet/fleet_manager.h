#ifndef CODES_FLEET_FLEET_MANAGER_H_
#define CODES_FLEET_FLEET_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "retrieval/value_retriever.h"
#include "serve/admission.h"
#include "sqlengine/database.h"

namespace codes {
namespace fleet {

/// A database fleet manager: owns N tenants in one process, attaching
/// each tenant's BM25 value index (CodeS SIGMOD'24 §6.2 — the one serving
/// artifact Algorithm 1 builds per database) lazily, persisting it so a
/// cold re-attach skips the tokenization pass, and evicting
/// least-recently-used indexes once the configured global memory budget
/// is exceeded. The schema item classifier and the demonstration pool
/// are cross-database and stay pipeline-wide.
///
/// Indexes are immutable once built and handed out as shared_ptr leases:
/// eviction drops the fleet's reference, but an in-flight request keeps
/// its lease alive until it finishes — there is never a dangling index
/// pointer, only a briefly over-budget process.
///
/// Metrics: fleet.attach / fleet.attach.build / fleet.attach.snapshot /
/// fleet.evict counters (declared invariant: attach == build + snapshot),
/// fleet.resident_bytes / fleet.resident_tenants gauges, and
/// fleet.resident_bytes_peak, the high-water mark of resident bytes since
/// the last registry reset.
///
/// Thread-safety: all public methods are serialized by an internal mutex.
/// Attach builds under the lock — the determinism campaigns drive the
/// fleet from a single DES thread, and live serving amortizes builds via
/// snapshots, so a coarse lock is the simple correct choice. Leases
/// returned by Attach are immutable and safe to use from any thread.
class FleetManager {
 public:
  struct Options {
    /// Global budget over the sum of resident index bytes; 0 = no limit.
    /// At least one index stays resident even when a single index
    /// exceeds the budget (a fleet that can hold nothing serves nothing).
    size_t memory_budget_bytes = 0;
    /// Directory for per-tenant snapshot files ("<name>.tenant"). Empty
    /// disables persistence: every cold attach rebuilds from source.
    std::string snapshot_dir;
  };

  /// Registration-time description of a tenant. The database pointer is
  /// borrowed and must outlive the fleet; it is the rebuild source of
  /// truth when no snapshot exists (or a snapshot fails verification).
  struct TenantDesc {
    std::string name;                 ///< unique; used in metrics + files
    const sql::Database* db = nullptr;  ///< value-index source (required)
    /// Relative weight for weighted-fair admission.
    double admission_weight = 1.0;
    /// Per-tenant admission burst (tokens).
    double admission_burst = 8.0;
  };

  explicit FleetManager(const Options& options);

  /// Registers a tenant; nothing is built yet. Returns the tenant id used
  /// by Attach and the admission layer. Names must be unique.
  int AddTenant(TenantDesc desc);

  int NumTenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& TenantName(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].desc.name;
  }

  /// The tenant's value index, building (or reloading from snapshot) on
  /// first use and touching its LRU stamp. Never returns null for a valid
  /// id; returns null for an out-of-range id. The lease keeps the index
  /// alive across eviction.
  std::shared_ptr<const ValueRetriever> Attach(int tenant);

  /// Builds (and persists, when a snapshot_dir is configured) every
  /// tenant's index once, then evicts them all. After a warm-up, every
  /// Attach in a campaign is a snapshot load — the same work on every
  /// replay, which is what keeps fleet metric counts run-invariant.
  void WarmAll();

  /// Drops every resident index (outstanding leases stay valid).
  /// Counts as evictions in the metrics.
  void EvictAll();

  /// Sum of resident index bytes / number of resident indexes.
  size_t ResidentBytes() const;
  size_t NumResident() const;
  /// High-water mark of ResidentBytes over the fleet's lifetime.
  size_t PeakResidentBytes() const;

  /// Per-tenant weighted-fair admission specs, in tenant-id order —
  /// plug into AdmissionController::Options::tenants.
  std::vector<serve::WeightedFairLimiter::TenantSpec> AdmissionSpecs() const;
  /// Tenant names in tenant-id order — plug into
  /// FrontEndOptions::tenant_names.
  std::vector<std::string> TenantNames() const;

  /// Path of `tenant`'s snapshot file ("" when persistence is disabled).
  std::string SnapshotPath(int tenant) const;

 private:
  struct TenantState {
    TenantDesc desc;
    std::shared_ptr<const ValueRetriever> resident;  ///< null = evicted
    size_t bytes = 0;  ///< resident->ApproxBytes(), 0 when evicted
    uint64_t last_use = 0;
  };

  /// Attempts a snapshot load from `path` ("" = persistence disabled);
  /// null when missing, malformed or failing its checksum (the caller
  /// falls back to a source build — snapshots are a cache).
  std::shared_ptr<const ValueRetriever> LoadSnapshot(
      const std::string& path) const;
  /// Serializes + atomically writes the index's snapshot file.
  void PersistSnapshot(const std::string& path,
                       const ValueRetriever& retriever) const;
  /// Evicts LRU indexes until the budget holds; `keep` is exempt.
  void EvictOverBudgetLocked(int keep);
  void UpdateResidencyGaugesLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<TenantState> tenants_;
  std::unordered_map<std::string, int> tenant_ids_;
  size_t resident_bytes_ = 0;
  size_t peak_resident_bytes_ = 0;
  uint64_t use_clock_ = 0;
};

}  // namespace fleet
}  // namespace codes

#endif  // CODES_FLEET_FLEET_MANAGER_H_
