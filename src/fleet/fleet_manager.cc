#include "fleet/fleet_manager.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/status.h"

namespace codes {
namespace fleet {

namespace {

/// Fleet residency counters and gauges. Attach counters count *cold*
/// attaches (evicted/never-built -> resident transitions), split by how
/// the index was obtained; a lease against an already-resident index
/// bumps nothing. Gauges mirror the fleet's current occupancy.
struct FleetMetrics {
  Counter& attach = MetricsRegistry::Global().GetCounter("fleet.attach");
  Counter& attach_build =
      MetricsRegistry::Global().GetCounter("fleet.attach.build");
  Counter& attach_snapshot =
      MetricsRegistry::Global().GetCounter("fleet.attach.snapshot");
  Counter& evict = MetricsRegistry::Global().GetCounter("fleet.evict");
  Gauge& resident_bytes =
      MetricsRegistry::Global().GetGauge("fleet.resident_bytes");
  Gauge& resident_tenants =
      MetricsRegistry::Global().GetGauge("fleet.resident_tenants");
  Gauge& resident_bytes_peak =
      MetricsRegistry::Global().GetGauge("fleet.resident_bytes_peak");

  FleetMetrics() {
    // Every cold attach is either a source build or a snapshot load.
    MetricsRegistry::Global().DeclareInvariant(
        {"fleet.attach", {"fleet.attach.build", "fleet.attach.snapshot"}});
  }
};

FleetMetrics& Metrics() {
  static FleetMetrics* metrics = new FleetMetrics();  // never freed
  return *metrics;
}

/// Snapshot layout: magic, version, Crc32 of the payload, payload (one
/// ValueRetriever::SaveTo image).
constexpr uint32_t kTenantMagic = 0x544E4E54;  // "TNNT"
constexpr uint32_t kTenantVersion = 2;

}  // namespace

FleetManager::FleetManager(const Options& options) : options_(options) {
  if (!options_.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.snapshot_dir, ec);
    // A failed mkdir degrades to "no persistence": every attach rebuilds.
    if (ec) options_.snapshot_dir.clear();
  }
}

int FleetManager::AddTenant(TenantDesc desc) {
  std::lock_guard<std::mutex> lock(mu_);
  CODES_CHECK(desc.db != nullptr && "fleet tenant needs a database");
  CODES_CHECK(tenant_ids_.find(desc.name) == tenant_ids_.end() &&
              "duplicate fleet tenant name");
  int id = static_cast<int>(tenants_.size());
  tenant_ids_.emplace(desc.name, id);
  tenants_.push_back(TenantState{std::move(desc), nullptr, 0, 0});
  return id;
}

std::string FleetManager::SnapshotPath(int tenant) const {
  if (options_.snapshot_dir.empty()) return "";
  return options_.snapshot_dir + "/" +
         tenants_[static_cast<size_t>(tenant)].desc.name + ".tenant";
}

std::shared_ptr<const ValueRetriever> FleetManager::LoadSnapshot(
    const std::string& path) const {
  if (path.empty()) return nullptr;
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  serial::Reader reader(data);
  uint32_t crc = 0;
  if (!serial::ReadMagic(&reader, kTenantMagic, kTenantVersion) ||
      !reader.ReadU32(&crc) ||
      Crc32(data.data() + reader.pos(), reader.remaining()) != crc) {
    return nullptr;
  }
  auto retriever = std::make_shared<ValueRetriever>();
  // Trailing bytes mean the file is not what PersistSnapshot wrote —
  // treat like any other malformation and rebuild from source.
  if (!retriever->LoadFrom(&reader).ok() || !reader.Done()) return nullptr;
  return retriever;
}

void FleetManager::PersistSnapshot(const std::string& path,
                                   const ValueRetriever& retriever) const {
  if (path.empty()) return;
  std::string payload;
  retriever.SaveTo(&payload);
  std::string data;
  serial::PutMagic(&data, kTenantMagic, kTenantVersion);
  serial::PutU32(&data, Crc32(payload.data(), payload.size()));
  data += payload;
  // Write-then-rename so a crash mid-write leaves either the old snapshot
  // or none — a torn file would just be rebuilt, but never half-trusted.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

void FleetManager::UpdateResidencyGaugesLocked() {
  FleetMetrics& m = Metrics();
  m.resident_bytes.Set(static_cast<int64_t>(resident_bytes_));
  size_t resident = 0;
  for (const TenantState& state : tenants_) {
    if (state.resident != nullptr) ++resident;
  }
  m.resident_tenants.Set(static_cast<int64_t>(resident));
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  // The gauge is compared against its own value, not the fleet's
  // lifetime peak, so it restarts from 0 with every registry reset.
  if (static_cast<int64_t>(resident_bytes_) > m.resident_bytes_peak.Value()) {
    m.resident_bytes_peak.Set(static_cast<int64_t>(resident_bytes_));
  }
}

void FleetManager::EvictOverBudgetLocked(int keep) {
  if (options_.memory_budget_bytes == 0) return;
  while (resident_bytes_ > options_.memory_budget_bytes) {
    int victim = -1;
    uint64_t oldest = ~0ULL;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      if (static_cast<int>(i) == keep) continue;
      if (tenants_[i].resident == nullptr) continue;
      if (tenants_[i].last_use < oldest) {
        oldest = tenants_[i].last_use;
        victim = static_cast<int>(i);
      }
    }
    if (victim < 0) return;  // only `keep` is resident: keep serving it
    TenantState& state = tenants_[static_cast<size_t>(victim)];
    resident_bytes_ -= state.bytes;
    state.resident = nullptr;  // outstanding leases stay alive
    state.bytes = 0;
    Metrics().evict.Increment();
  }
}

std::shared_ptr<const ValueRetriever> FleetManager::Attach(int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
    return nullptr;
  }
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  state.last_use = ++use_clock_;
  if (state.resident != nullptr) return state.resident;

  FleetMetrics& m = Metrics();
  const std::string path = SnapshotPath(tenant);
  std::shared_ptr<const ValueRetriever> retriever = LoadSnapshot(path);
  if (retriever != nullptr) {
    m.attach_snapshot.Increment();
  } else {
    auto built = std::make_shared<ValueRetriever>();
    built->BuildIndex(*state.desc.db);
    PersistSnapshot(path, *built);
    retriever = std::move(built);
    m.attach_build.Increment();
  }
  m.attach.Increment();
  state.resident = retriever;
  state.bytes = retriever->ApproxBytes();
  resident_bytes_ += state.bytes;
  EvictOverBudgetLocked(tenant);
  UpdateResidencyGaugesLocked();
  return retriever;
}

void FleetManager::WarmAll() {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    (void)Attach(static_cast<int>(i));
  }
  EvictAll();
}

void FleetManager::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (TenantState& state : tenants_) {
    if (state.resident == nullptr) continue;
    resident_bytes_ -= state.bytes;
    state.resident = nullptr;
    state.bytes = 0;
    Metrics().evict.Increment();
  }
  UpdateResidencyGaugesLocked();
}

size_t FleetManager::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

size_t FleetManager::NumResident() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t resident = 0;
  for (const TenantState& state : tenants_) {
    if (state.resident != nullptr) ++resident;
  }
  return resident;
}

size_t FleetManager::PeakResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

std::vector<serve::WeightedFairLimiter::TenantSpec>
FleetManager::AdmissionSpecs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<serve::WeightedFairLimiter::TenantSpec> specs;
  specs.reserve(tenants_.size());
  for (const TenantState& state : tenants_) {
    specs.push_back(serve::WeightedFairLimiter::TenantSpec{
        state.desc.admission_weight, state.desc.admission_burst});
  }
  return specs;
}

std::vector<std::string> FleetManager::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const TenantState& state : tenants_) {
    names.push_back(state.desc.name);
  }
  return names;
}

}  // namespace fleet
}  // namespace codes
