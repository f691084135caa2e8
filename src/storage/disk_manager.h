#ifndef CODES_STORAGE_DISK_MANAGER_H_
#define CODES_STORAGE_DISK_MANAGER_H_

// Page-granular I/O under the buffer pool. Three modes share one API:
// file-backed (a real database file), in-memory (a vector of pages; powers
// the fuzz storage-differential oracle and most tests), and simulated
// (a crash_sim SimFile; powers the deterministic crash campaign).
//
// Every page carries a physical header (page.h): WritePage stamps a CRC-32
// over bytes [4, kPageSize) and ReadPage verifies it, so torn writes and
// bit rot surface as a typed kDataLoss status instead of garbage rows. An
// all-zero page is accepted as valid (allocated but never written).
// Failpoints: storage.page_read injects media read errors,
// storage.torn_write silently persists only a page prefix (the write
// reports success; the tear surfaces on a later read), storage.sync
// injects durability-barrier failures.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/crash_sim.h"
#include "storage/page.h"

namespace codes::storage {

class DiskManager {
 public:
  /// Pure in-memory page store (no file).
  static std::unique_ptr<DiskManager> CreateInMemory();

  /// Creates/truncates a database file.
  static Result<std::unique_ptr<DiskManager>> Create(const std::string& path);

  /// Opens an existing database file; page count comes from the file size.
  /// A trailing partial page (torn final-page write) is tolerated and
  /// ignored — recovery re-extends the file as the WAL dictates.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);

  /// Creates/opens a simulated file in `env` (crash campaigns). The env
  /// must outlive the manager.
  static Result<std::unique_ptr<DiskManager>> OpenSim(SimEnv* env,
                                                      const std::string& name);

  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Appends one zeroed page and returns its id.
  Result<PageId> Allocate();

  /// Extends the file with zeroed pages until `count` pages exist. Used by
  /// recovery when the WAL references pages past a truncated data file.
  Status EnsurePageCount(size_t count);

  /// Reads page `id` into `out` (kPageSize bytes) and verifies its
  /// checksum; a mismatch returns kDataLoss.
  Status ReadPage(PageId id, std::byte* out);

  /// Stamps the checksum of `data` (kPageSize bytes) and writes it to page
  /// `id`. The caller's buffer is not modified.
  Status WritePage(PageId id, const std::byte* data);

  /// Durability barrier: fdatasync in file mode, durable promotion in sim
  /// mode, no-op in memory mode. Evaluates the storage.sync failpoint.
  Status Sync();

  /// Test-only fault injection: XOR-flips one stored byte of page `id`
  /// WITHOUT restamping the checksum, so the next ReadPage on it reports
  /// kDataLoss (unless the flip lands in the checksum field itself — pass
  /// an offset >= kPageHeaderBytes to corrupt payload). All three modes.
  Status CorruptPageForTest(PageId id, size_t offset);

  size_t page_count() const;
  bool in_memory() const { return file_ == nullptr && sim_ == nullptr; }

  /// Physical page reads (including failpoint-failed attempts).
  uint64_t read_count() const;

 private:
  DiskManager() = default;

  Status ReadRawLocked(PageId id, std::byte* out);
  Status WriteRawLocked(PageId id, const std::byte* data, size_t n);

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;  // file mode
  SimFile* sim_ = nullptr;     // sim mode (owned by the SimEnv)
  std::vector<std::unique_ptr<std::byte[]>> pages_;  // memory mode storage
  size_t page_count_ = 0;
  uint64_t reads_ = 0;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_DISK_MANAGER_H_
