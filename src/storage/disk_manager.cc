#include "storage/disk_manager.h"

#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace codes::storage {

namespace {

Counter& PageReadCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.page_reads");
  return c;
}

Counter& PageWriteCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.page_writes");
  return c;
}

Counter& ChecksumFailureCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.checksum_failures");
  return c;
}

/// Bytes a torn write persists when storage.torn_write fires: enough to
/// cover the checksum field and part of the payload, so the tear is
/// guaranteed to be detectable (stale tail under a fresh checksum).
constexpr size_t kTornWriteBytes = kPageSize / 2;

bool IsAllZero(const std::byte* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != std::byte{0}) return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<DiskManager> DiskManager::CreateInMemory() {
  return std::unique_ptr<DiskManager>(new DiskManager());
}

Result<std::unique_ptr<DiskManager>> DiskManager::Create(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::Internal("cannot create database file: " + path);
  }
  auto dm = std::unique_ptr<DiskManager>(new DiskManager());
  dm->file_ = f;
  return dm;
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) {
    return Status::NotFound("cannot open database file: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::Internal("cannot size database file: " + path);
  }
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot size database file: " + path);
  }
  auto dm = std::unique_ptr<DiskManager>(new DiskManager());
  dm->file_ = f;
  // Round DOWN: a crash can tear the write that extended the file, leaving
  // a partial trailing page. The tail is unreadable garbage either way;
  // recovery re-extends from the WAL.
  dm->page_count_ = static_cast<size_t>(size) / kPageSize;
  return dm;
}

Result<std::unique_ptr<DiskManager>> DiskManager::OpenSim(
    SimEnv* env, const std::string& name) {
  auto dm = std::unique_ptr<DiskManager>(new DiskManager());
  dm->sim_ = env->GetFile(name);
  dm->page_count_ = static_cast<size_t>(dm->sim_->size()) / kPageSize;
  return dm;
}

DiskManager::~DiskManager() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DiskManager::ReadRawLocked(PageId id, std::byte* out) {
  if (sim_ != nullptr) {
    return sim_->Read(static_cast<uint64_t>(id) * kPageSize, out, kPageSize);
  }
  if (file_ == nullptr) {
    std::memcpy(out, pages_[id].get(), kPageSize);
    return Status::Ok();
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fread(out, 1, kPageSize, file_) != kPageSize) {
    return Status::Internal("short read of page " + std::to_string(id));
  }
  return Status::Ok();
}

Status DiskManager::WriteRawLocked(PageId id, const std::byte* data,
                                   size_t n) {
  if (sim_ != nullptr) {
    return sim_->Write(static_cast<uint64_t>(id) * kPageSize, data, n);
  }
  if (file_ == nullptr) {
    std::memcpy(pages_[id].get(), data, n);
    return Status::Ok();
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fwrite(data, 1, n, file_) != n) {
    return Status::Internal("short write of page " + std::to_string(id));
  }
  return Status::Ok();
}

Result<PageId> DiskManager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_count_ >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  PageId id = static_cast<PageId>(page_count_);
  std::byte zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  if (file_ == nullptr && sim_ == nullptr) {
    auto page = std::make_unique<std::byte[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
    pages_.push_back(std::move(page));
  } else {
    CODES_RETURN_IF_ERROR(WriteRawLocked(id, zeros, kPageSize));
  }
  ++page_count_;
  return id;
}

Status DiskManager::EnsurePageCount(size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  std::byte zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  while (page_count_ < count) {
    PageId id = static_cast<PageId>(page_count_);
    if (file_ == nullptr && sim_ == nullptr) {
      auto page = std::make_unique<std::byte[]>(kPageSize);
      std::memset(page.get(), 0, kPageSize);
      pages_.push_back(std::move(page));
    } else {
      CODES_RETURN_IF_ERROR(WriteRawLocked(id, zeros, kPageSize));
    }
    ++page_count_;
  }
  return Status::Ok();
}

Status DiskManager::ReadPage(PageId id, std::byte* out) {
  if (Failpoints::ShouldFail(FailpointSite::kStoragePageRead)) {
    return Failpoints::FailStatus(FailpointSite::kStoragePageRead);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_) {
    return Status::Internal("read of unallocated page " + std::to_string(id));
  }
  ++reads_;
  PageReadCounter().Increment();
  CODES_RETURN_IF_ERROR(ReadRawLocked(id, out));
  // Verify the physical header checksum. An all-zero page is an allocated
  // page that was never written — valid by definition (and a nonzero CRC
  // over zero payload means it cannot be confused with a stamped page).
  uint32_t stored = LoadU32(out + kPageChecksumOff);
  uint32_t actual =
      Crc32(out + kPageFlagsOff, kPageSize - kPageFlagsOff);
  if (stored != actual && !(stored == 0 && IsAllZero(out, kPageSize))) {
    ChecksumFailureCounter().Increment();
    return Status::DataLoss(
        "page " + std::to_string(id) + " checksum mismatch (stored " +
        std::to_string(stored) + ", computed " + std::to_string(actual) +
        "): torn write or corruption");
  }
  return Status::Ok();
}

Status DiskManager::WritePage(PageId id, const std::byte* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_) {
    return Status::Internal("write of unallocated page " +
                            std::to_string(id));
  }
  PageWriteCounter().Increment();
  // Stamp the checksum into a scratch image so the caller's buffer (a
  // buffer-pool frame) is never mutated here.
  std::byte stamped[kPageSize];
  std::memcpy(stamped, data, kPageSize);
  StoreU32(stamped + kPageChecksumOff,
           Crc32(stamped + kPageFlagsOff, kPageSize - kPageFlagsOff));
  if (Failpoints::ShouldFail(FailpointSite::kStorageTornWrite)) {
    // Persist only a prefix and report success: the lie every torn write
    // tells. The stale suffix fails checksum verification on read.
    CODES_RETURN_IF_ERROR(WriteRawLocked(id, stamped, kTornWriteBytes));
    return Status::Ok();
  }
  return WriteRawLocked(id, stamped, kPageSize);
}

Status DiskManager::Sync() {
  if (Failpoints::ShouldFail(FailpointSite::kStorageSync)) {
    return Failpoints::FailStatus(FailpointSite::kStorageSync);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sim_ != nullptr) return sim_->Sync();
  if (file_ == nullptr) return Status::Ok();
  if (std::fflush(file_) != 0) {
    return Status::Internal("cannot flush database file");
  }
#ifndef _WIN32
  if (::fdatasync(::fileno(file_)) != 0) {
    return Status::Internal("fdatasync failed on database file");
  }
#endif
  return Status::Ok();
}

Status DiskManager::CorruptPageForTest(PageId id, size_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_ || offset >= kPageSize) {
    return Status::InvalidArgument("corruption target out of range");
  }
  std::byte page[kPageSize];
  CODES_RETURN_IF_ERROR(ReadRawLocked(id, page));
  page[offset] ^= std::byte{0xFF};
  return WriteRawLocked(id, page, kPageSize);
}

size_t DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

uint64_t DiskManager::read_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_;
}

}  // namespace codes::storage
