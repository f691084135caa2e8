#include "storage/crash_sim.h"

#include <algorithm>
#include <cstring>

namespace codes::storage {

const char* CrashVariantName(CrashVariant v) {
  switch (v) {
    case CrashVariant::kLostBuffer:
      return "lost_buffer";
    case CrashVariant::kEagerBuffer:
      return "eager_buffer";
    case CrashVariant::kTorn:
      return "torn";
  }
  return "unknown";
}

void CrashController::Arm(const CrashPlan& plan) {
  plan_ = plan;
  armed_ = true;
  crashed_ = false;
  recording_ = false;
  op_count_ = 0;
}

void CrashController::StartRecording() {
  recording_ = true;
  armed_ = false;
  crashed_ = false;
  op_count_ = 0;
  trace_.clear();
}

bool CrashController::OnOp(CrashOpRecord::Kind kind, uint64_t bytes) {
  uint64_t k = op_count_++;
  if (recording_) trace_.push_back(CrashOpRecord{kind, bytes});
  return armed_ && !crashed_ && k == plan_.crash_op;
}

Status SimFile::CheckAlive() const {
  if (ctrl_ != nullptr && ctrl_->crashed()) {
    return Status::Internal("simulated crash: I/O after power loss");
  }
  return Status::Ok();
}

void SimFile::ResolveForCrash(CrashVariant variant) {
  if (variant == CrashVariant::kLostBuffer) {
    merged_ = durable_;
  } else {
    durable_ = merged_;
  }
}

void SimFile::ApplyTornPrefix(uint64_t off, const void* data, size_t n) {
  if (n == 0) return;
  if (durable_.size() < off + n) durable_.resize(off + n);
  std::memcpy(durable_.data() + off, data, n);
  merged_ = durable_;
}

Status SimFile::Write(uint64_t off, const void* data, size_t n) {
  CODES_RETURN_IF_ERROR(CheckAlive());
  if (ctrl_ != nullptr && ctrl_->OnOp(CrashOpRecord::Kind::kWrite, n)) {
    const CrashPlan& plan = ctrl_->plan();
    for (SimFile* f : ctrl_->files_) f->ResolveForCrash(plan.variant);
    if (plan.variant == CrashVariant::kTorn) {
      ApplyTornPrefix(off, data, std::min(n, plan.torn_bytes));
    }
    ctrl_->crashed_ = true;
    return Status::Internal("simulated crash at write boundary " +
                            std::to_string(plan.crash_op));
  }
  if (merged_.size() < off + n) merged_.resize(off + n);
  std::memcpy(merged_.data() + off, data, n);
  return Status::Ok();
}

Status SimFile::Read(uint64_t off, void* out, size_t n) const {
  CODES_RETURN_IF_ERROR(CheckAlive());
  if (off + n > merged_.size()) {
    return Status::Internal("sim file short read");
  }
  std::memcpy(out, merged_.data() + off, n);
  return Status::Ok();
}

Status SimFile::Sync() {
  CODES_RETURN_IF_ERROR(CheckAlive());
  if (ctrl_ != nullptr && ctrl_->OnOp(CrashOpRecord::Kind::kSync, 0)) {
    // The crash pre-empts the barrier; the eager variants are equivalent
    // to crashing immediately after it.
    const CrashPlan& plan = ctrl_->plan();
    for (SimFile* f : ctrl_->files_) f->ResolveForCrash(plan.variant);
    ctrl_->crashed_ = true;
    return Status::Internal("simulated crash at sync boundary " +
                            std::to_string(plan.crash_op));
  }
  durable_ = merged_;
  return Status::Ok();
}

Status SimFile::Truncate(uint64_t new_size) {
  CODES_RETURN_IF_ERROR(CheckAlive());
  if (ctrl_ != nullptr && ctrl_->OnOp(CrashOpRecord::Kind::kTruncate, 0)) {
    const CrashPlan& plan = ctrl_->plan();
    for (SimFile* f : ctrl_->files_) f->ResolveForCrash(plan.variant);
    ctrl_->crashed_ = true;
    return Status::Internal("simulated crash at truncate boundary " +
                            std::to_string(plan.crash_op));
  }
  merged_.resize(new_size);
  return Status::Ok();
}

SimFile* SimEnv::GetFile(const std::string& name) {
  auto it = files_.find(name);
  if (it != files_.end()) return it->second.get();
  auto file = std::make_unique<SimFile>(&controller_);
  SimFile* raw = file.get();
  controller_.files_.push_back(raw);
  files_.emplace(name, std::move(file));
  return raw;
}

void SimEnv::Reboot() {
  controller_.armed_ = false;
  controller_.crashed_ = false;
  controller_.recording_ = false;
  for (auto& [name, file] : files_) {
    (void)name;
    file->merged_ = file->durable_;
  }
}

}  // namespace codes::storage
