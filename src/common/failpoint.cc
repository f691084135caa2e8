#include "common/failpoint.h"

#include <atomic>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace codes {

namespace {

constexpr const char* kSiteNames[kNumFailpointSites] = {
    "classifier.score", "value_retriever.build_index", "bm25.lookup",
    "executor.step",    "lm.decode",                   "storage.page_read",
    "storage.evict",    "storage.split",               "storage.sync",
    "storage.wal.sync", "storage.torn_write",
};

/// Registry state. Specs are written only during configure-then-run setup;
/// `enabled` is the atomic gate inference threads read.
struct Registry {
  std::atomic<bool> enabled{false};
  uint64_t seed = 0;
  FailpointSpec specs[kNumFailpointSites];
  std::atomic<uint64_t> fired[kNumFailpointSites];
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

/// Per-thread decision scope: the active work unit's slot seed and the
/// per-site evaluation counters within it.
struct ScopeState {
  uint64_t slot = 0;
  uint64_t counters[kNumFailpointSites] = {};
};

/// Fallback scope for code running outside any FailpointScope (tools,
/// setup code): slot 0, counters never reset. Deterministic per thread.
thread_local ScopeState tls_default_scope;
thread_local ScopeState* tls_scope = nullptr;

ScopeState& CurrentScope() {
  return tls_scope != nullptr ? *tls_scope : tls_default_scope;
}

/// SplitMix64 finalizer: decision = pure hash of (seed, site, slot,
/// counter), the whole determinism story in one function.
uint64_t MixDecision(uint64_t seed, int site, uint64_t slot,
                     uint64_t counter) {
  uint64_t z = seed;
  z ^= 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(site) + 1);
  z ^= slot + 0xBF58476D1CE4E5B9ULL;
  z ^= counter * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

Status ParseOneSpec(std::string_view entry, FailpointSpec* spec) {
  size_t colon = entry.find(':');
  std::string_view kind = entry.substr(0, colon);
  if (kind == "oneshot") {
    if (colon != std::string_view::npos) {
      return Status::InvalidArgument("oneshot takes no argument");
    }
    spec->trigger = FailpointSpec::Trigger::kOneShot;
    return Status::Ok();
  }
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("failpoint trigger '" +
                                   std::string(entry) +
                                   "' needs an argument (prob:<p>, nth:<n>)");
  }
  std::string arg(entry.substr(colon + 1));
  if (kind == "prob") {
    // ParseFiniteDouble, not strtod: "prob:nan" fails both range
    // comparisons below (NaN compares false to everything) and used to
    // slip through as a never-firing armed site.
    double p = 0.0;
    if (!ParseFiniteDouble(arg, &p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("bad probability '" + arg + "'");
    }
    spec->trigger = FailpointSpec::Trigger::kProbability;
    spec->probability = p;
    return Status::Ok();
  }
  if (kind == "nth") {
    uint64_t n = 0;
    if (!ParseUint64(arg, &n) || n == 0) {
      return Status::InvalidArgument("bad nth '" + arg + "'");
    }
    spec->trigger = FailpointSpec::Trigger::kEveryNth;
    spec->nth = n;
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown failpoint trigger '" +
                                 std::string(kind) + "'");
}

}  // namespace

const char* FailpointSiteName(FailpointSite site) {
  int idx = static_cast<int>(site);
  if (idx < 0 || idx >= kNumFailpointSites) return "unknown";
  return kSiteNames[idx];
}

FailpointSite FailpointSiteByName(std::string_view name) {
  for (int i = 0; i < kNumFailpointSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<FailpointSite>(i);
  }
  return FailpointSite::kNumSites;
}

bool Failpoints::Enabled() {
  return GetRegistry().enabled.load(std::memory_order_relaxed);
}

namespace {

/// Parses `spec` into a full per-site table without touching the live
/// registry, so a malformed spec can never leave partial state behind.
/// (The old in-place parse wrote each entry into the registry as it went:
/// an error midway returned with earlier specs still installed, disabled
/// but waiting for the registry to be re-enabled.)
Status ParseCampaignSpec(const std::string& spec,
                         FailpointSpec (*out)[kNumFailpointSites],
                         bool* any) {
  std::vector<std::string> pieces = Split(spec, ';');
  // Allow one trailing ';' ("a=oneshot;") — a common shell artifact — but
  // reject interior empty segments, which are invariably a typo'd spec
  // that used to arm half a campaign without a word of complaint.
  if (pieces.size() > 1 && Trim(pieces.back()).empty()) pieces.pop_back();
  for (const std::string& piece : pieces) {
    std::string entry = Trim(piece);
    if (entry.empty()) {
      if (pieces.size() == 1) return Status::Ok();  // whole spec blank: no-op
      return Status::InvalidArgument(
          "empty failpoint segment (doubled or leading ';') in '" + spec +
          "'");
    }
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' has no '='");
    }
    std::string name = entry.substr(0, eq);
    FailpointSpec parsed;
    CODES_RETURN_IF_ERROR(
        ParseOneSpec(std::string_view(entry).substr(eq + 1), &parsed));
    if (name == "*") {
      for (int i = 0; i < kNumFailpointSites; ++i) (*out)[i] = parsed;
      *any = true;
      continue;
    }
    FailpointSite site = FailpointSiteByName(name);
    if (site == FailpointSite::kNumSites) {
      return Status::InvalidArgument("unknown failpoint site '" + name +
                                     "'");
    }
    (*out)[static_cast<int>(site)] = parsed;
    *any = true;
  }
  return Status::Ok();
}

}  // namespace

Status Failpoints::Configure(const std::string& spec, uint64_t seed) {
  FailpointSpec parsed[kNumFailpointSites];
  bool any = false;
  CODES_RETURN_IF_ERROR(ParseCampaignSpec(spec, &parsed, &any));
  Clear();
  Registry& r = GetRegistry();
  r.seed = seed;
  for (int i = 0; i < kNumFailpointSites; ++i) r.specs[i] = parsed[i];
  if (any) r.enabled.store(true, std::memory_order_release);
  return Status::Ok();
}

void Failpoints::Clear() {
  Registry& r = GetRegistry();
  r.enabled.store(false, std::memory_order_release);
  r.seed = 0;
  for (int i = 0; i < kNumFailpointSites; ++i) {
    r.specs[i] = FailpointSpec();
    r.fired[i].store(0, std::memory_order_relaxed);
  }
}

bool Failpoints::ShouldFail(FailpointSite site) {
  Registry& r = GetRegistry();
  if (!r.enabled.load(std::memory_order_relaxed)) return false;
  int idx = static_cast<int>(site);
  if (idx < 0 || idx >= kNumFailpointSites) return false;
  const FailpointSpec& spec = r.specs[idx];
  if (spec.trigger == FailpointSpec::Trigger::kOff) return false;

  ScopeState& scope = CurrentScope();
  uint64_t counter = scope.counters[idx]++;
  bool fire = false;
  switch (spec.trigger) {
    case FailpointSpec::Trigger::kOff:
      break;
    case FailpointSpec::Trigger::kProbability: {
      uint64_t h = MixDecision(r.seed, idx, scope.slot, counter);
      double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      fire = u < spec.probability;
      break;
    }
    case FailpointSpec::Trigger::kEveryNth:
      fire = (counter + 1) % spec.nth == 0;
      break;
    case FailpointSpec::Trigger::kOneShot:
      fire = counter == 0;
      break;
  }
  if (fire) r.fired[idx].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

Status Failpoints::FailStatus(FailpointSite site) {
  return Status::Internal(std::string("failpoint ") +
                          FailpointSiteName(site) + " fired");
}

uint64_t Failpoints::FiredCount(FailpointSite site) {
  int idx = static_cast<int>(site);
  if (idx < 0 || idx >= kNumFailpointSites) return 0;
  return GetRegistry().fired[idx].load(std::memory_order_relaxed);
}

FailpointScope::FailpointScope(uint64_t slot_seed) {
  auto* state = new ScopeState();
  state->slot = slot_seed;
  prev_ = tls_scope;
  tls_scope = state;
}

FailpointScope::~FailpointScope() {
  delete tls_scope;
  tls_scope = static_cast<ScopeState*>(prev_);
}

}  // namespace codes
