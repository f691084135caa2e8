#include "retrieval/value_retriever.h"

#include <algorithm>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {

namespace {

/// Very short values ('F', 'no', 'AB') match almost any question by
/// substring; they only count when the question contains them as a whole
/// word.
bool ShortValueMatches(const std::string& value, const std::string& question) {
  std::string needle = ToLower(Trim(value));
  for (const auto& token : WordTokens(question)) {
    if (token == needle) return true;
  }
  return false;
}

}  // namespace

void ValueRetriever::BuildIndex(const sql::Database& db) {
  // Unguarded construction cannot fail; the status is guard/failpoint-only.
  (void)TryBuildIndex(db, nullptr, /*check_failpoint=*/false);
}

Status ValueRetriever::TryBuildIndex(const sql::Database& db, ExecGuard* guard,
                                     bool check_failpoint) {
  CODES_TRACE_SPAN(span, "value_retriever.build_index");
  entries_.clear();
  index_ = Bm25Index();
  if (check_failpoint &&
      Failpoints::ShouldFail(FailpointSite::kValueRetrieverBuildIndex)) {
    return Failpoints::FailStatus(FailpointSite::kValueRetrieverBuildIndex);
  }
  // Deduplicate identical (value, table, column) triples: repeated
  // categorical values would otherwise bloat the index.
  std::unordered_set<std::string> seen;
  Status scan_status;
  size_t scanned = 0;
  db.ForEachTextValue([this, &seen, &scan_status, &scanned, guard](
                          int t, int c, int /*row*/, const std::string& text) {
    if (!scan_status.ok()) return;
    // Poll the guard every 256 values: a blown deadline aborts the build,
    // and the pipeline degrades to a prompt without values.
    if (guard != nullptr && (++scanned & 0xFF) == 0) {
      scan_status = guard->Check();
      if (!scan_status.ok()) return;
    }
    if (text.empty()) return;
    std::string key =
        std::to_string(t) + "|" + std::to_string(c) + "|" + ToLower(text);
    if (!seen.insert(std::move(key)).second) return;
    entries_.push_back(Entry{text, t, c});
    index_.AddDocument(text);
  });
  if (!scan_status.ok()) {
    entries_.clear();
    index_ = Bm25Index();
    return scan_status;
  }
  index_.Finalize();
  return Status::Ok();
}

size_t ValueRetriever::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  for (const Entry& entry : entries_) {
    bytes += sizeof(Entry) + entry.text.size();
  }
  bytes += index_.ApproxBytes();
  return bytes;
}

namespace {
constexpr uint32_t kRetrieverMagic = 0x56524554;  // "VRET"
constexpr uint32_t kRetrieverVersion = 1;
}  // namespace

void ValueRetriever::SaveTo(std::string* out) const {
  serial::PutMagic(out, kRetrieverMagic, kRetrieverVersion);
  serial::PutU64(out, entries_.size());
  for (const Entry& entry : entries_) {
    serial::PutI32(out, entry.table);
    serial::PutI32(out, entry.column);
  }
  index_.SaveTo(out);
}

Status ValueRetriever::LoadFrom(serial::Reader* reader) {
  entries_.clear();
  index_ = Bm25Index();
  auto corrupt = [this](const char* what) {
    entries_.clear();
    index_ = Bm25Index();
    return Status::DataLoss(std::string("value retriever snapshot: ") + what);
  };
  if (!serial::ReadMagic(reader, kRetrieverMagic, kRetrieverVersion)) {
    return corrupt("bad magic");
  }
  uint64_t n = 0;
  if (!reader->ReadU64(&n) || n > reader->remaining() / (2 * sizeof(int32_t))) {
    return corrupt("bad entry count");
  }
  entries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry entry;
    if (!reader->ReadI32(&entry.table) || !reader->ReadI32(&entry.column)) {
      return corrupt("truncated entry");
    }
    entries_.push_back(std::move(entry));
  }
  Status status = index_.LoadFrom(reader);
  if (!status.ok()) return corrupt(status.message().c_str());
  if (static_cast<uint64_t>(index_.NumDocuments()) != n) {
    return corrupt("entry/document count mismatch");
  }
  // Entry texts are the index's document texts (BuildIndex adds them in
  // lockstep); restore the parallel copy from the index.
  for (uint64_t i = 0; i < n; ++i) {
    entries_[i].text = index_.DocumentText(static_cast<int>(i));
  }
  return Status::Ok();
}

std::vector<RetrievedValue> ValueRetriever::FineRank(
    const std::string& question, const std::vector<int>& candidates,
    int fine_k) const {
  CODES_TRACE_SPAN(span, "value_retriever.fine_rank");
  std::vector<RetrievedValue> ranked;
  ranked.reserve(candidates.size());
  for (int idx : candidates) {
    const Entry& entry = entries_[static_cast<size_t>(idx)];
    double degree;
    if (Trim(entry.text).size() < 6) {
      degree = ShortValueMatches(entry.text, question) ? 1.0 : 0.0;
    } else {
      degree = LcsMatchDegree(entry.text, question);
    }
    if (degree <= 0.0) continue;
    ranked.push_back(RetrievedValue{entry.text, entry.table, entry.column,
                                    degree});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RetrievedValue& a, const RetrievedValue& b) {
              if (a.score != b.score) return a.score > b.score;
              // Tie-break toward longer matches: 'Ember Dawn' must beat
              // the spurious substring match 'Dawn'.
              if (a.text.size() != b.text.size()) {
                return a.text.size() > b.text.size();
              }
              if (a.table != b.table) return a.table < b.table;
              if (a.column != b.column) return a.column < b.column;
              return a.text < b.text;
            });
  if (ranked.size() > static_cast<size_t>(fine_k)) {
    ranked.resize(static_cast<size_t>(fine_k));
  }
  return ranked;
}

std::vector<RetrievedValue> ValueRetriever::Retrieve(
    const std::string& question, int coarse_k, int fine_k) const {
  auto hits = index_.Query(question, coarse_k);
  std::vector<int> candidates;
  candidates.reserve(hits.size());
  for (const auto& hit : hits) candidates.push_back(hit.doc_id);
  return FineRank(question, candidates, fine_k);
}

std::vector<RetrievedValue> ValueRetriever::RetrieveBruteForce(
    const std::string& question, int fine_k) const {
  std::vector<int> all(entries_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return FineRank(question, all, fine_k);
}

}  // namespace codes
