// Tier-1 coverage for the crash-safety layer (DESIGN.md section 15): WAL
// append/sync/reopen round trips, torn-tail discipline, page checksums,
// and redo-recovery edge cases — empty WAL, torn WAL tail, crash during
// checkpoint, crash during eviction write-back, and double-recovery
// idempotence — a file-backed WAL round trip, plus a miniature
// end-to-end crash campaign and the crash.corpus regression replays.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "sqlengine/database.h"
#include "sqlengine/value.h"
#include "storage/crash_harness.h"
#include "storage/crash_sim.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/storage_db.h"
#include "storage/wal.h"

#ifndef CODES_FUZZ_CORPUS_DIR
#error "CODES_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace codes::storage {
namespace {

using sql::Value;

constexpr const char* kDb = "t.db";
constexpr int kInitialRows = 6;
constexpr int kRowsPerBatch = 4;

// Deterministic workload rows: initial row i has id i; batch b row r has
// id 1000 + b * kRowsPerBatch + r. All ids unique.
sql::Row MakeRow(int64_t id) {
  sql::Row row;
  row.push_back(Value(id));
  row.push_back(Value("r" + std::to_string(id * 31 % 101)));
  return row;
}

sql::Database MakeSource() {
  sql::DatabaseSchema schema;
  schema.name = "waldb";
  sql::TableDef table;
  table.name = "items";
  table.columns.push_back({"id", sql::DataType::kInteger, "", true});
  table.columns.push_back({"name", sql::DataType::kText, "", false});
  schema.tables.push_back(table);
  sql::Database db(std::move(schema));
  for (int i = 0; i < kInitialRows; ++i) {
    EXPECT_TRUE(db.Insert("items", MakeRow(i)).ok());
  }
  return db;
}

Status AppendBatch(StorageDb* db, int b) {
  std::vector<sql::Row> rows;
  for (int r = 0; r < kRowsPerBatch; ++r) {
    rows.push_back(MakeRow(1000 + b * kRowsPerBatch + r));
  }
  CODES_RETURN_IF_ERROR(db->AppendRows(0, rows));
  return db->CommitBatch();
}

std::vector<sql::Row> ExpectedAfter(int batches) {
  std::vector<sql::Row> rows;
  for (int i = 0; i < kInitialRows; ++i) rows.push_back(MakeRow(i));
  for (int b = 0; b < batches; ++b) {
    for (int r = 0; r < kRowsPerBatch; ++r) {
      rows.push_back(MakeRow(1000 + b * kRowsPerBatch + r));
    }
  }
  return rows;
}

void ExpectContentEquals(const StorageDb& db, int batches,
                         const std::string& context) {
  std::vector<sql::Row> want = ExpectedAfter(batches);
  auto got = db.Materialize(0);
  ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
  ASSERT_EQ(got->size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*got)[i].size(), want[i].size()) << context << " row " << i;
    for (size_t c = 0; c < want[i].size(); ++c) {
      EXPECT_TRUE((*got)[i][c] == want[i][c])
          << context << " row " << i << " col " << c;
    }
  }
}

/// Builds the sim database and commits `batches` batches.
Result<std::unique_ptr<StorageDb>> BuildWithBatches(SimEnv* env, int batches,
                                                    size_t pool_frames = 16) {
  sql::Database src = MakeSource();
  CODES_ASSIGN_OR_RETURN(std::unique_ptr<StorageDb> db,
                         StorageDb::CreateSimFrom(src, env, kDb, pool_frames));
  for (int b = 0; b < batches; ++b) {
    CODES_RETURN_IF_ERROR(AppendBatch(db.get(), b));
  }
  return db;
}

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

// --------------------------------------------------------------- WAL unit

TEST(WalTest, AppendSyncReopenRoundTrip) {
  SimEnv env;
  std::vector<std::byte> image(kPageSize, std::byte{0x5A});
  {
    auto wal = Wal::OpenSim(&env, "w.wal");
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ((*wal)->durable_lsn(), 0u);
    auto l1 = (*wal)->AppendPageImage(3, image.data());
    ASSERT_TRUE(l1.ok());
    auto l2 = (*wal)->AppendCommit();
    ASSERT_TRUE(l2.ok());
    EXPECT_EQ(*l2, *l1 + 1);
    // Appends buffer until the group-flush barrier.
    EXPECT_EQ((*wal)->durable_lsn(), 0u);
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_EQ((*wal)->durable_lsn(), *l2);
  }
  // Reopen scans the log: both records valid, LSNs continue after them.
  auto wal = Wal::OpenSim(&env, "w.wal");
  ASSERT_TRUE(wal.ok());
  auto scan = (*wal)->ReadAll();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->torn_tail_records, 0u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kPageImage);
  EXPECT_EQ(scan->records[0].page, 3u);
  EXPECT_EQ(scan->records[0].payload.size(), kPageSize);
  EXPECT_EQ(scan->records[0].payload[100], std::byte{0x5A});
  EXPECT_EQ(scan->records[1].type, WalRecordType::kCommit);
  auto l3 = (*wal)->AppendCommit();
  ASSERT_TRUE(l3.ok());
  EXPECT_EQ(*l3, scan->records[1].lsn + 1);
}

TEST(WalTest, TornTailIsCutAtScan) {
  SimEnv env;
  std::vector<std::byte> image(kPageSize, std::byte{0x11});
  {
    auto wal = Wal::OpenSim(&env, "w.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPageImage(1, image.data()).ok());
    ASSERT_TRUE((*wal)->AppendCommit().ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Tear the commit record: drop its last 4 bytes, as a crashed append
  // would. (Direct file surgery; the controller is not armed, so these
  // ops are not crash boundaries that matter.)
  SimFile* raw = env.GetFile("w.wal");
  ASSERT_TRUE(raw->Truncate(raw->size() - 4).ok());
  ASSERT_TRUE(raw->Sync().ok());
  auto wal = Wal::OpenSim(&env, "w.wal");
  ASSERT_TRUE(wal.ok());
  auto scan = (*wal)->ReadAll();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kPageImage);
  EXPECT_EQ(scan->torn_tail_records, 1u);
  // The append offset sits at the end of the valid prefix: the next
  // append overwrites the torn bytes and the log scans clean again.
  EXPECT_EQ((*wal)->size_bytes(), scan->valid_bytes);
  ASSERT_TRUE((*wal)->AppendCommit().ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  auto rescan = (*wal)->ReadAll();
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->torn_tail_records, 0u);
}

TEST(WalTest, GarbageTailIsCutAtScan) {
  SimEnv env;
  {
    auto wal = Wal::OpenSim(&env, "w.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendCommit().ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  SimFile* raw = env.GetFile("w.wal");
  std::vector<std::byte> junk(17, std::byte{0xEE});
  ASSERT_TRUE(raw->Write(raw->size(), junk.data(), junk.size()).ok());
  ASSERT_TRUE(raw->Sync().ok());
  auto wal = Wal::OpenSim(&env, "w.wal");
  ASSERT_TRUE(wal.ok());
  auto scan = (*wal)->ReadAll();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->torn_tail_records, 1u);
}

// --------------------------------------------------------------- checksum

TEST(PageChecksumTest, CorruptionSurfacesAsDataLoss) {
  auto disk = DiskManager::CreateInMemory();
  auto p = disk->Allocate();
  ASSERT_TRUE(p.ok());
  std::byte page[kPageSize] = {};
  page[kPageHeaderBytes + 7] = std::byte{0x42};
  ASSERT_TRUE(disk->WritePage(*p, page).ok());
  ASSERT_TRUE(disk->ReadPage(*p, page).ok());
  uint64_t failures0 = CounterValue("storage.checksum_failures");
  ASSERT_TRUE(disk->CorruptPageForTest(*p, kPageHeaderBytes + 100).ok());
  Status read = disk->ReadPage(*p, page);
  EXPECT_EQ(read.code(), StatusCode::kDataLoss) << read.ToString();
  EXPECT_EQ(CounterValue("storage.checksum_failures"), failures0 + 1);
}

TEST(PageChecksumTest, AllZeroPageIsValidUnallocated) {
  auto disk = DiskManager::CreateInMemory();
  auto p = disk->Allocate();
  ASSERT_TRUE(p.ok());
  std::byte page[kPageSize];
  // Never written: reads back as zeroes with a zero checksum field, which
  // is the one accepted unstamped form.
  EXPECT_TRUE(disk->ReadPage(*p, page).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(page[i], std::byte{0}) << i;
  }
}

// ----------------------------------------------------------- recovery edge

TEST(RecoveryTest, CheckpointOnlyWalRecoversBulkLoadState) {
  SimEnv env;
  {
    auto db = BuildWithBatches(&env, 0);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // CreateSimFrom checkpointed the bulk load; the WAL holds only that
    // checkpoint marker.
    EXPECT_GT((*db)->wal()->size_bytes(), 0u);
  }
  env.Reboot();
  uint64_t runs0 = CounterValue("storage.recovery.runs");
  uint64_t seen0 = CounterValue("storage.recovery.wal_records_seen");
  uint64_t replayed0 = CounterValue("storage.recovery.replayed");
  uint64_t discarded0 = CounterValue("storage.recovery.discarded");
  auto db = StorageDb::OpenSim(&env, kDb);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectContentEquals(**db, 0, "checkpoint-only recovery");
  EXPECT_EQ(CounterValue("storage.recovery.runs"), runs0 + 1);
  uint64_t seen = CounterValue("storage.recovery.wal_records_seen") - seen0;
  uint64_t replayed = CounterValue("storage.recovery.replayed") - replayed0;
  uint64_t discarded = CounterValue("storage.recovery.discarded") - discarded0;
  EXPECT_EQ(replayed + discarded, seen);
  EXPECT_EQ(discarded, 0u);
}

TEST(RecoveryTest, CrashBeforeCommitSyncLosesOnlyTheInFlightBatch) {
  SimEnv env;
  {
    auto db = BuildWithBatches(&env, 1);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Crash at the very next I/O boundary — inside batch 1's commit, long
    // before its WAL sync. Batch 0 must survive; batch 1 must vanish.
    env.controller().Arm({0, CrashVariant::kLostBuffer, 0});
    Status st = AppendBatch(db->get(), 1);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(env.controller().crashed());
  }
  env.Reboot();
  auto db = StorageDb::OpenSim(&env, kDb);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectContentEquals(**db, 1, "crash mid-commit");
}

TEST(RecoveryTest, TornWalTailDiscardsTheUncommittedBatch) {
  SimEnv env;
  {
    auto db = BuildWithBatches(&env, 2);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }
  // Append a torn partial record after the committed log: the prefix of a
  // record whose suffix never made it out of the OS buffer. Recovery must
  // cut the tail, discard it, and land exactly on the two committed
  // batches.
  SimFile* raw = env.GetFile(std::string(kDb) + ".wal");
  ASSERT_GT(raw->size(), 0u);
  std::vector<std::byte> torn(11, std::byte{0xA7});
  ASSERT_TRUE(raw->Write(raw->size(), torn.data(), torn.size()).ok());
  ASSERT_TRUE(raw->Sync().ok());
  env.Reboot();
  uint64_t discarded0 = CounterValue("storage.recovery.discarded");
  auto db = StorageDb::OpenSim(&env, kDb);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Batches 0-1 were committed (and checkpointed/recovered along the
  // way); the torn uncommitted tail is discarded, never replayed.
  ExpectContentEquals(**db, 2, "torn WAL tail");
  EXPECT_GT(CounterValue("storage.recovery.discarded"), discarded0);
}

TEST(RecoveryTest, CrashAtEveryCheckpointBoundaryKeepsCommittedState) {
  // Count the checkpoint's I/O boundaries once, then crash at each of
  // them under both buffer variants. Whatever the interleaving of data
  // writes, syncs, and the log truncate, the committed two batches must
  // come back exactly.
  uint64_t checkpoint_ops = 0;
  {
    SimEnv env;
    auto db = BuildWithBatches(&env, 2);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    env.controller().StartRecording();
    ASSERT_TRUE((*db)->Checkpoint().ok());
    checkpoint_ops = env.controller().op_count();
  }
  ASSERT_GT(checkpoint_ops, 0u);
  for (uint64_t k = 0; k < checkpoint_ops; ++k) {
    for (CrashVariant variant :
         {CrashVariant::kLostBuffer, CrashVariant::kEagerBuffer}) {
      SimEnv env;
      auto db = BuildWithBatches(&env, 2);
      ASSERT_TRUE(db.ok());
      env.controller().Arm({k, variant, 0});
      Status st = (*db)->Checkpoint();
      EXPECT_FALSE(st.ok());
      EXPECT_TRUE(env.controller().crashed());
      db->reset();
      env.Reboot();
      auto reopened = StorageDb::OpenSim(&env, kDb);
      ASSERT_TRUE(reopened.ok())
          << "checkpoint op " << k << " " << CrashVariantName(variant) << ": "
          << reopened.status().ToString();
      ExpectContentEquals(**reopened, 2,
                          "checkpoint op " + std::to_string(k) + " " +
                              CrashVariantName(variant));
    }
  }
}

// Rows wide enough that every batch dirties fresh heap pages: ~1.8 KiB of
// text each, four to a page. The name column's keys are oversized for the
// B+ tree, so its index is dropped on first append — also deliberate,
// since index-drop must commit atomically with the rows that caused it.
sql::Row WideRow(int64_t id) {
  sql::Row row;
  row.push_back(Value(id));
  row.push_back(Value(std::string(1800, static_cast<char>('a' + id % 26)) +
                      std::to_string(id)));
  return row;
}

Status AppendWideBatch(StorageDb* db, int b) {
  // Four wide rows ~ one fresh heap page per batch: enough churn to evict
  // the PREVIOUS batch's committed pages, small enough that one batch's
  // own dirty set still fits the 4-frame no-steal pool.
  std::vector<sql::Row> rows;
  for (int r = 0; r < 4; ++r) {
    rows.push_back(WideRow(1000 + b * 4 + r));
  }
  CODES_RETURN_IF_ERROR(db->AppendRows(0, rows));
  return db->CommitBatch();
}

TEST(RecoveryTest, CrashDuringEvictionWriteBackRecovers) {
  // A 4-frame pool plus wide rows (each batch stages ~2 fresh heap pages,
  // the catalog page, and id-index pages — more dirty pages than frames)
  // forces committed dirty pages out to the data file while later batches
  // are being staged. Find those eviction write-backs in the recorded
  // trace (the only kPageSize-sized writes between commits when
  // checkpointing is off; WAL appends are group-buffered into larger
  // flushes) and crash on each, including the torn-write variant: the
  // page's image is in the WAL, so replay must repair the tear.
  constexpr int kBatches = 5;
  std::vector<CrashOpRecord> trace;
  std::vector<uint64_t> ops_after_batch;
  {
    SimEnv env;
    sql::Database src = MakeSource();
    auto db = StorageDb::CreateSimFrom(src, &env, kDb, /*pool_frames=*/4);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    env.controller().StartRecording();
    for (int b = 0; b < kBatches; ++b) {
      Status appended = AppendWideBatch(db->get(), b);
      ASSERT_TRUE(appended.ok()) << appended.ToString();
      ops_after_batch.push_back(env.controller().op_count());
    }
    trace = env.controller().trace();
  }
  std::vector<uint64_t> eviction_ops;
  for (uint64_t k = 0; k < trace.size(); ++k) {
    if (trace[k].kind == CrashOpRecord::Kind::kWrite &&
        trace[k].bytes == kPageSize) {
      eviction_ops.push_back(k);
    }
  }
  ASSERT_FALSE(eviction_ops.empty())
      << "workload produced no eviction write-backs; widen the rows or "
         "shrink the pool";
  for (uint64_t k : eviction_ops) {
    for (CrashVariant variant :
         {CrashVariant::kLostBuffer, CrashVariant::kTorn}) {
      SimEnv env;
      sql::Database src = MakeSource();
      auto db = StorageDb::CreateSimFrom(src, &env, kDb, /*pool_frames=*/4);
      ASSERT_TRUE(db.ok());
      env.controller().Arm(
          {k, variant, variant == CrashVariant::kTorn ? kPageSize / 2 : 0});
      int batches_done = 0;
      for (int b = 0; b < kBatches; ++b) {
        if (!AppendWideBatch(db->get(), b).ok()) break;
        ++batches_done;
      }
      EXPECT_TRUE(env.controller().crashed());
      db->reset();
      env.Reboot();
      auto reopened = StorageDb::OpenSim(&env, kDb, /*pool_frames=*/4);
      ASSERT_TRUE(reopened.ok())
          << "eviction op " << k << " " << CrashVariantName(variant) << ": "
          << reopened.status().ToString();
      // An eviction crash happens between commit barriers: exactly the
      // batches whose commit preceded op k survive.
      int expect = 0;
      while (expect < static_cast<int>(ops_after_batch.size()) &&
             ops_after_batch[expect] <= k) {
        ++expect;
      }
      EXPECT_EQ(batches_done, expect);
      std::string context = "eviction op " + std::to_string(k) + " " +
                            CrashVariantName(variant);
      std::vector<sql::Row> want;
      for (int i = 0; i < kInitialRows; ++i) want.push_back(MakeRow(i));
      for (int b = 0; b < expect; ++b) {
        for (int r = 0; r < 4; ++r) want.push_back(WideRow(1000 + b * 4 + r));
      }
      auto got = (*reopened)->Materialize(0);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      ASSERT_EQ(got->size(), want.size()) << context;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ((*got)[i].size(), want[i].size()) << context << " row " << i;
        for (size_t c = 0; c < want[i].size(); ++c) {
          ASSERT_TRUE((*got)[i][c] == want[i][c])
              << context << " row " << i << " col " << c;
        }
      }
    }
  }
}

TEST(RecoveryTest, DoubleRecoveryIsIdempotent) {
  SimEnv env;
  {
    auto db = BuildWithBatches(&env, 2);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    env.controller().Arm({2, CrashVariant::kEagerBuffer, 0});
    Status st = AppendBatch(db->get(), 2);
    EXPECT_FALSE(st.ok());
  }
  env.Reboot();
  int first_batches = -1;
  {
    auto db = StorageDb::OpenSim(&env, kDb);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto rows = (*db)->Materialize(0);
    ASSERT_TRUE(rows.ok());
    first_batches =
        static_cast<int>((rows->size() - kInitialRows) / kRowsPerBatch);
    ExpectContentEquals(**db, first_batches, "first recovery");
  }
  // Recovery checkpointed: a second power-cycle and reopen replays an
  // already-materialized log — same state, nothing newly discarded.
  env.Reboot();
  uint64_t discarded0 = CounterValue("storage.recovery.discarded");
  auto db = StorageDb::OpenSim(&env, kDb);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectContentEquals(**db, first_batches, "second recovery");
  EXPECT_EQ(CounterValue("storage.recovery.discarded"), discarded0);
}

// ------------------------------------------------------------ file-backed

// The one path that syncs and truncates a real log file: a freshly built
// file-backed database adopts an empty WAL, commits batches through it,
// and reopens through redo recovery with every committed row.
TEST(FileWalTest, EnableWalCommitsSurviveOpenWithWal) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "codes_file_wal";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = (dir / "t.db").string();
  const std::string wal_path = (dir / "t.db.wal").string();
  constexpr int kBatches = 3;
  sql::Database src = MakeSource();
  {
    auto disk = DiskManager::Create(path);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    auto db = StorageDb::CreateFrom(src, std::move(*disk));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Status enabled = (*db)->EnableWal(wal_path);
    ASSERT_TRUE(enabled.ok()) << enabled.ToString();
    EXPECT_EQ((*db)->EnableWal(wal_path).code(), StatusCode::kInvalidArgument)
        << "a second EnableWal must not replace the attached log";
    for (int b = 0; b < kBatches; ++b) {
      Status st = AppendBatch(db->get(), b);
      ASSERT_TRUE(st.ok()) << "batch " << b << ": " << st.ToString();
    }
  }
  // A log that already holds records needs OpenWithWal's recovery; a
  // fresh database must refuse to adopt it.
  {
    auto disk = DiskManager::Create((dir / "other.db").string());
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    auto other = StorageDb::CreateFrom(src, std::move(*disk));
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_EQ((*other)->EnableWal(wal_path).code(),
              StatusCode::kInvalidArgument);
  }
  uint64_t runs0 = CounterValue("storage.recovery.runs");
  uint64_t seen0 = CounterValue("storage.recovery.wal_records_seen");
  uint64_t replayed0 = CounterValue("storage.recovery.replayed");
  uint64_t discarded0 = CounterValue("storage.recovery.discarded");
  {
    auto db = StorageDb::OpenWithWal(path, wal_path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectContentEquals(**db, kBatches, "file-backed reopen");
  }
  EXPECT_GE(CounterValue("storage.recovery.runs") - runs0, 1u);
  uint64_t seen = CounterValue("storage.recovery.wal_records_seen") - seen0;
  uint64_t replayed = CounterValue("storage.recovery.replayed") - replayed0;
  uint64_t discarded = CounterValue("storage.recovery.discarded") - discarded0;
  EXPECT_EQ(replayed + discarded, seen);
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- campaign harness

TEST(CrashCampaignTest, TinyCampaignRunsClean) {
  CrashCampaignConfig config;
  config.seed = 7;
  config.batches = 4;
  config.rows_per_batch = 2;
  config.checkpoint_every = 2;
  config.pool_frames = 8;
  config.threads = 2;
  auto result = RunCrashCampaign(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->boundaries, 0u);
  EXPECT_GT(result->cases_run, result->boundaries);  // >= 2 variants each
  EXPECT_EQ(result->failures, 0u) << (result->failed.empty()
                                          ? ""
                                          : result->failed[0].error);
  EXPECT_EQ(result->wal_records_replayed + result->wal_records_discarded,
            result->wal_records_seen);
  EXPECT_GE(result->recovery_runs, result->cases_run);
}

// Replays tests/fuzz_corpus/crash.corpus: one crash case per line,
// pinned from earlier campaign coverage so regressions on specific
// boundaries (commit sync, checkpoint truncate, torn page writes) fail
// individually and reproducibly.
// Format: batches=<n> checkpoint=<n> seed=<s> op=<k> variant=<name>
TEST(CrashCorpusTest, CorpusReplaysClean) {
  std::ifstream in(std::string(CODES_FUZZ_CORPUS_DIR) + "/crash.corpus");
  ASSERT_TRUE(in.good()) << "missing crash.corpus";
  std::string line;
  int replayed = 0;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    CrashCampaignConfig config;
    uint64_t op = 0;
    CrashVariant variant = CrashVariant::kLostBuffer;
    bool have_op = false;
    std::istringstream fields(line);
    std::string field;
    while (fields >> field) {
      auto eq = field.find('=');
      ASSERT_NE(eq, std::string::npos) << "line " << line_no;
      std::string key = field.substr(0, eq);
      std::string value = field.substr(eq + 1);
      if (key == "batches") {
        config.batches = std::stoi(value);
      } else if (key == "checkpoint") {
        config.checkpoint_every = std::stoi(value);
      } else if (key == "seed") {
        config.seed = std::stoull(value);
      } else if (key == "op") {
        op = std::stoull(value);
        have_op = true;
      } else if (key == "variant") {
        if (value == "lost_buffer") {
          variant = CrashVariant::kLostBuffer;
        } else if (value == "eager_buffer") {
          variant = CrashVariant::kEagerBuffer;
        } else if (value == "torn") {
          variant = CrashVariant::kTorn;
        } else {
          FAIL() << "line " << line_no << ": unknown variant " << value;
        }
      } else {
        FAIL() << "line " << line_no << ": unknown key " << key;
      }
    }
    ASSERT_TRUE(have_op) << "line " << line_no;
    auto outcome = RunCrashCase(config, op, variant);
    ASSERT_TRUE(outcome.ok())
        << "line " << line_no << ": " << outcome.status().ToString();
    EXPECT_TRUE(outcome->error.empty())
        << "line " << line_no << " (op=" << op << " variant="
        << CrashVariantName(variant) << "): " << outcome->error;
    ++replayed;
  }
  EXPECT_GE(replayed, 8) << "crash.corpus should pin a spread of boundaries";
}

}  // namespace
}  // namespace codes::storage
