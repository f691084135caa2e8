// Tier-1 coverage for the serving-robustness layer: ExecGuard budgets
// (deadline, cancellation, rows/bytes/depth), the deterministic failpoint
// framework, the parser's nesting-depth cap (with on-disk reproducers),
// and the pipeline's degradation ladder (classifier fallback, value
// fallback, bounded repair, emergency SQL) including its clean-path
// equivalence with the historical unguarded Predict.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_guard.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/storage_db.h"

namespace codes {
namespace {

// ------------------------------------------------------------ status layer

Status FailWith(StatusCode code) { return Status(code, "boom"); }

Status PropagatesViaMacro(StatusCode code) {
  CODES_RETURN_IF_ERROR(FailWith(code));
  return Status::Ok();
}

Result<int> HalfOf(int n) {
  if (n % 2 != 0) return Status::InvalidArgument("odd");
  return n / 2;
}

Result<int> QuarterViaMacro(int n) {
  CODES_ASSIGN_OR_RETURN(int half, HalfOf(n));
  CODES_ASSIGN_OR_RETURN(auto quarter, HalfOf(half));
  return quarter;
}

TEST(StatusGuardCodesTest, NewCodesHaveNamesAndFactories) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kTimeout), "Timeout");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_EQ(Status::Timeout("t").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::ResourceExhausted("r").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusMacroTest, ReturnIfErrorPropagatesAndPassesOk) {
  EXPECT_TRUE(PropagatesViaMacro(StatusCode::kOk).ok());
  EXPECT_EQ(PropagatesViaMacro(StatusCode::kTimeout).code(),
            StatusCode::kTimeout);
  EXPECT_EQ(PropagatesViaMacro(StatusCode::kParseError).code(),
            StatusCode::kParseError);
}

TEST(StatusMacroTest, AssignOrReturnAssignsAndPropagates) {
  auto ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto outer_odd = QuarterViaMacro(7);
  ASSERT_FALSE(outer_odd.ok());
  EXPECT_EQ(outer_odd.status().code(), StatusCode::kInvalidArgument);
  auto inner_odd = QuarterViaMacro(6);  // 6/2 = 3, 3 is odd
  ASSERT_FALSE(inner_odd.ok());
}

// -------------------------------------------------------------- exec guard

/// One-table database with `rows` integer rows and a text label per row.
sql::Database MakeWideDb(int rows) {
  sql::DatabaseSchema schema;
  schema.name = "wide";
  sql::TableDef nums;
  nums.name = "nums";
  nums.columns = {
      {"n", sql::DataType::kInteger, "value", true},
      {"label", sql::DataType::kText, "text payload", false},
  };
  schema.tables = {nums};
  sql::Database db(std::move(schema));
  for (int i = 0; i < rows; ++i) {
    CODES_CHECK(db.Insert("nums", {sql::Value(static_cast<int64_t>(i)),
                                   sql::Value("row-" + std::to_string(i))})
                    .ok());
  }
  return db;
}

TEST(ExecGuardTest, InactiveGuardChecksNothing) {
  ExecGuard guard;
  EXPECT_FALSE(guard.active());
  EXPECT_TRUE(guard.Check().ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(guard.ChargeRow(1 << 20).ok());
  }
  EXPECT_TRUE(guard.EnterNested().ok());
  guard.LeaveNested();
}

TEST(ExecGuardTest, RowBudgetExhaustsMidScan) {
  auto db = MakeWideDb(500);
  ExecLimits limits;
  limits.max_rows = 10;
  ExecGuard guard(limits);
  auto result = sql::ExecuteSql(db, "SELECT n FROM nums", &guard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The same query without a guard (and via the unguarded default) works.
  EXPECT_TRUE(sql::ExecuteSql(db, "SELECT n FROM nums").ok());
}

TEST(ExecGuardTest, ByteBudgetExhausts) {
  auto db = MakeWideDb(500);
  ExecLimits limits;
  limits.max_bytes = 256;  // a handful of rows of Value + text payload
  ExecGuard guard(limits);
  EXPECT_TRUE(guard.tracks_bytes());
  auto result = sql::ExecuteSql(db, "SELECT label FROM nums", &guard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(guard.bytes_charged(), 256u);
}

TEST(ExecGuardTest, DeadlineFiresMidScan) {
  auto db = MakeWideDb(2000);
  ExecLimits limits;
  limits.deadline_seconds = 1e-4;
  ExecGuard guard(limits);
  // Let the deadline lapse, then scan enough rows that the throttled
  // clock check (every kTimeCheckStride charges) must observe it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto result = sql::ExecuteSql(db, "SELECT n FROM nums", &guard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(ExecGuardTest, DepthBudgetBoundsSubqueryNesting) {
  auto db = MakeWideDb(20);
  const std::string nested =
      "SELECT n FROM nums WHERE n IN (SELECT n FROM nums WHERE n IN "
      "(SELECT n FROM nums))";
  ExecLimits tight;
  tight.max_depth = 1;
  ExecGuard guard_tight(tight);
  auto too_deep = sql::ExecuteSql(db, nested, &guard_tight);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kResourceExhausted);

  ExecLimits loose;
  loose.max_depth = 4;
  ExecGuard guard_loose(loose);
  EXPECT_TRUE(sql::ExecuteSql(db, nested, &guard_loose).ok());
}

TEST(ExecGuardTest, FailedEnterDoesNotLeakDepth) {
  ExecLimits limits;
  limits.max_depth = 1;
  ExecGuard guard(limits);
  EXPECT_TRUE(guard.EnterNested().ok());
  EXPECT_FALSE(guard.EnterNested().ok());  // would be depth 2
  EXPECT_FALSE(guard.EnterNested().ok());  // still depth 1, still refused
  guard.LeaveNested();
  EXPECT_TRUE(guard.EnterNested().ok());  // back to depth 0, re-enterable
  guard.LeaveNested();
}

TEST(ExecGuardTest, ResetUsageAllowsCandidateReuse) {
  auto db = MakeWideDb(100);
  ExecLimits limits;
  // One run of the scan charges ~200 rows (seed scan + projected output
  // both count); the budget fits one run but not two without a reset.
  limits.max_rows = 250;
  ExecGuard guard(limits);
  EXPECT_TRUE(sql::ExecuteSql(db, "SELECT n FROM nums", &guard).ok());
  // Without a reset the second candidate would inherit the first one's
  // row usage and trip the budget.
  guard.ResetUsage();
  EXPECT_TRUE(sql::ExecuteSql(db, "SELECT n FROM nums", &guard).ok());
}

// -------------------------------------------------------------- failpoints

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Clear(); }
};

TEST_F(FailpointTest, DisabledRegistryNeverFires) {
  Failpoints::Clear();
  EXPECT_FALSE(Failpoints::Enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
  }
}

TEST_F(FailpointTest, SiteNamesRoundTrip) {
  for (int i = 0; i < kNumFailpointSites; ++i) {
    auto site = static_cast<FailpointSite>(i);
    EXPECT_EQ(FailpointSiteByName(FailpointSiteName(site)), site);
  }
  EXPECT_EQ(FailpointSiteByName("no.such.site"), FailpointSite::kNumSites);
}

TEST_F(FailpointTest, ConfigureGrammar) {
  EXPECT_TRUE(Failpoints::Configure("classifier.score=prob:0.5", 1).ok());
  EXPECT_TRUE(Failpoints::Configure("executor.step=nth:3", 1).ok());
  EXPECT_TRUE(Failpoints::Configure("lm.decode=oneshot", 1).ok());
  EXPECT_TRUE(
      Failpoints::Configure("*=prob:0.1; bm25.lookup=oneshot", 7).ok());
  EXPECT_FALSE(Failpoints::Configure("bogus.site=prob:0.5", 1).ok());
  EXPECT_FALSE(Failpoints::Configure("classifier.score=prob:2.0", 1).ok());
  EXPECT_FALSE(Failpoints::Configure("classifier.score=nth:0", 1).ok());
  EXPECT_FALSE(Failpoints::Configure("classifier.score", 1).ok());
  EXPECT_FALSE(Failpoints::Configure("classifier.score=maybe", 1).ok());
  Failpoints::Clear();
  EXPECT_FALSE(Failpoints::Enabled());
}

TEST_F(FailpointTest, MalformedSpecCorpusAllRejectedWithDiagnostics) {
  // Every spec here once either crashed nothing but silently armed half a
  // campaign, or mapped to "no faults" via atoi-style parsing. Each must
  // now fail with a non-empty diagnostic and leave the registry disabled.
  const char* corpus[] = {
      "classifier.score",            // no trigger at all
      "classifier.score=",           // empty trigger
      "classifier.score=maybe",      // unknown trigger
      "classifier.score=prob",       // prob without argument
      "classifier.score=prob:",      // empty probability
      "classifier.score=prob:2.0",   // out of range
      "classifier.score=prob:-0.1",  // negative
      "classifier.score=prob:nan",   // NaN compares false to everything
      "classifier.score=prob:inf",   // non-finite
      "classifier.score=prob:0.5x",  // trailing garbage
      "classifier.score=nth:0",      // nth must be >= 1
      "classifier.score=nth:-3",     // negative count
      "classifier.score=nth:3.5",    // non-integer
      "classifier.score=oneshot:1",  // oneshot takes no argument
      "bogus.site=prob:0.5",         // unknown site
      "=prob:0.5",                   // empty site name
      "classifier.score=oneshot;;lm.decode=oneshot",  // doubled ';'
      ";classifier.score=oneshot",   // leading ';'
  };
  for (const char* spec : corpus) {
    Status status = Failpoints::Configure(spec, 1);
    EXPECT_FALSE(status.ok()) << "accepted malformed spec: " << spec;
    EXPECT_FALSE(status.message().empty()) << spec;
    EXPECT_FALSE(Failpoints::Enabled())
        << "malformed spec left the registry armed: " << spec;
  }
}

TEST_F(FailpointTest, MalformedSpecLeavesNoPartialState) {
  // The first entry of this spec is valid, the second is not: nothing may
  // be armed (the old in-place parse installed the valid prefix).
  Status status =
      Failpoints::Configure("executor.step=oneshot;bogus=oneshot", 3);
  ASSERT_FALSE(status.ok());
  EXPECT_FALSE(Failpoints::Enabled());
  FailpointScope scope(1);
  EXPECT_FALSE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
  // A subsequent valid configure works normally.
  ASSERT_TRUE(Failpoints::Configure("executor.step=oneshot", 3).ok());
  FailpointScope scope2(2);
  EXPECT_TRUE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
}

TEST_F(FailpointTest, TrailingSemicolonAndBlankSpecsAreAccepted) {
  EXPECT_TRUE(Failpoints::Configure("executor.step=oneshot;", 1).ok());
  EXPECT_TRUE(Failpoints::Enabled());
  Failpoints::Clear();
  EXPECT_TRUE(Failpoints::Configure("", 1).ok());
  EXPECT_FALSE(Failpoints::Enabled());
  EXPECT_TRUE(Failpoints::Configure("   ", 1).ok());
  EXPECT_FALSE(Failpoints::Enabled());
}

TEST_F(FailpointTest, OneShotFiresOncePerScope) {
  ASSERT_TRUE(Failpoints::Configure("executor.step=oneshot", 3).ok());
  {
    FailpointScope scope(111);
    EXPECT_TRUE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
    EXPECT_FALSE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
    EXPECT_FALSE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
  }
  {
    FailpointScope scope(222);  // fresh scope, counter resets
    EXPECT_TRUE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
    EXPECT_FALSE(Failpoints::ShouldFail(FailpointSite::kExecutorStep));
  }
}

TEST_F(FailpointTest, EveryNthFiresOnSchedule) {
  ASSERT_TRUE(Failpoints::Configure("lm.decode=nth:3", 3).ok());
  FailpointScope scope(5);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(Failpoints::ShouldFail(FailpointSite::kLmDecode));
  }
  std::vector<bool> expected = {false, false, true, false, false,
                                true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(Failpoints::FiredCount(FailpointSite::kLmDecode), 3u);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeedAndSlot) {
  ASSERT_TRUE(Failpoints::Configure("bm25.lookup=prob:0.5", 42).ok());
  auto draw = [](uint64_t slot) {
    FailpointScope scope(slot);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(Failpoints::ShouldFail(FailpointSite::kBm25Lookup));
    }
    return decisions;
  };
  auto a = draw(1234);
  auto b = draw(1234);
  EXPECT_EQ(a, b) << "same slot must replay identical decisions";
  auto c = draw(9999);
  EXPECT_NE(a, c) << "different slots should diverge at p=0.5 over 200 draws";
  int fires = 0;
  for (bool d : a) fires += d ? 1 : 0;
  EXPECT_GT(fires, 50);
  EXPECT_LT(fires, 150);
}

TEST_F(FailpointTest, SeedChangesDecisions) {
  auto draw_with_seed = [](uint64_t seed) {
    CODES_CHECK(Failpoints::Configure("bm25.lookup=prob:0.5", seed).ok());
    FailpointScope scope(77);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(Failpoints::ShouldFail(FailpointSite::kBm25Lookup));
    }
    return decisions;
  };
  EXPECT_NE(draw_with_seed(1), draw_with_seed(2));
}

TEST_F(FailpointTest, FailStatusNamesTheSite) {
  Status s = Failpoints::FailStatus(FailpointSite::kClassifierScore);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("classifier.score"), std::string::npos);
}

// ------------------------------------------------------ storage failpoints

class StorageFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Clear(); }
};

TEST_F(StorageFailpointTest, PageReadFaultSurfacesAsCleanQueryError) {
  // A tiny pool and a multi-page heap guarantee the scan reaches the disk
  // layer (a pool large enough to cache every page would never evaluate
  // the page-read failpoint).
  auto db = MakeWideDb(2000);
  auto built = storage::StorageDb::CreateInMemoryFrom(db, /*pool_frames=*/2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT((*built)->disk().page_count(), 2u);
  ASSERT_TRUE(Failpoints::Configure("storage.page_read=prob:1", 9).ok());
  {
    FailpointScope scope(1);
    auto result = sql::ExecuteSql(**built, "SELECT n FROM nums");
    ASSERT_FALSE(result.ok()) << "every page read faulted; query cannot run";
    EXPECT_NE(result.status().message().find("storage.page_read"),
              std::string::npos);
  }
  // Disarmed, the same StorageDb serves the query normally — a faulted
  // read corrupts nothing.
  Failpoints::Clear();
  auto retry = sql::ExecuteSql(**built, "SELECT n FROM nums");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->NumRows(), 2000u);
}

TEST_F(StorageFailpointTest, CorruptPagesSurfaceAsDataLossNotRows) {
  // Corrupt every non-catalog page. A tiny pool forces the scan to fault
  // pages back in from the corrupted store, so the executor must surface
  // the checksum failure as kDataLoss: no garbage rows, no crash.
  auto db = MakeWideDb(2000);
  auto built = storage::StorageDb::CreateInMemoryFrom(db, /*pool_frames=*/2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  storage::StorageDb& disk_db = **built;
  // Drop cached frames so reads hit the (about to be corrupted) pages.
  ASSERT_TRUE(disk_db.Flush().ok());
  for (storage::PageId p = 1; p < disk_db.disk().page_count(); ++p) {
    ASSERT_TRUE(disk_db.mutable_disk()
                    .CorruptPageForTest(p, storage::kPageHeaderBytes + 3)
                    .ok());
  }
  Counter& failures =
      MetricsRegistry::Global().GetCounter("storage.checksum_failures");
  uint64_t failures0 = failures.Value();
  auto result = sql::ExecuteSql(disk_db, "SELECT n FROM nums");
  ASSERT_FALSE(result.ok()) << "a corrupted heap must not yield rows";
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
  EXPECT_GT(failures.Value(), failures0);
}

TEST_F(StorageFailpointTest, EvictionWriteBackFaultNeverDropsDirtyPage) {
  auto disk = storage::DiskManager::CreateInMemory();
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(disk->Allocate().ok());
  storage::BufferPool pool(disk.get(), 1);
  {
    auto g = pool.Fetch(0);
    ASSERT_TRUE(g.ok());
    g->data()[7] = std::byte{0x42};
    g->MarkDirty();
  }
  ASSERT_TRUE(Failpoints::Configure("storage.evict=oneshot", 9).ok());
  FailpointScope scope(2);
  // Evicting the dirty page 0 needs a write-back, which faults: the fetch
  // of page 1 fails and the victim must stay resident, still dirty.
  auto blocked = pool.Fetch(1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_NE(blocked.status().message().find("storage.evict"),
            std::string::npos);
  {
    auto back = pool.Fetch(0);
    ASSERT_TRUE(back.ok()) << "victim was dropped after failed write-back";
    EXPECT_EQ(back->data()[7], std::byte{0x42});
  }
  // The oneshot is consumed: eviction now succeeds and the dirty bytes
  // reach disk.
  auto unblocked = pool.Fetch(1);
  ASSERT_TRUE(unblocked.ok());
  std::byte page[storage::kPageSize];
  ASSERT_TRUE(disk->ReadPage(0, page).ok());
  EXPECT_EQ(page[7], std::byte{0x42});
}

TEST_F(StorageFailpointTest, MidSplitFaultLeavesTreeConsistent) {
  auto disk = storage::DiskManager::CreateInMemory();
  storage::BufferPool pool(disk.get(), 16);
  storage::BPlusTree tree(&pool);
  // Fill one leaf close to overflow with fat text keys, fault-free.
  int inserted = 0;
  for (; inserted < 60; ++inserted) {
    sql::Value key("k" + std::string(100, 'p') + std::to_string(inserted));
    ASSERT_TRUE(tree.Insert(key, storage::Rid{0, 0}).ok());
  }
  ASSERT_TRUE(Failpoints::Configure("storage.split=prob:1", 9).ok());
  FailpointScope scope(3);
  // Keep inserting until a split is needed; that insert must fail with the
  // injected error BEFORE any page is mutated.
  int failed_at = -1;
  for (int i = inserted; i < 200; ++i) {
    sql::Value key("k" + std::string(100, 'p') + std::to_string(i));
    Status s = tree.Insert(key, storage::Rid{0, 0});
    if (!s.ok()) {
      EXPECT_NE(s.message().find("storage.split"), std::string::npos);
      failed_at = i;
      break;
    }
    ++inserted;
  }
  ASSERT_GE(failed_at, 0) << "no split triggered within 200 inserts";
  Failpoints::Clear();

  // Error-before-mutation: the tree holds exactly the successful inserts,
  // iterates cleanly, and the failed key is absent — and can be inserted
  // now that the fault is gone.
  auto count = tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<uint64_t>(inserted));
  sql::Value failed_key("k" + std::string(100, 'p') +
                        std::to_string(failed_at));
  auto contains = tree.Contains(failed_key, storage::Rid{0, 0});
  ASSERT_TRUE(contains.ok());
  EXPECT_FALSE(*contains);
  ASSERT_TRUE(tree.Insert(failed_key, storage::Rid{0, 0}).ok());
  auto after = tree.CountEntries();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, static_cast<uint64_t>(inserted + 1));
}

// ------------------------------------------------------------ parser depth

TEST(ParserDepthTest, DeeplyNestedParensRejectedShallowAccepted) {
  auto wrap = [](int depth) {
    std::string sql = "SELECT ";
    for (int i = 0; i < depth; ++i) sql += "(";
    sql += "1";
    for (int i = 0; i < depth; ++i) sql += ")";
    sql += " FROM t";
    return sql;
  };
  EXPECT_TRUE(sql::ParseSql(wrap(50)).ok());
  auto deep = sql::ParseSql(wrap(300));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  EXPECT_NE(deep.status().message().find("depth"), std::string::npos);
}

TEST(ParserDepthTest, SubqueryChainsAndUnaryChainsBounded) {
  std::string subquery_chain = "SELECT a FROM t";
  for (int i = 0; i < 250; ++i) {
    subquery_chain = "SELECT a FROM t WHERE a IN (" + subquery_chain + ")";
  }
  auto sub = sql::ParseSql(subquery_chain);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kParseError);

  std::string nots = "SELECT 1 FROM t WHERE ";
  for (int i = 0; i < 300; ++i) nots += "NOT ";
  nots += "1";
  auto notres = sql::ParseSql(nots);
  ASSERT_FALSE(notres.ok());
  EXPECT_EQ(notres.status().code(), StatusCode::kParseError);
}

TEST(ParserDepthTest, CorpusReproducersAllRejectedWithoutCrashing) {
  std::ifstream in(std::string(CODES_FUZZ_CORPUS_DIR) +
                   "/parser_depth.corpus");
  ASSERT_TRUE(in.is_open());
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto result = sql::ParseSql(line);
    ASSERT_FALSE(result.ok()) << "depth bomb unexpectedly parsed: "
                              << line.substr(0, 80);
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    EXPECT_NE(result.status().message().find("depth"), std::string::npos);
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

// ------------------------------------------------------- degradation ladder

/// FNV-1a, mirroring the pipeline's per-sample seed derivation so the test
/// can reconstruct the legacy (pre-ladder) selection rule exactly.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

class LadderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(2024));
    zoo_ = new LmZoo(1, 31);
    PipelineConfig config;
    config.size = ModelSize::k7B;
    config_ = config;
    pipeline_ = new CodesPipeline(config, zoo_->CodesFor(config.size));
    pipeline_->TrainClassifier(*bench_);
    pipeline_->FineTune(*bench_);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete zoo_;
    delete bench_;
    pipeline_ = nullptr;
    zoo_ = nullptr;
    bench_ = nullptr;
  }
  void TearDown() override { Failpoints::Clear(); }

  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
  static CodesPipeline* pipeline_;
  static PipelineConfig config_;
};
Text2SqlBenchmark* LadderTest::bench_ = nullptr;
LmZoo* LadderTest::zoo_ = nullptr;
CodesPipeline* LadderTest::pipeline_ = nullptr;
PipelineConfig LadderTest::config_;

TEST_F(LadderTest, CleanPathMatchesLegacyFirstExecutableSelection) {
  // The repair loop with no faults and no budgets must reproduce the
  // paper's rule verbatim: first executable beam candidate, else beam[0].
  int compared = 0;
  for (const auto& sample : bench_->dev) {
    if (compared >= 25) break;
    DatabasePrompt prompt = pipeline_->BuildPrompt(*bench_, sample);
    GenerationInput input;
    input.db = &bench_->DbOf(sample);
    input.prompt = &prompt;
    input.question = sample.question;
    uint64_t seed = pipeline_->config().seed ^ Fnv1a(sample.question);
    auto beam = pipeline_->model().GenerateBeam(input, seed);
    ASSERT_FALSE(beam.empty());
    std::string expected = beam[0].sql;
    for (const auto& cand : beam) {
      if (cand.executable) {
        expected = cand.sql;
        break;
      }
    }
    EXPECT_EQ(pipeline_->Predict(*bench_, sample), expected)
        << "diverged on: " << sample.question;
    ++compared;
  }
  EXPECT_EQ(compared,
            static_cast<int>(std::min<size_t>(25, bench_->dev.size())));
  EXPECT_GT(compared, 0);
}

TEST_F(LadderTest, GuardedDefaultReportIsCleanAndDeterministic) {
  const auto& sample = bench_->dev.front();
  ServeReport a, b;
  std::string sql_a =
      pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &a);
  std::string sql_b =
      pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &b);
  EXPECT_EQ(sql_a, sql_b);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(sql_a.empty());
  EXPECT_FALSE(a.Fired(ServeRung::kClassifierFallback));
  EXPECT_FALSE(a.Fired(ServeRung::kValueFallback));
  EXPECT_FALSE(a.Fired(ServeRung::kEmergencySql));
  if (a.execution_verified) {
    EXPECT_TRUE(a.final_status.ok());
    EXPECT_GE(a.candidate_rank, 0);
  }
}

TEST_F(LadderTest, UntrainedClassifierFallsBackToFullSchema) {
  CodesPipeline bare(config_, zoo_->CodesFor(config_.size));
  // No TrainClassifier: rung 1 must fire and the prediction still flows.
  ServeReport report;
  std::string sql =
      bare.PredictGuarded(*bench_, bench_->dev.front(), ServeOptions(),
                          &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(report.Fired(ServeRung::kClassifierFallback));
}

TEST_F(LadderTest, InjectedClassifierFaultFiresRungOne) {
  ASSERT_TRUE(Failpoints::Configure("classifier.score=prob:1", 5).ok());
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              ServeOptions(), &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(report.Fired(ServeRung::kClassifierFallback));
}

TEST_F(LadderTest, InjectedIndexFaultFiresValueFallback) {
  ASSERT_TRUE(
      Failpoints::Configure("value_retriever.build_index=prob:1", 5).ok());
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              ServeOptions(), &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(report.Fired(ServeRung::kValueFallback));
  EXPECT_FALSE(report.Fired(ServeRung::kClassifierFallback));
}

TEST_F(LadderTest, DecodeFaultsExhaustRepairsAndServeUnverified) {
  ASSERT_TRUE(Failpoints::Configure("lm.decode=prob:1", 5).ok());
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              ServeOptions(), &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(report.Fired(ServeRung::kRepair));
  EXPECT_FALSE(report.execution_verified);
  EXPECT_GT(report.repair_attempts, 0);
  // The unverified fallback is the highest-ranked candidate.
  EXPECT_EQ(report.candidate_rank, 0);
  EXPECT_FALSE(report.final_status.ok());
}

TEST_F(LadderTest, OneShotDecodeFaultRepairsToLowerRankedCandidate) {
  // Find a dev sample whose beam has an executable candidate below rank 0,
  // so a single injected decode failure must repair downward to it.
  const Text2SqlSample* target = nullptr;
  for (const auto& sample : bench_->dev) {
    DatabasePrompt prompt = pipeline_->BuildPrompt(*bench_, sample);
    GenerationInput input;
    input.db = &bench_->DbOf(sample);
    input.prompt = &prompt;
    input.question = sample.question;
    uint64_t seed = pipeline_->config().seed ^ Fnv1a(sample.question);
    auto beam = pipeline_->model().GenerateBeam(input, seed);
    for (size_t i = 1; i < beam.size(); ++i) {
      if (beam[i].executable) {
        target = &sample;
        break;
      }
    }
    if (target != nullptr) break;
  }
  ASSERT_NE(target, nullptr) << "no dev sample with a rank>0 executable";

  ASSERT_TRUE(Failpoints::Configure("lm.decode=oneshot", 5).ok());
  ServeReport report;
  std::string sql =
      pipeline_->PredictGuarded(*bench_, *target, ServeOptions(), &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(report.Fired(ServeRung::kRepair));
  EXPECT_EQ(report.repair_attempts, 1);
  if (report.execution_verified) {
    EXPECT_GE(report.candidate_rank, 1);
  }
}

TEST_F(LadderTest, ExecutorFaultsServeUnverifiedFallback) {
  ASSERT_TRUE(Failpoints::Configure("executor.step=prob:1", 5).ok());
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              ServeOptions(), &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_FALSE(report.execution_verified);
  EXPECT_TRUE(report.Fired(ServeRung::kRepair));
}

TEST_F(LadderTest, RowBudgetDegradesButStillServes) {
  ServeOptions options;
  options.limits.max_rows = 1;
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              options, &report);
  EXPECT_FALSE(sql.empty());
  if (!report.execution_verified) {
    EXPECT_EQ(report.final_status.code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(LadderTest, ChaosAtEverySiteNeverServesEmptySql) {
  ASSERT_TRUE(Failpoints::Configure("*=prob:0.3", 20240806).ok());
  std::vector<std::string> first_run;
  for (const auto& sample : bench_->dev) {
    ServeReport report;
    std::string sql =
        pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &report);
    EXPECT_FALSE(sql.empty()) << "empty SQL for: " << sample.question;
    first_run.push_back(sql + " | " + report.ToString());
  }
  // Same seed, same faults, same outputs.
  size_t i = 0;
  for (const auto& sample : bench_->dev) {
    ServeReport report;
    std::string sql =
        pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &report);
    EXPECT_EQ(first_run[i], sql + " | " + report.ToString())
        << "chaos rerun diverged at sample " << i;
    ++i;
  }
}

TEST_F(LadderTest, ChaosReportsAreThreadCountInvariant) {
  ASSERT_TRUE(Failpoints::Configure("*=prob:0.25", 77).ok());
  const auto& dev = bench_->dev;
  auto run = [this, &dev](int threads) {
    std::vector<std::string> out(dev.size());
    ThreadPool pool(threads);
    pool.ParallelFor(dev.size(), [this, &dev, &out](size_t begin,
                                                    size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ServeReport report;
        std::string sql = pipeline_->PredictGuarded(*bench_, dev[i],
                                                    ServeOptions(), &report);
        out[i] = sql + " | " + report.ToString();
      }
    });
    return out;
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "diverged at dev sample " << i;
  }
}

TEST_F(LadderTest, StorageFaultsDoNotPerturbServing) {
  // The serving path executes against the in-memory Database, so armed
  // storage.* sites must not fire, degrade, or change the served SQL —
  // storage faults stay confined to the storage layer.
  const auto& sample = bench_->dev.front();
  ServeReport clean;
  std::string clean_sql =
      pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &clean);
  ASSERT_TRUE(Failpoints::Configure(
                  "storage.page_read=prob:1;storage.evict=prob:1;"
                  "storage.split=prob:1",
                  9)
                  .ok());
  ServeReport faulted;
  std::string faulted_sql =
      pipeline_->PredictGuarded(*bench_, sample, ServeOptions(), &faulted);
  EXPECT_EQ(clean_sql, faulted_sql);
  EXPECT_EQ(clean.ToString(), faulted.ToString());
  EXPECT_EQ(Failpoints::FiredCount(FailpointSite::kStoragePageRead), 0u);
  EXPECT_EQ(Failpoints::FiredCount(FailpointSite::kStorageEvict), 0u);
  EXPECT_EQ(Failpoints::FiredCount(FailpointSite::kStorageSplit), 0u);
}

TEST_F(LadderTest, ServeReportRendersRungNames) {
  ServeReport report;
  report.AddRung(ServeRung::kClassifierFallback);
  report.AddRung(ServeRung::kRepair);
  report.AddRung(ServeRung::kRepair);  // deduplicated
  report.repair_attempts = 2;
  report.candidate_rank = 1;
  report.final_status = Status::Timeout("late");
  std::string rendered = report.ToString();
  EXPECT_NE(rendered.find("classifier_fallback"), std::string::npos);
  EXPECT_NE(rendered.find("repair"), std::string::npos);
  EXPECT_NE(rendered.find("Timeout"), std::string::npos);
  EXPECT_EQ(report.rungs.size(), 2u);
}

}  // namespace
}  // namespace codes
