// The campaign harness shared by the tools/ campaign programs: the flag
// table parser's usage errors, the checked metrics writer, and the metric
// invariants the serving layers declare, evaluated on a real front-end
// run with one counter deliberately knocked out of balance.

#include "campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "serve/load_gen.h"

namespace codes {
namespace {

// ---------------------------------------------------------- flag table

struct TestFlags {
  int requests = 10;
  uint64_t seed = 1;
  double qps = 1.0;
  double rate = 0.0;
  std::string spec;
  bool smoke = false;
};

std::vector<std::string_view> Parse(TestFlags* flags,
                                    std::vector<std::string> args) {
  const campaign::Flag table[] = {
      {"--requests", &flags->requests, "N", campaign::AtLeast(1)},
      {"--seed", &flags->seed, "S"},
      {"--qps", &flags->qps, "Q", campaign::Above(0)},
      {"--rate", &flags->rate, "P", campaign::Within(0, 1)},
      {"--spec", &flags->spec, "SPEC"},
      {"--smoke", &flags->smoke},
  };
  args.insert(args.begin(), "test_tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return campaign::ParseFlags(static_cast<int>(argv.size()), argv.data(),
                              "test_tool", table);
}

TEST(CampaignFlagsTest, ParsesEveryKindAndReportsWhatWasGiven) {
  TestFlags flags;
  auto given = Parse(&flags, {"--requests=7", "--seed=42", "--qps=2.5",
                              "--spec=a=prob:0.2;b=nth:3", "--smoke"});
  EXPECT_EQ(flags.requests, 7);
  EXPECT_EQ(flags.seed, 42u);
  EXPECT_DOUBLE_EQ(flags.qps, 2.5);
  EXPECT_EQ(flags.spec, "a=prob:0.2;b=nth:3");  // split at the first '='
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(given, (std::vector<std::string_view>{"--requests", "--seed",
                                                  "--qps", "--spec",
                                                  "--smoke"}));
}

TEST(CampaignFlagsTest, BoundsAreInclusiveUnlessOpen) {
  TestFlags flags;
  Parse(&flags, {"--requests=1", "--rate=0", "--rate=1", "--qps=1e-9"});
  EXPECT_EQ(flags.requests, 1);
  EXPECT_DOUBLE_EQ(flags.rate, 1.0);
  EXPECT_DOUBLE_EQ(flags.qps, 1e-9);
}

// Every usage error exits 2 with a diagnostic naming the flag, then the
// usage text.
void ExpectUsageError(std::vector<std::string> args,
                      const std::string& diagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TestFlags flags;
  EXPECT_EXIT(Parse(&flags, args), ::testing::ExitedWithCode(2),
              diagnostic + ".*usage: test_tool \\[--requests=N\\]");
}

TEST(CampaignFlagsTest, UnknownFlagExits2) {
  ExpectUsageError({"--requests=3", "--reqests=3"}, "unknown flag: --reqests=3");
  ExpectUsageError({"--rate-limit=3"}, "unknown flag: --rate-limit=3");
}

TEST(CampaignFlagsTest, BareFlagWithoutValueExits2) {
  ExpectUsageError({"--requests"}, "--requests requires a value");
  ExpectUsageError({"--spec"}, "--spec requires a value");
}

TEST(CampaignFlagsTest, SwitchWithValueExits2) {
  ExpectUsageError({"--smoke=1"}, "--smoke takes no value");
}

TEST(CampaignFlagsTest, NonNumericValueExits2) {
  ExpectUsageError({"--requests=abc"}, "bad value for --requests: 'abc'");
  ExpectUsageError({"--qps=nan"}, "bad value for --qps: 'nan'");
  ExpectUsageError({"--seed=-1"}, "bad value for --seed: '-1'");
  ExpectUsageError({"--requests="}, "bad value for --requests: ''");
}

TEST(CampaignFlagsTest, TrailingGarbageExits2) {
  ExpectUsageError({"--requests=12x"}, "bad value for --requests: '12x'");
  ExpectUsageError({"--rate=0.5 "}, "bad value for --rate: '0.5 '");
}

TEST(CampaignFlagsTest, OutOfRangeValueExits2) {
  ExpectUsageError({"--requests=0"}, "--requests must be >= 1");
  ExpectUsageError({"--qps=0"}, "--qps must be > 0");
  ExpectUsageError({"--rate=1.5"}, "--rate must be in \\[0, 1\\]");
  ExpectUsageError({"--requests=99999999999"},
                   "bad value for --requests: '99999999999'");
}

// ---------------------------------------------------------- metrics writer

MetricsSnapshot SmallSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters["a"] = 1;
  snapshot.gauges["b"] = -2;
  return snapshot;
}

TEST(MetricsWriterTest, WritesJsonWithTrailingNewline) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "campaign_test_metrics.json";
  MetricsSnapshot snapshot = SmallSnapshot();
  ASSERT_TRUE(snapshot.WriteJsonFile(path.string()).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), snapshot.ToJson() + "\n");
  std::filesystem::remove(path);
}

TEST(MetricsWriterTest, NonexistentDirectoryIsAnError) {
  std::filesystem::path path = std::filesystem::temp_directory_path() /
                               "campaign_test_no_such_dir" / "m.json";
  Status written = SmallSnapshot().WriteJsonFile(path.string());
  EXPECT_FALSE(written.ok());
  EXPECT_NE(written.message().find("cannot open"), std::string::npos);
}

TEST(MetricsWriterTest, FailedFlushIsAnError) {
  // /dev/full accepts the open and fails the write-back with ENOSPC, which
  // a writer that ignores fwrite/fclose results would report as success.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Status written = SmallSnapshot().WriteJsonFile("/dev/full");
  EXPECT_FALSE(written.ok());
  EXPECT_NE(written.message().find("cannot write"), std::string::npos);
}

TEST(MetricsWriterTest, CheckAndWriteExits2OnAFailedWrite) {
  testing::internal::CaptureStdout();
  int rc = campaign::CheckAndWrite(MetricsSnapshot{}, "/no/such/dir/m.json");
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 2);
}

// ---------------------------------------------------------- invariants

/// A quiesced snapshot of a real 2x-saturation run through the serving
/// front end (admission, queue, shedding, brownout, PredictGuarded).
class DeclaredInvariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bench = BuildTinySpiderLike(2024);
    LmZoo zoo(1, 31);
    PipelineConfig config;
    config.size = ModelSize::k7B;
    CodesPipeline pipeline(config, zoo.CodesFor(config.size));
    pipeline.TrainClassifier(bench);
    pipeline.FineTune(bench);

    serve::LoadGenOptions options;
    options.seed = 7;
    options.num_requests = 160;
    options.offered_qps = 400.0;  // 2x the 4 x 50/s virtual capacity
    options.virtual_workers = 4;
    options.service_base_us = 20'000;
    options.deadline_us = 100'000;
    options.threads = 2;
    options.failpoint_spec = "*=prob:0.05";
    MetricsRegistry::Global().Reset();
    serve::RunLoadCampaign(pipeline, bench, options);
    snapshot_ = new MetricsSnapshot(MetricsRegistry::Global().Snapshot());
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
  }

  static std::set<std::string> Broken(const MetricsSnapshot& snapshot) {
    std::set<std::string> broken;
    for (const auto& check : snapshot.CheckInvariants()) {
      if (!check.holds) broken.insert(check.invariant);
    }
    return broken;
  }

  static MetricsSnapshot* snapshot_;
};

MetricsSnapshot* DeclaredInvariantTest::snapshot_ = nullptr;

/// Whether `counter` takes part in `invariant`, as its total or as one of
/// its parts (a part ending in ".*" names a counter family).
bool Covers(const MetricInvariant& invariant, const std::string& counter) {
  if (counter == invariant.total) return true;
  for (const std::string& part : invariant.parts) {
    bool family = part.size() > 2 && part.substr(part.size() - 2) == ".*";
    if (family ? counter.rfind(part.substr(0, part.size() - 1), 0) == 0
               : counter == part) {
      return true;
    }
  }
  return false;
}

TEST_F(DeclaredInvariantTest, ServingIdentitiesAreDeclaredAndHold) {
  std::set<std::string> declared;
  for (const auto& [text, invariant] : MetricsRegistry::Global().Invariants()) {
    declared.insert(text);
  }
  for (const char* identity :
       {"serve.offered == serve.admitted + serve.rejected + serve.shed",
        "serve.shed == serve.shed.deadline + serve.shed.drain",
        "serve.requests == serve.outcome.*",
        "serve.requests == serve.adv.clean + serve.adv.suspect",
        "serve.admitted >= serve.brownout.served.*"}) {
    EXPECT_EQ(declared.count(identity), 1u) << identity;
  }
  EXPECT_GT(snapshot_->CounterOr0("serve.shed"), 0u);
  EXPECT_GT(snapshot_->CounterOr0("serve.rejected"), 0u);
  EXPECT_TRUE(Broken(*snapshot_).empty());
}

TEST_F(DeclaredInvariantTest, InjectedBugBreaksExactlyTheCoveringInvariants) {
  for (const char* counter :
       {"serve.shed.deadline", "serve.rejected.queue_full", "serve.requests",
        "serve.outcome.clean", "serve.adv.clean", "serve.adv.retry_served"}) {
    std::set<std::string> covering;
    for (const auto& [text, invariant] :
         MetricsRegistry::Global().Invariants()) {
      if (Covers(invariant, counter)) covering.insert(text);
    }
    ASSERT_FALSE(covering.empty()) << counter;

    MetricsSnapshot bugged = *snapshot_;
    bugged.counters[counter] += 1;
    EXPECT_EQ(Broken(bugged), covering) << counter;
  }
}

TEST_F(DeclaredInvariantTest, CampaignsExit1NamingTheBrokenInvariant) {
  MetricsSnapshot bugged = *snapshot_;
  bugged.counters["serve.shed.deadline"] += 1;
  testing::internal::CaptureStdout();
  int rc = campaign::CheckAndWrite(bugged, "");
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("INVARIANT VIOLATION: serve.shed == serve.shed.deadline "
                     "+ serve.shed.drain"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("metrics: serve.offered == "), std::string::npos) << out;

  testing::internal::CaptureStdout();
  EXPECT_EQ(campaign::CheckAndWrite(*snapshot_, ""), 0);
  testing::internal::GetCapturedStdout();
}

}  // namespace
}  // namespace codes
