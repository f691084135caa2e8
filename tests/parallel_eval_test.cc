// Regression guard for the tentpole of the parallel-evaluation work: the
// sharded driver must produce byte-identical predictions and identical
// metrics at every thread count, and the pipeline's const inference path
// must be safe to hammer from many threads (this file is what the TSan CI
// leg runs against the shared retriever cache).

#include "eval/parallel_eval.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

class ParallelEvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(2024));
    zoo_ = new LmZoo(1, 31);
    PipelineConfig config;
    config.size = ModelSize::k7B;
    pipeline_ = new CodesPipeline(config, zoo_->CodesFor(config.size));
    pipeline_->TrainClassifier(*bench_);
    pipeline_->FineTune(*bench_);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete zoo_;
    delete bench_;
  }
  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
  static CodesPipeline* pipeline_;
};
Text2SqlBenchmark* ParallelEvalTest::bench_ = nullptr;
LmZoo* ParallelEvalTest::zoo_ = nullptr;
CodesPipeline* ParallelEvalTest::pipeline_ = nullptr;

TEST_F(ParallelEvalTest, ThreadCountInvariance) {
  // The tentpole guarantee: 1 thread and 8 threads give byte-identical
  // predictions and identical metrics, TS instances included.
  EvalOptions options;
  options.compute_ts = true;
  options.ts_instances = 2;

  options.num_threads = 1;
  EvalResult serial =
      ParallelEvaluateDevSet(*bench_, pipeline_->PredictorFor(*bench_),
                             options);
  options.num_threads = 8;
  EvalResult parallel =
      ParallelEvaluateDevSet(*bench_, pipeline_->PredictorFor(*bench_),
                             options);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples[i].index, static_cast<int>(i));
    EXPECT_EQ(parallel.samples[i].index, static_cast<int>(i));
    EXPECT_EQ(serial.samples[i].predicted, parallel.samples[i].predicted)
        << "prediction diverged at sample " << i;
    EXPECT_EQ(serial.samples[i].ex, parallel.samples[i].ex);
    EXPECT_EQ(serial.samples[i].ts, parallel.samples[i].ts);
  }
  EXPECT_DOUBLE_EQ(serial.metrics.ex, parallel.metrics.ex);
  EXPECT_DOUBLE_EQ(serial.metrics.ts, parallel.metrics.ts);
  EXPECT_EQ(serial.metrics.n, parallel.metrics.n);
}

TEST_F(ParallelEvalTest, RepeatedParallelRunsAreDeterministic) {
  EvalOptions options;
  options.num_threads = 4;
  EvalResult a = ParallelEvaluateDevSet(
      *bench_, pipeline_->PredictorFor(*bench_), options);
  EvalResult b = ParallelEvaluateDevSet(
      *bench_, pipeline_->PredictorFor(*bench_), options);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].predicted, b.samples[i].predicted);
  }
  EXPECT_DOUBLE_EQ(a.metrics.ex, b.metrics.ex);
}

TEST_F(ParallelEvalTest, EvaluateDevSetMatchesDriverAtAnyThreadCount) {
  // The public EvaluateDevSet wrapper (default: hardware concurrency)
  // agrees with an explicit serial run.
  EvalOptions serial_options;
  serial_options.num_threads = 1;
  EvalMetrics serial = EvaluateDevSet(
      *bench_, pipeline_->PredictorFor(*bench_), serial_options);

  EvalOptions default_options;  // num_threads = 0 -> hardware concurrency
  EvalMetrics parallel = EvaluateDevSet(
      *bench_, pipeline_->PredictorFor(*bench_), default_options);

  EXPECT_DOUBLE_EQ(serial.ex, parallel.ex);
  EXPECT_DOUBLE_EQ(serial.ts, parallel.ts);
  EXPECT_EQ(serial.n, parallel.n);
}

TEST_F(ParallelEvalTest, ParallelPredictOrdersBySampleIndex) {
  auto serial = ParallelPredict(*bench_, pipeline_->PredictorFor(*bench_),
                                /*num_threads=*/1);
  auto parallel = ParallelPredict(*bench_, pipeline_->PredictorFor(*bench_),
                                  /*num_threads=*/8);
  ASSERT_EQ(serial.size(), bench_->dev.size());
  EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelEvalTest, MaxSamplesCapsParallelEvaluation) {
  EvalOptions options;
  options.num_threads = 8;
  options.max_samples = 3;
  EvalResult r = ParallelEvaluateDevSet(
      *bench_, pipeline_->PredictorFor(*bench_), options);
  EXPECT_EQ(r.metrics.n, 3);
  EXPECT_EQ(r.samples.size(), 3u);
}

TEST_F(ParallelEvalTest, ConcurrentPredictorsShareRetrieverCacheSafely) {
  // Hammers the pipeline's lazily built per-database retriever cache from
  // many threads at once on a fresh pipeline (cold cache): this is the
  // race TSan guards after the shared_mutex fix.
  PipelineConfig config;
  config.size = ModelSize::k1B;
  CodesPipeline fresh(config, zoo_->CodesFor(config.size));
  fresh.TrainClassifier(*bench_);
  fresh.FineTune(*bench_);
  EvalOptions options;
  options.num_threads = 8;
  EvalResult r =
      ParallelEvaluateDevSet(*bench_, fresh.PredictorFor(*bench_), options);
  EXPECT_EQ(r.metrics.n, static_cast<int>(bench_->dev.size()));
  // And again with a predictor that touches the cache via BuildPrompt too.
  std::atomic<int> prompts{0};
  auto probe = [&](const Text2SqlSample& sample) {
    (void)fresh.BuildPrompt(*bench_, sample);
    prompts.fetch_add(1, std::memory_order_relaxed);
    return fresh.Predict(*bench_, sample);
  };
  EvalResult r2 = ParallelEvaluateDevSet(*bench_, probe, options);
  EXPECT_EQ(prompts.load(), r2.metrics.n);
  EXPECT_DOUBLE_EQ(r.metrics.ex, r2.metrics.ex);
}

TEST(ParallelEvalLmZooTest, EightThreadsRaceFirstCodesFor) {
  // LmZoo trains each n-gram order on first access. Eight threads released
  // together must all see one trained model, and it must score exactly
  // like the same order trained with no contention.
  LmZoo raced(1, 31);
  std::atomic<bool> go{false};
  std::vector<const NgramLm*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[i] = raced.CodesFor(ModelSize::k7B);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const NgramLm* lm : seen) EXPECT_EQ(lm, seen[0]);

  LmZoo serial(1, 31);
  const std::string sql = "SELECT name FROM singer WHERE age > 30";
  EXPECT_EQ(seen[0]->AvgLogProb(sql),
            serial.CodesFor(ModelSize::k7B)->AvgLogProb(sql));
  EXPECT_EQ(raced.BaseFor(ModelSize::k7B)->AvgLogProb(sql),
            serial.BaseFor(ModelSize::k7B)->AvgLogProb(sql));
}

}  // namespace
}  // namespace codes
