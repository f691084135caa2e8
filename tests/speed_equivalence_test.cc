// Equivalence suite for the hot-path speed campaign: every rewritten
// component (bit-parallel LCS, interned-term BM25, flat-hash n-gram LM)
// must be *behaviorally invisible* — byte-identical outputs, including
// the exact double values, against the pinned reference implementations
// it replaced. These tests are the contract that lets bench_latency's
// before/after numbers claim a pure speed win. GenerationEquivalenceTest
// extends the contract to whole requests: beams, served SQL and the
// generated datasets hash to committed constants.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "index/bm25_index.h"
#include "index/bm25_reference.h"
#include "lm/ngram_lm.h"
#include "lm/ngram_reference.h"
#include "retrieval/demonstration_retriever.h"
#include "text/similarity.h"

namespace codes {
namespace {

// ---------------------------------------------------------------------------
// Longest common substring: bit-parallel vs reference DP.
// ---------------------------------------------------------------------------

std::string RandomString(std::mt19937& rng, size_t max_len,
                         std::string_view alphabet) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<size_t> chr_dist(0, alphabet.size() - 1);
  std::string s;
  const size_t len = len_dist(rng);
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) s.push_back(alphabet[chr_dist(rng)]);
  return s;
}

TEST(LcsEquivalenceTest, HandPickedPairs) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "abc"},
      {"abc", ""},
      {"a", "a"},
      {"a", "b"},
      {"abcdef", "zabcy"},
      {"Sarah Martinez", "sarah martinez"},  // case folding
      {"the quick brown fox", "a quick brown dog"},
      {"aaaaaaaa", "aaaa"},
      {"abab", "baba"},
      {"Jesenik branch office", "clients of the Jesenik branch"},
      // Identical strings of every interesting length re word size.
      {std::string(63, 'x'), std::string(63, 'x')},
      {std::string(64, 'x'), std::string(64, 'x')},
      {std::string(65, 'x'), std::string(65, 'x')},
      {std::string(200, 'q') + "needle" + std::string(200, 'w'),
       std::string(150, 'e') + "needle" + std::string(10, 'r')},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(LcsEquivalenceTest, Utf8AndNonAsciiBytes) {
  // The PR-4 tolower corpus: folding is ASCII-only, so multi-byte UTF-8
  // sequences must match byte-for-byte in both implementations.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"Caf\xC3\xA9 Mayor", "caf\xC3\xA9 mayor"},
      {"Caf\xC3\xA9", "Caf\xC3\xA8"},  // é vs è share the lead byte 0xC3
      {"\xE5\x8C\x97\xE4\xBA\xAC restaurants",
       "restaurants in \xE5\x8C\x97\xE4\xBA\xAC"},            // 北京
      {"\xE5\x8C\x97\xE4\xBA\xAC", "\xE4\xBA\xAC\xE5\x8C\x97"},  // 北京 vs 京北
      {"stra\xC3\x9F" "e", "STRA\xC3\x9F" "E"},                  // straße
      {"\xFF\xFE\x00\x01", "\x00\x01\xFF"},  // arbitrary non-UTF-8 bytes
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b));
  }
}

TEST(LcsEquivalenceTest, RandomizedSmallAlphabet) {
  // A small alphabet forces long common runs and dense match masks.
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string a = RandomString(rng, 150, "abcAB ");
    const std::string b = RandomString(rng, 150, "abcAB ");
    ASSERT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(LcsEquivalenceTest, RandomizedWideAlphabet) {
  std::mt19937 rng(7);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-'.";
  for (int iter = 0; iter < 300; ++iter) {
    const std::string a = RandomString(rng, 300, alphabet);
    const std::string b = RandomString(rng, 300, alphabet);
    ASSERT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b));
  }
}

TEST(LcsEquivalenceTest, LongInputsUseFallbackConsistently) {
  // Inputs past the bit-parallel size cap take the reference-DP fallback;
  // the seam must be invisible.
  std::mt19937 rng(99);
  const std::string a = RandomString(rng, 5000, "abcd");
  const std::string b = RandomString(rng, 120, "abcd");
  EXPECT_EQ(LongestCommonSubstringLength(a, b),
            LongestCommonSubstringLengthReferenceDp(a, b));
}

TEST(LcsEquivalenceTest, EightThreadsMatchSerial) {
  std::mt19937 rng(4242);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    pairs.emplace_back(RandomString(rng, 200, "abcdefg "),
                       RandomString(rng, 200, "abcdefg "));
    expected.push_back(LongestCommonSubstringLengthReferenceDp(
        pairs.back().first, pairs.back().second));
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Every thread scores every pair: the thread_local scratch (masks,
      // generation stamps) must never leak state across calls or threads.
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (LongestCommonSubstringLength(pairs[i].first, pairs[i].second) !=
            expected[i]) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// BM25: interned flat-postings index vs pinned map-based reference.
// ---------------------------------------------------------------------------

std::vector<std::string> RandomCorpus(std::mt19937& rng, int num_docs) {
  // A vocabulary small enough that terms collide across documents (so idf
  // and tf vary) with some multi-word cell values like real DB content.
  static const std::vector<std::string> kWords = {
      "Jesenik",  "Prague",   "branch", "office",  "Sarah",   "Martinez",
      "road",     "losses",   "castle", "district","client",  "account",
      "2019",     "total",    "north",  "station", "premium", "Ostrava",
      "wine",     "exporter", "blue",   "red",     "green",   "velvet"};
  std::uniform_int_distribution<int> words_per_doc(1, 6);
  std::uniform_int_distribution<size_t> word_dist(0, kWords.size() - 1);
  std::vector<std::string> docs;
  docs.reserve(static_cast<size_t>(num_docs));
  for (int d = 0; d < num_docs; ++d) {
    std::string doc;
    const int n = words_per_doc(rng);
    for (int w = 0; w < n; ++w) {
      if (!doc.empty()) doc += ' ';
      doc += kWords[word_dist(rng)];
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<std::string> RandomQueries(std::mt19937& rng, int num) {
  static const std::vector<std::string> kQueries = {
      "clients of the Jesenik branch office",
      "total road losses in 2019",
      "Sarah Martinez premium account",
      "wine exporter near Prague castle district",
      "north station Ostrava",
      "red velvet",
      "nonexistent zebra token",
      "office office office",
  };
  std::uniform_int_distribution<size_t> q(0, kQueries.size() - 1);
  std::vector<std::string> out;
  for (int i = 0; i < num; ++i) out.push_back(kQueries[q(rng)]);
  return out;
}

void ExpectSameHits(const std::vector<Bm25Hit>& got,
                    const std::vector<Bm25Hit>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc_id, want[i].doc_id) << label << " rank " << i;
    // Byte-identical doubles, not just approximately equal: the rewrite
    // preserves the accumulation order, so == must hold.
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

TEST(Bm25EquivalenceTest, RandomCorporaMatchReferenceExactly) {
  std::mt19937 rng(123);
  for (int round = 0; round < 10; ++round) {
    const auto docs = RandomCorpus(rng, 40 + round * 17);
    Bm25Index fast;
    ReferenceBm25Index ref;
    for (const auto& d : docs) {
      fast.AddDocument(d);
      ref.AddDocument(d);
    }
    fast.Finalize();
    ref.Finalize();
    for (const auto& q : RandomQueries(rng, 12)) {
      for (int top_k : {1, 3, 10, 1000, -1}) {
        ExpectSameHits(fast.Query(q, top_k), ref.Query(q, top_k),
                       "round " + std::to_string(round) + " q=" + q +
                           " k=" + std::to_string(top_k));
      }
    }
  }
}

TEST(Bm25EquivalenceTest, IncrementalBatchesMatchReference) {
  std::mt19937 rng(55);
  const auto first = RandomCorpus(rng, 30);
  const auto second = RandomCorpus(rng, 25);
  Bm25Index fast;
  ReferenceBm25Index ref;
  for (const auto& d : first) {
    fast.AddDocument(d);
    ref.AddDocument(d);
  }
  fast.Finalize();
  ref.Finalize();
  (void)fast.Query("Prague", 5);
  for (const auto& d : second) {
    fast.AddDocument(d);
    ref.AddDocument(d);
  }
  fast.Finalize();
  ref.Finalize();
  for (const auto& q : RandomQueries(rng, 10)) {
    ExpectSameHits(fast.Query(q, 8), ref.Query(q, 8), "q=" + q);
  }
}

TEST(Bm25EquivalenceTest, TopKHeapMatchesFullSortTruncation) {
  // The bounded-heap path (large candidate set, small k) must return
  // exactly the prefix of the full sorted ranking.
  std::mt19937 rng(77);
  const auto docs = RandomCorpus(rng, 300);
  Bm25Index index;
  for (const auto& d : docs) index.AddDocument(d);
  index.Finalize();
  const std::string q = "Jesenik branch office Prague castle";
  const auto full = index.Query(q, -1);
  for (int k : {1, 2, 5, 17, 100}) {
    const auto top = index.Query(q, k);
    ASSERT_EQ(top.size(),
              std::min(full.size(), static_cast<size_t>(k)));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].doc_id, full[i].doc_id) << i;
      EXPECT_EQ(top[i].score, full[i].score) << i;
    }
  }
}

TEST(Bm25EquivalenceTest, EightThreadsMatchSerial) {
  std::mt19937 rng(31);
  const auto docs = RandomCorpus(rng, 120);
  Bm25Index index;
  for (const auto& d : docs) index.AddDocument(d);
  index.Finalize();
  const auto queries = RandomQueries(rng, 40);
  std::vector<std::vector<Bm25Hit>> serial;
  serial.reserve(queries.size());
  for (const auto& q : queries) serial.push_back(index.Query(q, 10));

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto hits = index.Query(queries[i], 10);
        if (hits.size() != serial[i].size()) {
          ++failures[t];
          continue;
        }
        for (size_t j = 0; j < hits.size(); ++j) {
          if (hits[j].doc_id != serial[i][j].doc_id ||
              hits[j].score != serial[i][j].score) {
            ++failures[t];
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// N-gram LM: flat-hash trie vs pinned nested-map reference.
// ---------------------------------------------------------------------------

std::vector<std::string> SqlCorpus() {
  return {
      "SELECT name FROM singer WHERE age > 20",
      "SELECT count(*) FROM concert WHERE year = 2014",
      "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = "
      "T2.singer_id",
      "SELECT avg(age), min(age), max(age) FROM singer",
      "SELECT name, country FROM singer ORDER BY age DESC",
      "SELECT DISTINCT country FROM singer WHERE age > 20",
      "INSERT INTO stadium VALUES (1, 'Stark Arena', 20000)",
      "SELECT stadium_id, count(*) FROM concert GROUP BY stadium_id",
  };
}

std::vector<std::string> HeldOut() {
  return {
      "SELECT name FROM stadium WHERE capacity > 5000",
      "SELECT count(*) FROM singer",
      "totally out of domain text with unseen tokens xyzzy plugh",
      "",
  };
}

TEST(NgramEquivalenceTest, TrainedModelsScoreIdentically) {
  for (int order : {1, 2, 3, 5}) {
    NgramLm fast(order);
    ReferenceNgramLm ref(order);
    fast.Train(SqlCorpus());
    ref.Train(SqlCorpus());
    EXPECT_EQ(fast.VocabSize(), ref.VocabSize()) << "order " << order;
    EXPECT_EQ(fast.TokensTrained(), ref.TokensTrained()) << "order " << order;
    for (const auto& text : HeldOut()) {
      EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text))
          << "order " << order << " text=" << text;
    }
    for (const auto& text : SqlCorpus()) {
      EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text))
          << "order " << order << " text=" << text;
    }
    EXPECT_EQ(fast.Perplexity(HeldOut()), ref.Perplexity(HeldOut()))
        << "order " << order;
  }
}

TEST(NgramEquivalenceTest, ContinuedPretrainingMatches) {
  // Incremental pre-training (the Section 5 mechanism) accumulates counts
  // across Train calls and epochs; both implementations must drift the
  // same way, bit for bit.
  const std::vector<std::string> extra = {
      "SELECT product FROM sales WHERE region = 'north'",
      "SELECT region, sum(amount) FROM sales GROUP BY region",
  };
  NgramLm fast(3);
  ReferenceNgramLm ref(3);
  fast.Train(SqlCorpus());
  ref.Train(SqlCorpus());
  fast.Train(extra, /*epochs=*/3);
  ref.Train(extra, /*epochs=*/3);
  EXPECT_EQ(fast.VocabSize(), ref.VocabSize());
  EXPECT_EQ(fast.TokensTrained(), ref.TokensTrained());
  for (const auto& text : HeldOut()) {
    EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text)) << text;
  }
  EXPECT_EQ(fast.Perplexity(SqlCorpus()), ref.Perplexity(SqlCorpus()));
}

TEST(NgramEquivalenceTest, EightThreadsMatchSerial) {
  NgramLm lm(3);
  lm.Train(SqlCorpus());
  std::vector<std::string> texts = SqlCorpus();
  for (const auto& t : HeldOut()) texts.push_back(t);
  std::vector<double> serial;
  serial.reserve(texts.size());
  for (const auto& t : texts) serial.push_back(lm.AvgLogProb(t));

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Scoring is lookup-only (unseen tokens are never interned), so
      // concurrent AvgLogProb must be race-free and exact.
      for (size_t i = 0; i < texts.size(); ++i) {
        if (lm.AvgLogProb(texts[i]) != serial[i]) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// Generation: servebench's two deployments, pinned to committed digests.
// A change that claims a pure generation speedup must leave every beam
// (SQL, template id, score bit pattern), every served SQL and both
// generated datasets byte-identical at 1 and 8 threads.
// ---------------------------------------------------------------------------

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}
uint64_t Fnv(uint64_t h, const std::string& s) {
  uint64_t n = s.size();
  return Fnv(Fnv(h, &n, sizeof(n)), s.data(), s.size());
}
uint64_t Fnv(uint64_t h, uint64_t v) { return Fnv(h, &v, sizeof(v)); }
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t DatasetDigest(const Text2SqlBenchmark& bench) {
  uint64_t h = kFnvBasis;
  for (const auto* split : {&bench.train, &bench.dev}) {
    h = Fnv(h, split->size());
    for (const auto& s : *split) {
      h = Fnv(Fnv(Fnv(h, s.question), s.sql), s.external_knowledge);
    }
  }
  return h;
}

/// servebench's deployment: Spider-like 7B with SFT, or BIRD-like 7B with
/// 3-shot ICL, external knowledge and top_k1/top_k2 = 5/6.
struct Deployment {
  Text2SqlBenchmark bench;
  std::unique_ptr<CodesPipeline> pipeline;
  std::unique_ptr<DemonstrationRetriever> demos;

  Deployment(bool bird, const LmZoo& zoo)
      : bench(bird ? BuildBirdLike() : BuildSpiderLike()) {
    PipelineConfig config;
    config.size = ModelSize::k7B;
    if (bird) {
      config.icl_shots = 3;
      config.prompt.top_k1 = 5;
      config.prompt.top_k2 = 6;
      config.use_external_knowledge = true;
    }
    pipeline = std::make_unique<CodesPipeline>(config, zoo.CodesFor(config.size));
    pipeline->TrainClassifier(bench);
    if (bird) {
      pipeline->SetDemonstrationPool(bench.train);
      DemonstrationRetriever::Options options;
      options.embedding_dim = pipeline->model().profile().embedding_dim;
      options.use_pattern_similarity = config.use_pattern_similarity;
      demos = std::make_unique<DemonstrationRetriever>(bench.train, options);
    } else {
      pipeline->FineTune(bench);
    }
  }

  /// Digest of one dev request: the full beam PredictGuarded decodes
  /// (same prompt, demonstrations and seed) and the SQL it serves.
  uint64_t RequestDigest(const Text2SqlSample& sample) const {
    const PipelineConfig& config = pipeline->config();
    DatabasePrompt prompt = pipeline->BuildPrompt(bench, sample);
    GenerationInput input;
    input.db = &bench.DbOf(sample);
    input.prompt = &prompt;
    input.question = sample.question;
    std::string question = sample.question;
    if (config.use_external_knowledge) {
      input.external_knowledge = sample.external_knowledge;
      if (!sample.external_knowledge.empty()) {
        question += " ; " + sample.external_knowledge;
      }
    }
    if (demos != nullptr) {
      for (int i : demos->TopK(question, config.icl_shots)) {
        input.demonstrations.push_back(&bench.train[static_cast<size_t>(i)]);
      }
    }
    uint64_t seed = config.seed ^ Fnv(kFnvBasis, sample.question.data(),
                                      sample.question.size());
    uint64_t h = kFnvBasis;
    for (const auto& cand : pipeline->model().GenerateBeam(input, seed)) {
      uint64_t bits;
      std::memcpy(&bits, &cand.score, sizeof(bits));
      h = Fnv(Fnv(Fnv(Fnv(h, cand.sql), cand.template_id), bits),
              cand.executable ? 1 : 0);
    }
    return Fnv(h, pipeline->PredictGuarded(bench, sample, ServeOptions()));
  }

  uint64_t DevDigest(int threads) const {
    std::vector<uint64_t> per(bench.dev.size());
    ThreadPool pool(threads);
    pool.ParallelFor(per.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) per[i] = RequestDigest(bench.dev[i]);
    });
    uint64_t h = kFnvBasis;
    for (uint64_t v : per) h = Fnv(h, v);
    return h;
  }
};

class GenerationEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new LmZoo();
    spider_ = new Deployment(/*bird=*/false, *zoo_);
    bird_ = new Deployment(/*bird=*/true, *zoo_);
  }
  static void TearDownTestSuite() {
    delete bird_;
    delete spider_;
    delete zoo_;
  }
  static LmZoo* zoo_;
  static Deployment* spider_;
  static Deployment* bird_;
};
LmZoo* GenerationEquivalenceTest::zoo_ = nullptr;
Deployment* GenerationEquivalenceTest::spider_ = nullptr;
Deployment* GenerationEquivalenceTest::bird_ = nullptr;

TEST_F(GenerationEquivalenceTest, DatasetsMatchPinnedDigests) {
  EXPECT_EQ(DatasetDigest(spider_->bench), 0x90dd16fe4f98c1d7ULL);
  EXPECT_EQ(DatasetDigest(bird_->bench), 0x751e4cc80e309ccdULL);
}

TEST_F(GenerationEquivalenceTest, SpiderSftBeamsMatchPinnedDigest) {
  EXPECT_EQ(spider_->DevDigest(1), 0x739e90b470071970ULL);
  EXPECT_EQ(spider_->DevDigest(8), 0x739e90b470071970ULL);
}

TEST_F(GenerationEquivalenceTest, BirdIclBeamsMatchPinnedDigest) {
  EXPECT_EQ(bird_->DevDigest(1), 0xe0851ca9162be688ULL);
  EXPECT_EQ(bird_->DevDigest(8), 0xe0851ca9162be688ULL);
}

}  // namespace
}  // namespace codes
