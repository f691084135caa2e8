// Randomized property tests for the insert-only B+ tree: every insert is
// mirrored into a std::map model keyed by (Value, Rid), and the tree must
// agree with the model on lookups, full iteration order, range collection,
// and entry counts — across enough volume to force multi-level splits.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sqlengine/value.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace codes::storage {
namespace {

using sql::IndexBound;
using sql::Value;

/// Model key with the tree's exact composite ordering: Value::Compare,
/// then Rid as tiebreak.
struct ModelKey {
  Value key;
  Rid rid;
  bool operator<(const ModelKey& other) const {
    int c = key.Compare(other.key);
    if (c != 0) return c < 0;
    return rid < other.rid;
  }
};

using Model = std::map<ModelKey, bool>;  // value unused; set-like

struct TreeFixture {
  std::unique_ptr<DiskManager> disk = DiskManager::CreateInMemory();
  BufferPool pool{disk.get(), 32};
  BPlusTree tree{&pool};
};

/// Full-iteration agreement: the tree's forward walk must visit exactly
/// the model's entries in model order.
void ExpectTreeMatchesModel(const BPlusTree& tree, const Model& model) {
  auto it = tree.SeekFirst();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  auto expect = model.begin();
  while (it->Valid()) {
    ASSERT_NE(expect, model.end()) << "tree has more entries than model";
    EXPECT_EQ(it->key().Compare(expect->first.key), 0);
    EXPECT_TRUE(it->rid() == expect->first.rid)
        << "rid {" << it->rid().page << "," << it->rid().slot << "} vs {"
        << expect->first.rid.page << "," << expect->first.rid.slot << "}";
    ++expect;
    ASSERT_TRUE(it->Advance().ok());
  }
  EXPECT_EQ(expect, model.end()) << "model has more entries than tree";

  auto count = tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, model.size());
}

TEST(BTreePropertyTest, RandomInsertLookupAgreesWithModel) {
  TreeFixture fx;
  Model model;
  Rng rng(0xB7EE5EEDULL);

  // Key pool small enough to force duplicates (secondary-index shape) and
  // values from both classes would be illegal in one index, so stay
  // numeric; TEXT gets its own test below.
  auto random_key = [&rng]() {
    if (rng.Index(4) == 0) {
      return Value(static_cast<double>(rng.Index(50)) + 0.5);
    }
    return Value(static_cast<int64_t>(rng.Index(200)));
  };
  auto random_rid = [&rng]() {
    return Rid{static_cast<PageId>(rng.Index(64)),
               static_cast<uint16_t>(rng.Index(128))};
  };

  for (int step = 0; step < 4000; ++step) {
    Value key = random_key();
    Rid rid = random_rid();
    ModelKey mk{key, rid};
    bool in_model = model.count(mk) > 0;

    if (rng.Index(2) == 0) {  // insert
      Status s = fx.tree.Insert(key, rid);
      if (in_model) {
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
            << "duplicate insert must be rejected";
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        model.emplace(mk, true);
      }
    } else {  // lookup
      auto contains = fx.tree.Contains(key, rid);
      ASSERT_TRUE(contains.ok());
      EXPECT_EQ(*contains, in_model);
    }

    if (step % 500 == 499) ExpectTreeMatchesModel(fx.tree, model);
  }
  ExpectTreeMatchesModel(fx.tree, model);
  EXPECT_EQ(fx.pool.pinned_frames(), 0u);
}

TEST(BTreePropertyTest, ShuffledBulkInsertForcesInteriorSplits) {
  TreeFixture fx;
  Model model;
  Rng rng(0xC0FFEEULL);

  // Long TEXT keys overflow nodes quickly, forcing a deep tree.
  std::vector<std::pair<Value, Rid>> entries;
  for (int i = 0; i < 1200; ++i) {
    Value key("key-" + std::string(40, 'x') + std::to_string(i));
    Rid rid{static_cast<PageId>(i / 100), static_cast<uint16_t>(i % 100)};
    entries.emplace_back(std::move(key), rid);
  }
  // Shuffle deterministically so inserts hit interior splits, not just
  // rightmost-leaf appends.
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.Index(i)]);
  }
  for (const auto& [key, rid] : entries) {
    ASSERT_TRUE(fx.tree.Insert(key, rid).ok());
    model.emplace(ModelKey{key, rid}, true);
  }
  EXPECT_GT(fx.disk->page_count(), 3u) << "tree never split";
  ExpectTreeMatchesModel(fx.tree, model);
  for (const auto& [key, rid] : entries) {
    auto contains = fx.tree.Contains(key, rid);
    ASSERT_TRUE(contains.ok());
    EXPECT_TRUE(*contains);
  }
  EXPECT_EQ(fx.pool.pinned_frames(), 0u);
}

TEST(BTreePropertyTest, DuplicateKeysKeepDistinctRidsInRidOrder) {
  TreeFixture fx;
  Value dup(int64_t{7});
  // Insert the same key under many RIDs, out of RID order.
  std::vector<Rid> rids;
  for (int i = 19; i >= 0; --i) {
    Rid rid{static_cast<PageId>(i), 0};
    ASSERT_TRUE(fx.tree.Insert(dup, rid).ok());
    rids.push_back(rid);
  }
  // Exact-duplicate (key, rid) is rejected; same key, new rid is fine.
  EXPECT_EQ(fx.tree.Insert(dup, Rid{5, 0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(fx.tree.Insert(dup, Rid{5, 1}).ok());

  // Equal-range collection yields every RID, sorted by the Rid tiebreak.
  std::vector<Rid> collected;
  IndexBound eq{&dup, true};
  ASSERT_TRUE(fx.tree.CollectRange(eq, eq, &collected).ok());
  ASSERT_EQ(collected.size(), 21u);
  EXPECT_TRUE(std::is_sorted(collected.begin(), collected.end()));

  // Each RID is its own entry: an unseen RID of the same key is absent.
  auto count = fx.tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 21u);
  auto absent = fx.tree.Contains(dup, Rid{5, 2});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
}

TEST(BTreePropertyTest, CollectRangeMatchesModelOnRandomBounds) {
  TreeFixture fx;
  Model model;
  Rng rng(0x5CA1AB1EULL);
  for (int i = 0; i < 600; ++i) {
    Value key(static_cast<int64_t>(rng.Index(100)));
    Rid rid{static_cast<PageId>(i), 0};
    ASSERT_TRUE(fx.tree.Insert(key, rid).ok());
    model.emplace(ModelKey{key, rid}, true);
  }

  for (int trial = 0; trial < 200; ++trial) {
    Value lo_val(static_cast<int64_t>(rng.Index(110)) - 5);
    Value hi_val(static_cast<int64_t>(rng.Index(110)) - 5);
    bool lo_inc = rng.Index(2) == 0;
    bool hi_inc = rng.Index(2) == 0;
    bool lo_open = rng.Index(4) == 0;  // sometimes unbounded
    bool hi_open = rng.Index(4) == 0;
    IndexBound lo{lo_open ? nullptr : &lo_val, lo_inc};
    IndexBound hi{hi_open ? nullptr : &hi_val, hi_inc};

    std::vector<Rid> got;
    ASSERT_TRUE(fx.tree.CollectRange(lo, hi, &got).ok());

    std::vector<Rid> want;
    for (const auto& [mk, unused] : model) {
      if (lo.value != nullptr) {
        int c = mk.key.Compare(*lo.value);
        if (c < 0 || (c == 0 && !lo.inclusive)) continue;
      }
      if (hi.value != nullptr) {
        int c = mk.key.Compare(*hi.value);
        if (c > 0 || (c == 0 && !hi.inclusive)) continue;
      }
      want.push_back(mk.rid);
    }
    ASSERT_EQ(got.size(), want.size())
        << "trial " << trial << " lo=" << (lo.value ? "set" : "open")
        << " hi=" << (hi.value ? "set" : "open");
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i]) << "trial " << trial << " pos " << i;
    }
  }
}

TEST(BTreePropertyTest, SeekLandsOnFirstEntryAtLeastKey) {
  TreeFixture fx;
  for (int i = 0; i < 300; i += 3) {  // keys 0, 3, 6, ..., 297
    ASSERT_TRUE(
        fx.tree.Insert(Value(static_cast<int64_t>(i)), Rid{0, 0}).ok());
  }
  for (int probe = -2; probe < 302; ++probe) {
    auto it = fx.tree.Seek(Value(static_cast<int64_t>(probe)));
    ASSERT_TRUE(it.ok());
    int expected = probe <= 0 ? 0 : ((probe + 2) / 3) * 3;
    if (expected > 297) {
      EXPECT_FALSE(it->Valid()) << "probe " << probe;
    } else {
      ASSERT_TRUE(it->Valid()) << "probe " << probe;
      EXPECT_EQ(it->key().AsInteger(), expected) << "probe " << probe;
    }
  }
}

TEST(BTreePropertyTest, IteratorReSeekAfterInsertSeesNewState) {
  // The documented invalidation rule: any insert invalidates live
  // iterators; correctness is defined by what a FRESH seek observes.
  TreeFixture fx;
  for (int i = 0; i < 50; i += 2) {  // even keys 0..48
    ASSERT_TRUE(
        fx.tree.Insert(Value(static_cast<int64_t>(i)), Rid{0, 0}).ok());
  }
  ASSERT_TRUE(fx.tree.Insert(Value(int64_t{25}), Rid{0, 0}).ok());
  ASSERT_TRUE(fx.tree.Insert(Value(int64_t{1000}), Rid{0, 0}).ok());

  auto it = fx.tree.Seek(Value(int64_t{24}));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().AsInteger(), 24);
  ASSERT_TRUE(it->Advance().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().AsInteger(), 25) << "inserted key must be seen";
  ASSERT_TRUE(it->Advance().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().AsInteger(), 26);

  auto tail = fx.tree.Seek(Value(int64_t{999}));
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(tail->Valid());
  EXPECT_EQ(tail->key().AsInteger(), 1000);
}

TEST(BTreePropertyTest, OversizedKeyIsRejectedWithoutCorruption) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree.Insert(Value(int64_t{1}), Rid{0, 0}).ok());
  Value huge(std::string(kPageSize, 'k'));
  EXPECT_EQ(fx.tree.Insert(huge, Rid{0, 1}).code(),
            StatusCode::kInvalidArgument);
  // Tree still intact and iterable.
  auto count = fx.tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

}  // namespace
}  // namespace codes::storage
