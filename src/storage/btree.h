#ifndef CODES_STORAGE_BTREE_H_
#define CODES_STORAGE_BTREE_H_

// Page-based B+ tree over the buffer pool, used for primary and secondary
// indexes. Keys are composite (sql::Value, Rid): the RID tiebreak makes
// every entry unique, which is how duplicate column values (secondary
// indexes) get well-defined ordering. Value ordering is
// sql::Value::Compare — numerically for INTEGER/REAL, lexicographically
// for TEXT — which matches the executor's predicate semantics exactly when
// a column is single-class (see ColumnIndexStats::ValueClass).
//
// Node pages hold variable-length serialized entries; splits fire when a
// node overflows its page. storage.split injects faults at split entry.
// The tree is insert-only: rows are bulk-loaded or appended, never deleted.
//
// Iterators are forward-only snapshots of one leaf at a time; ANY insert
// invalidates every outstanding iterator (the property test pins this
// rule by re-seeking after each insert batch).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqlengine/exec_source.h"
#include "sqlengine/value.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace codes::storage {

class BPlusTree {
 public:
  /// Attaches to an existing tree (root from catalog) or an empty one
  /// (kInvalidPageId; the root leaf is allocated on first insert).
  explicit BPlusTree(BufferPool* pool, PageId root = kInvalidPageId);

  PageId root() const { return root_; }

  /// Materialized node image; public so the file-local page codec helpers
  /// in btree.cc can operate on it. Not part of the external API.
  struct Node;

  Status Insert(const sql::Value& key, const Rid& rid);

  Result<bool> Contains(const sql::Value& key, const Rid& rid) const;

  /// One index entry as seen by an iterator.
  struct Entry {
    sql::Value key;
    Rid rid;
  };

  /// Forward iterator; see the invalidation rule in the file comment.
  class Iterator {
   public:
    bool Valid() const { return pos_ < entries_.size(); }
    const sql::Value& key() const { return entries_[pos_].key; }
    const Rid& rid() const { return entries_[pos_].rid; }
    Status Advance();

   private:
    friend class BPlusTree;
    const BPlusTree* tree_ = nullptr;
    std::vector<Entry> entries_;  ///< decoded current leaf
    size_t pos_ = 0;
    PageId next_leaf_ = kInvalidPageId;
  };

  /// Iterator at the smallest entry.
  Result<Iterator> SeekFirst() const;

  /// Iterator at the first entry with key >= `key` (any RID).
  Result<Iterator> Seek(const sql::Value& key) const;

  /// Appends the RIDs of every entry whose key falls within [lo, hi]
  /// under Value::Compare (sql::IndexBound semantics; null bound pointer =
  /// unbounded). RIDs are appended in key order, NOT row order.
  Status CollectRange(const sql::IndexBound& lo, const sql::IndexBound& hi,
                      std::vector<Rid>* out) const;

  /// Total number of entries (walks the leaf chain).
  Result<uint64_t> CountEntries() const;

 private:
  struct InsertOutcome;

  Status LoadLeafInto(PageId leaf, Iterator* it) const;
  Status InsertRec(PageId node_id, const std::string& leaf_entry,
                   const sql::Value& key, const Rid& rid,
                   InsertOutcome* outcome);

  BufferPool* pool_;
  PageId root_;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_BTREE_H_
