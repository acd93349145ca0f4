// minidb inverted-index manager: posting-list indexes derived from heap
// scans, cached per (table, columns) and kept consistent with the store.
//
// Every index is an immutable build over one version of one table,
// published behind a shared_ptr: readers that grabbed an index keep a
// consistent view even if a later mutation triggers a rebuild. A key may
// hold several versions at once, one per table version some reader can
// still see. Each cache entry records when it is valid:
//   * for working-state readers (no SnapshotScope installed): the schema
//     epoch and the table's DML version it was built at. DDL, VACUUM and
//     ROLLBACK bump the epoch; Database::insertRow/eraseRow/updateRow call
//     onTableMutated(), which bumps the table's version;
//   * for snapshot readers: the range [lo, hi) of pager commit seqs over
//     which the table is unchanged. Just before every commit is published,
//     the pager calls onPublish(seq), which ends the open range of each
//     table mutated since the previous commit at that seq. A reader at seq
//     S uses the entry whose range holds S, or builds one through its own
//     SnapshotScope.
// An entry built from working state with no unpublished change to its
// table also gets an open seq range, and an open-range entry of a table
// with no unpublished change also serves working-state readers, so an
// in-process query and a server snapshot read share one build. An entry
// is retired once no working-state reader can match it and its range ends
// at or below the oldest seq any pinned or future snapshot can hold.
//
// Accessors return nullptr instead of an index whenever the fast path must
// not be trusted: the table/columns don't exist or a column holds values
// outside the encodable domain (non-integer ids, negative ids, non-text
// names). Callers fall back to the B-tree/SQL path;
// pt_invidx_fallbacks_total counts how often.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "minidb/invidx/posting.h"
#include "obs/metrics.h"

namespace perftrack::minidb {
class Database;
}

namespace perftrack::minidb::invidx {

/// Cached pt_invidx_* instruments (obs registry idiom: resolve once).
struct Counters {
  obs::Counter& builds;
  obs::Counter& build_rows;
  obs::Counter& probes;
  obs::Counter& intersections;
  obs::Counter& unions;
  obs::Counter& topk_early_exits;
  obs::Counter& fallbacks;
  obs::Counter& invalidations;
  obs::Gauge& lists;
  obs::Gauge& bytes;
  obs::Histogram& build_ms;
};
Counters& counters();

/// Base bookkeeping shared by every index flavor.
class IndexBase {
 public:
  virtual ~IndexBase() = default;
  std::size_t rows() const { return rows_; }
  std::size_t listCount() const { return list_count_; }
  std::size_t byteSize() const { return byte_size_; }

 protected:
  std::size_t rows_ = 0;
  std::size_t list_count_ = 0;
  std::size_t byte_size_ = 0;
};

/// value-of-column -> posting of packed RecordIds (page<<16|slot). Packed
/// rids sort exactly like the big-endian rid suffix of B-tree index keys,
/// so per-key emission order matches an index point probe.
class RidIndex : public IndexBase {
 public:
  const PostingList* find(std::int64_t key) const {
    const auto it = lists_.find(key);
    return it == lists_.end() ? nullptr : &it->second;
  }

 private:
  friend class Manager;
  std::unordered_map<std::int64_t, PostingList> lists_;
};

/// key-column value -> sorted-unique posting of value-column values
/// (focus_has_resource: resource -> foci; performance_result_has_focus:
/// focus -> results; closure tables: resource -> ancestors/descendants).
class ValueIndex : public IndexBase {
 public:
  const PostingList* find(std::int64_t key) const {
    const auto it = lists_.find(key);
    return it == lists_.end() ? nullptr : &it->second;
  }
  /// Bounds of the *value* domain (Bitmap accumulator sizing).
  std::uint64_t valueLo() const { return value_lo_; }
  std::uint64_t valueHi() const { return value_hi_; }

 private:
  friend class Manager;
  std::unordered_map<std::int64_t, PostingList> lists_;
  std::uint64_t value_lo_ = 0;
  std::uint64_t value_hi_ = 0;
};

/// Inverted index over Unix-path resource names: path segments and
/// trigrams of the full name, plus exact base-name postings and an
/// id -> full-name map for candidate verification.
class NameIndex : public IndexBase {
 public:
  const PostingList* segment(const std::string& s) const {
    const auto it = segments_.find(s);
    return it == segments_.end() ? nullptr : &it->second;
  }
  const PostingList* trigram(const std::string& t) const {
    const auto it = trigrams_.find(t);
    return it == trigrams_.end() ? nullptr : &it->second;
  }
  const PostingList* baseName(const std::string& n) const {
    const auto it = base_names_.find(n);
    return it == base_names_.end() ? nullptr : &it->second;
  }
  const std::string* fullName(std::int64_t id) const {
    const auto it = full_names_.find(id);
    return it == full_names_.end() ? nullptr : &it->second;
  }

 private:
  friend class Manager;
  std::unordered_map<std::string, PostingList> segments_;
  std::unordered_map<std::string, PostingList> trigrams_;
  std::unordered_map<std::string, PostingList> base_names_;
  std::unordered_map<std::int64_t, std::string> full_names_;
};

/// Per attribute name: the distinct values, each with a sorted id posting.
/// Predicates evaluate against distinct values (comparators apply per
/// value, numeric-aware), so cost scales with distinct values, not rows.
class AttrIndex : public IndexBase {
 public:
  struct ValuePosting {
    std::string value;
    PostingList ids;
  };
  const std::vector<ValuePosting>* valuesOf(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &it->second;
  }

 private:
  friend class Manager;
  std::unordered_map<std::string, std::vector<ValuePosting>> by_name_;
};

class Manager {
 public:
  explicit Manager(Database& db) : db_(&db) {}
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Posting of packed rids per distinct integer value of `column`
  /// (table-local ordinal). The planner's posting access path.
  std::shared_ptr<const RidIndex> ridIndex(const std::string& table, int column);

  /// Integer key column -> posting of integer value-column values.
  std::shared_ptr<const ValueIndex> valueIndex(const std::string& table,
                                               const std::string& key_col,
                                               const std::string& value_col);

  /// Segment/trigram/base-name index over a path-named table.
  std::shared_ptr<const NameIndex> nameIndex(const std::string& table,
                                             const std::string& id_col,
                                             const std::string& name_col,
                                             const std::string& full_name_col);

  /// (name, value, id) attribute triples grouped by name.
  std::shared_ptr<const AttrIndex> attrIndex(const std::string& table,
                                             const std::string& id_col,
                                             const std::string& name_col,
                                             const std::string& value_col);

  /// DML hook (Database::insertRow/eraseRow/updateRow), once per row: bumps
  /// the table's version and marks it changed since the last commit. O(1).
  void onTableMutated(const std::string& table);

  /// Commit hook (Pager publish hook), writer side, just before the commit
  /// with sequence number `seq` becomes visible to new snapshots: ends the
  /// open seq range of every table mutated since the previous commit and
  /// retires their dead entries. Work is proportional to those tables.
  void onPublish(std::uint64_t seq);

 private:
  static constexpr std::uint64_t kOpen = UINT64_MAX;  // range still open
  static constexpr std::uint64_t kNoVersion = UINT64_MAX;

  struct Entry {
    std::uint64_t epoch = 0;
    std::uint64_t version = kNoVersion;  // working-state rule
    std::uint64_t lo = 0, hi = 0;        // snapshot rule: seqs [lo, hi)
    std::shared_ptr<const IndexBase> index;  // null = negative cache
  };

  struct TableState {
    std::uint64_t version = 0;     // bumped once per mutated row
    std::uint64_t changed_at = 0;  // seq of the last commit that changed it
    bool dirty = false;            // mutated since the last commit
    std::unordered_map<std::string, std::vector<Entry>> entries;  // by key
  };

  /// Looks up `key` for the calling thread's view (its SnapshotScope, or
  /// working state); when no entry holds it, runs `build` outside the lock
  /// (returns null on unbuildable input, which is cached too so broken
  /// shapes don't rescan every call).
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> getOrBuild(const std::string& table,
                                      const std::string& key, BuildFn build);

  /// Drops `entries` no reader can match any more (stale epoch, or no
  /// working-state match and a range ending at or below `oldest_seq`).
  void retire(const TableState& t, std::vector<Entry>& entries,
              std::uint64_t epoch, std::uint64_t oldest_seq);

  Database* db_;
  std::mutex mu_;
  std::unordered_map<std::string, TableState> tables_;
  std::vector<TableState*> dirty_;  // tables with dirty set (stable pointers)
};

}  // namespace perftrack::minidb::invidx
