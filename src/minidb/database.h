// minidb: the storage-layer database object.
//
// Ties the pager, catalog, heap files, and B+-tree indexes into one
// transactional record store. The SQL front-end (minidb/sql) compiles
// statements against this interface; PerfTrack's DB abstraction layer
// (src/dbal) wraps it behind a Connection facade, the way the paper's
// Python layer wrapped Oracle/PostgreSQL.
//
// Row mutations take the resolved TableDef (from this database's catalog)
// and walk its index list, so the per-row path does no name lookup. Callers
// that cache a TableDef* must drop it when schemaEpoch() moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "minidb/btree.h"
#include "minidb/catalog.h"
#include "minidb/invidx/manager.h"
#include "minidb/keycodec.h"
#include "minidb/heap.h"
#include "minidb/pager.h"
#include "minidb/value.h"

namespace perftrack::minidb {

/// Storage-layer open options (durability mode, VFS override).
struct OpenOptions {
  Durability durability = Durability::Wal;
  /// All file operations route through this VFS when set (borrowed, must
  /// outlive the Database). Defaults to the real filesystem; the crash
  /// tests pass a FaultInjectingVfs here.
  Vfs* vfs = nullptr;
  /// WAL mode only: checkpoint automatically before a commit once the log
  /// holds this many frames (0 = never checkpoint automatically). Ignored in
  /// other durability modes.
  std::uint32_t wal_autocheckpoint = kDefaultWalAutoCheckpoint;
};

class Database {
 public:
  /// RAII pin held by every open cursor (storage-level and SQL-level).
  /// A pin taken while the calling thread reads through a pager snapshot
  /// (SnapshotScope installed) counts as a *snapshot* cursor: its data is
  /// frozen, so row mutations and ROLLBACK may proceed underneath it — only
  /// DDL and VACUUM (which retarget catalog-derived plans) still refuse.
  /// A pin over the working state counts as an *open* cursor: DDL, VACUUM,
  /// ROLLBACK, and row mutations all throw StorageError while one is live.
  class CursorPin {
   public:
    CursorPin() = default;
    explicit CursorPin(const Database& db)
        : db_(&db), snapshot_(db.pager_->snapshotScopeSeq() != 0) {
      ++(snapshot_ ? db_->snapshot_cursors_ : db_->open_cursors_);
    }
    CursorPin(CursorPin&& o) noexcept : db_(o.db_), snapshot_(o.snapshot_) {
      o.db_ = nullptr;
    }
    CursorPin& operator=(CursorPin&& o) noexcept {
      if (this != &o) {
        release();
        db_ = o.db_;
        snapshot_ = o.snapshot_;
        o.db_ = nullptr;
      }
      return *this;
    }
    CursorPin(const CursorPin&) = delete;
    CursorPin& operator=(const CursorPin&) = delete;
    ~CursorPin() { release(); }

    void release() {
      if (db_ != nullptr) --(snapshot_ ? db_->snapshot_cursors_ : db_->open_cursors_);
      db_ = nullptr;
    }
    bool active() const { return db_ != nullptr; }
    bool isSnapshot() const { return db_ != nullptr && snapshot_; }

   private:
    const Database* db_ = nullptr;
    bool snapshot_ = false;
  };

  /// Pull-based full-table scan. Obtained from openCursor(); holds a
  /// CursorPin for its open lifetime.
  class TableCursor {
   public:
    TableCursor(TableCursor&&) = default;
    TableCursor& operator=(TableCursor&&) = default;

    /// Produces the next live record. Returns false (and closes) at end.
    bool next(RecordId& rid, Row& row);
    /// Releases the pin early; idempotent (next() then always returns false).
    void close();
    bool isOpen() const { return pin_.active(); }

   private:
    friend class Database;
    TableCursor(const Database& db, PageId first_page);
    CursorPin pin_;
    HeapFile::Iterator it_;
  };

  /// Pull-based index probe (point lookup or range scan), mirroring the
  /// semantics of indexScanEqual()/indexScanRange().
  class IndexCursor {
   public:
    IndexCursor(IndexCursor&&) = default;
    IndexCursor& operator=(IndexCursor&&) = default;

    bool next(RecordId& rid, Row& row);
    void close();
    bool isOpen() const { return pin_.active(); }

   private:
    friend class Database;
    IndexCursor(const Database& db, const IndexDef& index, const TableDef& table);
    const Database* db_ = nullptr;
    CursorPin pin_;
    std::string index_name_;  // for dangling-entry error messages
    std::vector<int> columns_;
    PageId heap_first_ = kInvalidPage;
    bool equal_mode_ = true;
    // equal mode: encoded prefix plus exact values for re-verification.
    EncodedKey prefix_;
    std::vector<Value> key_prefix_;
    // range mode: bounds on the first key column.
    std::optional<Value> lower_, upper_;
    bool lower_inclusive_ = true, upper_inclusive_ = true;
    int first_col_ = 0;
    std::optional<BTree::Iterator> it_;
  };

  /// Opens (or creates) a file-backed database in WAL (crash-safe) mode.
  static std::unique_ptr<Database> open(const std::string& path);
  /// Opens (or creates) a file-backed database with explicit options.
  static std::unique_ptr<Database> open(const std::string& path,
                                        const OpenOptions& options);
  /// Creates a fresh in-memory database.
  static std::unique_ptr<Database> openMemory();

  explicit Database(std::unique_ptr<Pager> pager);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL -----------------------------------------------------------------
  /// Creates a table. `primary_key` column (if any) must be INTEGER; it gets
  /// a unique index and auto-assignment of NULL values on insert.
  void createTable(const std::string& name, std::vector<ColumnDef> columns,
                   int primary_key = -1);
  void dropTable(const std::string& name);
  void createIndex(const std::string& name, const std::string& table,
                   const std::vector<std::string>& columns, bool unique = false);
  void dropIndex(const std::string& name);

  const Catalog& catalog() const { return catalog_; }

  /// Monotonic counter bumped whenever catalog-derived pointers may go stale
  /// (DDL, VACUUM, rollback). Cached query plans record the epoch they were
  /// built under and replan when it no longer matches.
  std::uint64_t schemaEpoch() const {
    return schema_epoch_.load(std::memory_order_relaxed);
  }

  // --- DML -----------------------------------------------------------------
  // `table` must come from catalog() and be valid under the current
  // schemaEpoch().

  /// Inserts `row` (one value per column, in declaration order). A NULL
  /// primary key is auto-assigned the next integer id. Returns the assigned
  /// primary key value (or 0 when the table has no PK).
  std::int64_t insertRow(const TableDef& table, Row row);
  /// insertRow by table name (resolved on every call).
  std::int64_t insertRow(const std::string& table, Row row);

  /// Deletes the record at `rid`. Returns false when already gone.
  bool eraseRow(const TableDef& table, RecordId rid);

  /// Replaces the record at `rid` with `row`; maintains indexes.
  void updateRow(const TableDef& table, RecordId rid, const Row& row);

  /// Reads one record.
  std::optional<Row> readRow(const std::string& table, RecordId rid) const;

  /// Full-scan visitor; `fn` returns false to stop early.
  void scan(const std::string& table,
            const std::function<bool(RecordId, const Row&)>& fn) const;

  /// Index range scan: visits rows whose key columns equal `key_prefix`
  /// (ordered); `fn` returns false to stop.
  void indexScanEqual(const IndexDef& index, const std::vector<Value>& key_prefix,
                      const std::function<bool(RecordId, const Row&)>& fn) const;

  /// Index range scan over [lower, upper] bounds on the first key column.
  /// Null optionals mean unbounded.
  void indexScanRange(const IndexDef& index, const std::optional<Value>& lower,
                      bool lower_inclusive, const std::optional<Value>& upper,
                      bool upper_inclusive,
                      const std::function<bool(RecordId, const Row&)>& fn) const;

  // --- cursors --------------------------------------------------------------
  /// Pull-based full-table scan; the SQL layer's SeqScan operator and any
  /// caller that wants to stop early without the callback inversion.
  TableCursor openCursor(const std::string& table) const;

  /// Pull-based index point probe (rows whose key columns equal
  /// `key_prefix`, in index order, exact-value re-verified).
  IndexCursor openIndexEqual(const IndexDef& index,
                             std::vector<Value> key_prefix) const;

  /// Pull-based index range scan over [lower, upper] on the first key column.
  IndexCursor openIndexRange(const IndexDef& index, std::optional<Value> lower,
                             bool lower_inclusive, std::optional<Value> upper,
                             bool upper_inclusive) const;

  /// Pins the database for an externally managed cursor (the SQL layer's
  /// Cursor holds one for its whole open lifetime, covering the gaps between
  /// storage-level probes).
  CursorPin pinCursor() const { return CursorPin(*this); }

  /// Number of live working-state cursor pins (tests and error messages).
  std::size_t openCursorCount() const { return open_cursors_; }

  /// Number of live snapshot cursor pins (readers frozen at a commit).
  std::size_t snapshotCursorCount() const { return snapshot_cursors_; }

  // --- snapshots ------------------------------------------------------------
  /// Pins the latest committed version for lock-free reads, in every
  /// durability mode (None and in-memory stores included). Install a
  /// Pager::SnapshotScope built from the returned snapshot around every read
  /// (the SQL layer does this when a cursor is opened with a snapshot).
  /// Snapshots must not be carried across DDL/VACUUM — the server's gate
  /// guarantees that by excluding readers during schema changes.
  Pager::ReadSnapshot takeSnapshot() const { return pager_->beginSnapshot(); }

  /// This database's durability mode (None for in-memory stores).
  Durability durability() const { return pager_->durability(); }

  // --- transactions ---------------------------------------------------------
  void begin();
  void commit();
  void rollback();
  bool inTransaction() const { return pager_->inTransaction(); }

  /// Commits like commit(), but in WAL mode the fsync is deferred: the
  /// returned LSN must be passed to waitDurable() before the commit is
  /// acknowledged to a client. Concurrent committers' waitDurable() calls
  /// batch into one fsync behind a leader (group commit). Returns 0 when the
  /// commit is already durable (non-WAL modes, or nothing to write).
  std::uint64_t commitDeferred();

  /// Blocks until the commit identified by `lsn` (from commitDeferred) is on
  /// stable storage. Safe to call without any lock held.
  void waitDurable(std::uint64_t lsn) { pager_->waitDurable(lsn); }

  /// WAL mode: folds the log into the db file and resets it. Not allowed
  /// inside a transaction; no-op in other modes.
  void checkpoint() { pager_->checkpoint(); }

  /// Rewrites every table's heap (dropping tombstones and dead payload
  /// bytes) and rebuilds every index, then returns the freed pages to the
  /// free list. Record ids change; not allowed inside a transaction.
  void vacuum();

  /// Cross-checks every index against its heap: each index entry must point
  /// at a live record whose key columns re-encode to the entry, and each
  /// live record must appear in every index exactly once. Returns
  /// human-readable problem descriptions (empty = consistent).
  std::vector<std::string> verifyIntegrity() const;

  /// Persists all dirty pages (implicit on destruction for file backends).
  void flush() { pager_->flush(); }

  /// What WAL recovery (if any) happened when the store was opened.
  const RecoveryStats& recoveryStats() const { return pager_->recoveryStats(); }

  /// Logical database size in bytes (Table 1 "DB size increase" metric).
  std::uint64_t sizeBytes() const { return pager_->sizeBytes(); }

  /// On-disk db file size in bytes (0 for in-memory backends).
  std::uint64_t fileSizeBytes() const { return pager_->fileSizeBytes(); }

  /// Bytes of valid write-ahead log, or 0 when absent/not in WAL mode.
  std::uint64_t walSizeBytes() const { return pager_->walSizeBytes(); }

  Pager& pager() { return *pager_; }

  /// Inverted-index manager: posting-list indexes over this database's
  /// tables, versioned by commit so snapshot readers and the working state
  /// each find a build that matches what they read (insertRow/eraseRow/
  /// updateRow and every pager publish notify it; rollback/DDL/VACUUM are
  /// covered by the epoch). See minidb/invidx/manager.h.
  invidx::Manager& invidx() { return invidx_; }

 private:
  friend class CursorPin;

  const TableDef& tableOrThrow(const std::string& name) const;
  void assertNoOpenCursors(const char* op) const;
  /// Stricter guard for DDL/VACUUM: refuses snapshot cursors too, since
  /// those operations retarget the catalog their plans were built against.
  void assertNoCursorsAtAll(const char* op) const;
  /// Bumps the schema epoch and, inside a transaction, marks it as having
  /// run DDL (so rollback knows to reload the catalog).
  void noteSchemaChange();
  void insertIntoIndexes(const TableDef& table, const Row& row, RecordId rid);
  void removeFromIndexes(const TableDef& table, const Row& row, RecordId rid);
  void checkUnique(const IndexDef& index, const Row& row) const;
  std::int64_t nextId(const TableDef& table);

  std::unique_ptr<Pager> pager_;
  Catalog catalog_;
  // Atomic because snapshot readers in ptserverd revalidate cached plans
  // against the epoch while a writer session commits or rolls back.
  std::atomic<std::uint64_t> schema_epoch_{0};
  // Whether the open transaction ran DDL; rollback only reloads the catalog
  // (and thereby races with nothing: DDL requires schema exclusion) when the
  // transaction actually touched it.
  bool txn_schema_touched_ = false;
  // Per-table auto-increment cursors, computed lazily by scanning the PK
  // index once. Invalidated on rollback (ids may have been given back).
  std::unordered_map<std::string, std::int64_t> next_ids_;
  // Live cursor pins; guarded operations refuse to run while nonzero.
  // Atomic because ptserverd opens/closes cursors from concurrent reader
  // sessions; the DbGate orders pins against writers, but pin counting
  // itself crosses reader threads. Snapshot cursors (reads frozen at a
  // commit) are counted separately: they only block DDL/VACUUM.
  mutable std::atomic<std::size_t> open_cursors_{0};
  mutable std::atomic<std::size_t> snapshot_cursors_{0};
  invidx::Manager invidx_{*this};
};

}  // namespace perftrack::minidb
