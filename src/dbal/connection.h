// PerfTrack DB abstraction layer (dbal).
//
// The paper's prototype talks to Oracle or PostgreSQL through a thin Python
// DBI layer; PerfTrack code never depends on a specific DBMS. This library
// plays the same role in C++: a Connection facade over a SQL engine with
// interchangeable backends — file-backed ("postgres-like", durable),
// in-memory (scratch analysis sessions), and remote (a ptserverd daemon
// reached over TCP or a Unix socket; see src/server and dbal/remote.h). All
// higher layers (core, ptdf, tools) speak SQL through this interface only,
// which is what lets every CLI workflow run unchanged against a shared
// query server.
//
// For local backends, every statement routed through exec()/execPrepared()
// passes through a bounded LRU cache of prepared statements keyed by SQL
// text, so repeated statements (the rule in PerfTrack's load and query
// paths) skip the lexer/parser/planner entirely. The cache is cleared on
// DDL and when the index-ablation switch flips; cached plans additionally
// revalidate against the storage layer's schema epoch, so invalidation bugs
// degrade to replans, never to stale results.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/diag.h"
#include "minidb/database.h"
#include "minidb/sql/executor.h"

namespace perftrack::dbal {

using minidb::sql::ResultSet;

/// Counters exposed for tests and the cache-ablation benchmarks.
struct StatementCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      // entries dropped by the LRU bound
  std::uint64_t invalidations = 0;  // entries dropped by DDL / ablation flips
};

/// A streaming SELECT cursor at the abstraction-layer level: rows are pulled
/// one at a time, so wide results never materialize client-side. Local
/// cursors step minidb's operator pipeline directly (and pin the storage
/// layer against DDL/VACUUM/DML while open); remote cursors pull bounded row
/// batches from a server-side cursor that holds the same guarantees.
class Cursor {
 public:
  /// Backend hook behind the cursor surface.
  class Impl {
   public:
    virtual ~Impl() = default;
    virtual const std::vector<std::string>& columns() const = 0;
    virtual bool next(minidb::Row& row) = 0;
    /// Batch pull. The default adapter loops next() up to `batch.capacity`
    /// rows (at least one); backends with a native batch path (local
    /// pipeline, remote wire fetch) override it.
    virtual bool fetchBatch(minidb::sql::RowBatch& batch) {
      batch.clearRows();
      if (batch.cols.empty()) batch.reset(columns().size(), 0);
      const std::size_t cap = batch.capacity > 0 ? batch.capacity : 1;
      minidb::Row row;
      while (batch.nrows < cap && next(row)) {
        batch.appendMoveValues(row);
        row.clear();
      }
      return batch.nrows > 0;
    }
    virtual void close() = 0;
    virtual bool isOpen() const = 0;
  };

  explicit Cursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
  Cursor(Cursor&&) = default;
  Cursor& operator=(Cursor&&) = default;

  const std::vector<std::string>& columns() const { return impl_->columns(); }

  /// Produces the next row; returns false (and auto-closes) at end.
  bool next(minidb::Row& row) { return impl_->next(row); }

  /// Pulls the next batch of rows (see minidb::sql::Cursor::fetchBatch for
  /// the capacity contract). Returns false (and auto-closes) at end.
  bool fetchBatch(minidb::sql::RowBatch& batch) {
    return impl_->fetchBatch(batch);
  }

  /// Releases the pipeline/server cursor and the statement pin early;
  /// idempotent.
  void close() { impl_->close(); }

  bool isOpen() const { return impl_ != nullptr && impl_->isOpen(); }

 private:
  std::unique_ptr<Impl> impl_;
};

/// One open database session (local file, local memory, or remote server).
class Connection {
 public:
  virtual ~Connection() = default;

  /// Opens a session on `path`:
  ///   ":memory:"            fresh in-memory store
  ///   "pt://host:port"      remote ptserverd session over TCP
  ///   "pt://unix:/sock"     remote ptserverd session over a Unix socket
  ///   anything else         file-backed store (created when missing)
  /// File-backed stores default to WAL durability (write-ahead log +
  /// group-commit fsync; see DESIGN.md §5.2).
  static std::unique_ptr<Connection> open(const std::string& path);

  /// Opens with explicit storage options (durability mode, VFS override);
  /// ignored for ":memory:" and remote targets.
  static std::unique_ptr<Connection> open(const std::string& path,
                                          const minidb::OpenOptions& options);

  /// Executes one SQL statement (no '?' parameters). Executing
  /// parameterized SQL here throws; use execPrepared().
  virtual ResultSet exec(std::string_view sql) = 0;

  /// Executes parameterized SQL: `params` bind the '?' placeholders in
  /// order. Compiled statements are cached by SQL text (client-side for
  /// local backends, server-side for remote ones), so call sites that reuse
  /// one text with varying parameters pay for parsing/planning once.
  virtual ResultSet execPrepared(std::string_view sql,
                                 std::vector<minidb::Value> params) = 0;

  /// Opens a streaming cursor over a SELECT (or EXPLAIN). Goes through the
  /// statement cache like exec(); if the cached statement is already being
  /// stepped by another cursor, a fresh uncached statement is compiled so
  /// interleaved cursors on one connection never share bindings. The same
  /// fallback applies to exec()/execPrepared() on a busy statement.
  virtual Cursor query(std::string_view sql) = 0;
  virtual Cursor query(std::string_view sql, std::vector<minidb::Value> params) = 0;

  // --- scalar helpers for the common lookup patterns -----------------------
  /// Returns the first column of the first row, or NULL when empty.
  minidb::Value queryValue(std::string_view sql);
  minidb::Value queryValue(std::string_view sql, std::vector<minidb::Value> params);
  std::int64_t queryInt(std::string_view sql, std::int64_t default_value = 0);
  std::int64_t queryInt(std::string_view sql, std::vector<minidb::Value> params,
                        std::int64_t default_value = 0);

  // --- transactions ---------------------------------------------------------
  /// Remote sessions are autocommit-only (the server wraps each mutating
  /// statement in its own atomic commit); begin() there throws.
  virtual void begin() = 0;
  virtual void commit() = 0;
  virtual void rollback() = 0;
  virtual bool inTransaction() const = 0;

  /// Comparison-based diagnosis (DESIGN.md §5.10): aligns the results of
  /// `request.exec_a` and `request.exec_b` over comparable contexts and
  /// returns the divergent (metric, context) pairs ranked by contribution
  /// to the total delta. Local backends run the core::diag engine in
  /// process; remote sessions round-trip the DIFF wire verb and stream the
  /// ranked rows back, so both render byte-identical reports. Throws
  /// util::ModelError (local) or util::SqlError (remote) when either
  /// execution does not exist; the base implementation throws SqlError.
  virtual core::diag::Report diff(const core::diag::Request& request);

  /// Logical store size in bytes (Table 1's "DB size increase" numbers).
  /// For remote sessions this is one STAT round trip.
  virtual std::uint64_t sizeBytes() const = 0;

  /// WAL recovery outcome of open (all-false for clean opens,
  /// in-memory stores, and remote sessions — the server recovers its own
  /// store when it starts).
  virtual const minidb::RecoveryStats& recoveryStats() const = 0;

  /// Sets one execution option of the minidb/sql/options.h table (DESIGN.md
  /// §5.11); both backends throw the same util::SqlError for an unknown name
  /// or an out-of-range value. Local connections drop all cached statements
  /// when the value changes; remote ones forward it as a session-scoped
  /// SET_OPTION, so a remote exec_threads reaches the server's session.
  virtual void setOption(std::string_view name, std::int64_t value) = 0;

  void setInvidxEnabled(bool enabled) { setOption("invidx", enabled ? 1 : 0); }
  /// Whether the in-process inverted-index fast paths may run (always
  /// false for remote connections, which have no local store).
  virtual bool invidxEnabled() const { return false; }

  // --- statement-cache introspection ----------------------------------------
  // Local backends report the real LRU numbers; the remote backend keeps no
  // client-side plan cache, so the base defaults (zeros, no-ops) apply.
  virtual std::size_t statementCacheSize() const { return 0; }
  virtual const StatementCacheStats& statementCacheStats() const;
  /// Sets the LRU bound (0 disables caching) and evicts down to it.
  virtual void setStatementCacheCapacity(std::size_t capacity) { (void)capacity; }
  virtual void clearStatementCache() {}

  /// Direct storage access (integrity checks, tests). Only local
  /// connections have one; remote connections throw SqlError.
  virtual minidb::Database& database();

  /// The in-process store, or nullptr for remote connections (the core
  /// fast paths use it to reach the inverted-index manager; remote callers
  /// fall back to SQL).
  virtual minidb::Database* localDatabase() { return nullptr; }
};

/// The in-process backends: a minidb store opened in this process (file or
/// memory), fronted by the LRU statement cache described above.
class LocalConnection final : public Connection {
 public:
  static std::unique_ptr<LocalConnection> open(const std::string& path,
                                               const minidb::OpenOptions& options);

  ResultSet exec(std::string_view sql) override;
  ResultSet execPrepared(std::string_view sql,
                         std::vector<minidb::Value> params) override;
  Cursor query(std::string_view sql) override;
  Cursor query(std::string_view sql, std::vector<minidb::Value> params) override;

  void begin() override { db_->begin(); }
  void commit() override { db_->commit(); }
  void rollback() override { db_->rollback(); }
  bool inTransaction() const override { return db_->inTransaction(); }

  core::diag::Report diff(const core::diag::Request& request) override {
    return core::diag::diagnose(engine_, request);
  }

  std::uint64_t sizeBytes() const override { return db_->sizeBytes(); }
  const minidb::RecoveryStats& recoveryStats() const override {
    return db_->recoveryStats();
  }

  void setOption(std::string_view name, std::int64_t value) override;
  bool invidxEnabled() const override { return engine_.options().invidx; }

  std::size_t statementCacheSize() const override { return cache_.size(); }
  const StatementCacheStats& statementCacheStats() const override { return stats_; }
  void setStatementCacheCapacity(std::size_t capacity) override;
  void clearStatementCache() override { dropEntries(nullptr); }

  minidb::Database& database() override { return *db_; }
  minidb::Database* localDatabase() override { return db_.get(); }

 private:
  explicit LocalConnection(std::unique_ptr<minidb::Database> db)
      : db_(std::move(db)), engine_(*db_) {}

  struct CacheEntry {
    std::string sql;
    std::shared_ptr<minidb::sql::PreparedStatement> stmt;
  };

  /// Returns the cached statement for `sql`, compiling and (when the
  /// statement kind is cacheable) inserting it on miss. When the cached
  /// statement is busy (an open cursor is stepping it), compiles a fresh
  /// uncached statement instead — this covers query() AND exec()/
  /// execPrepared(), so a statement mid-scan is never re-entered.
  std::shared_ptr<minidb::sql::PreparedStatement> prepared(std::string_view sql);
  void dropEntries(std::uint64_t* counter);

  std::unique_ptr<minidb::Database> db_;
  minidb::sql::Engine engine_;

  // MRU-ordered entry list plus an index keyed by string_views into the
  // entries' own SQL strings (list nodes never move, so the views and
  // iterators stay valid across splices).
  std::list<CacheEntry> cache_;
  std::unordered_map<std::string_view, std::list<CacheEntry>::iterator> cache_map_;
  std::size_t cache_capacity_ = 256;
  StatementCacheStats stats_;
};

}  // namespace perftrack::dbal
