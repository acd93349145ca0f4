#include "dbal/connection.h"

#include "dbal/remote.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::dbal {

namespace {

using minidb::sql::Statement;

/// Process-wide mirrors of the per-connection StatementCacheStats, so the
/// metrics endpoint can report cache behavior across all sessions.
struct StmtCacheCounters {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& invalidations;
};

StmtCacheCounters& stmtCacheCounters() {
  auto& reg = obs::Registry::global();
  static StmtCacheCounters* c = new StmtCacheCounters{
      reg.counter("pt_stmt_cache_hits_total"),
      reg.counter("pt_stmt_cache_misses_total"),
      reg.counter("pt_stmt_cache_evictions_total"),
      reg.counter("pt_stmt_cache_invalidations_total"),
  };
  return *c;
}

/// Only plain DML/query statements are worth caching; DDL, transaction
/// control, and VACUUM are rare and invalidate plans anyway.
bool cacheableKind(Statement::Kind kind) {
  switch (kind) {
    case Statement::Kind::Select:
    case Statement::Kind::Insert:
    case Statement::Kind::Update:
    case Statement::Kind::Delete:
      return true;
    default:
      return false;
  }
}

bool ddlKind(Statement::Kind kind) {
  switch (kind) {
    case Statement::Kind::CreateTable:
    case Statement::Kind::CreateIndex:
    case Statement::Kind::Drop:
      return true;
    default:
      return false;
  }
}

/// Local cursor backend: minidb's pipeline cursor plus a shared reference
/// to its prepared statement, so statement-cache eviction or DDL-triggered
/// cache clears cannot free the plan mid-scan. While open, storage-layer
/// DDL/VACUUM/DML throw.
class LocalCursorImpl final : public Cursor::Impl {
 public:
  LocalCursorImpl(minidb::sql::Cursor inner,
                  std::shared_ptr<minidb::sql::PreparedStatement> stmt)
      : inner_(std::move(inner)), stmt_(std::move(stmt)) {}

  const std::vector<std::string>& columns() const override {
    return inner_.columns();
  }
  bool next(minidb::Row& row) override { return inner_.next(row); }
  bool fetchBatch(minidb::sql::RowBatch& batch) override {
    return inner_.fetchBatch(batch);
  }
  void close() override { inner_.close(); }
  bool isOpen() const override { return inner_.isOpen(); }

 private:
  minidb::sql::Cursor inner_;
  std::shared_ptr<minidb::sql::PreparedStatement> stmt_;  // keeps the plan alive
};

}  // namespace

// --- Connection (shared surface) ---------------------------------------------

std::unique_ptr<Connection> Connection::open(const std::string& path) {
  return open(path, minidb::OpenOptions{});
}

std::unique_ptr<Connection> Connection::open(const std::string& path,
                                             const minidb::OpenOptions& options) {
  if (path.rfind(kRemoteScheme, 0) == 0) {
    return RemoteConnection::connect(path.substr(std::string_view(kRemoteScheme).size()));
  }
  return LocalConnection::open(path, options);
}

const StatementCacheStats& Connection::statementCacheStats() const {
  static const StatementCacheStats kEmpty;
  return kEmpty;
}

core::diag::Report Connection::diff(const core::diag::Request&) {
  throw util::SqlError("this connection does not support DIFF");
}

minidb::Database& Connection::database() {
  throw util::SqlError(
      "this connection has no local database (remote ptserverd session)");
}

minidb::Value Connection::queryValue(std::string_view sql) {
  const ResultSet rs = exec(sql);
  if (rs.rows.empty() || rs.rows[0].empty()) return minidb::Value::null();
  return rs.rows[0][0];
}

minidb::Value Connection::queryValue(std::string_view sql,
                                     std::vector<minidb::Value> params) {
  const ResultSet rs = execPrepared(sql, std::move(params));
  if (rs.rows.empty() || rs.rows[0].empty()) return minidb::Value::null();
  return rs.rows[0][0];
}

std::int64_t Connection::queryInt(std::string_view sql, std::int64_t default_value) {
  const minidb::Value v = queryValue(sql);
  return v.isInt() ? v.asInt() : default_value;
}

std::int64_t Connection::queryInt(std::string_view sql,
                                  std::vector<minidb::Value> params,
                                  std::int64_t default_value) {
  const minidb::Value v = queryValue(sql, std::move(params));
  return v.isInt() ? v.asInt() : default_value;
}

// --- LocalConnection ---------------------------------------------------------

std::unique_ptr<LocalConnection> LocalConnection::open(
    const std::string& path, const minidb::OpenOptions& options) {
  auto db = path == ":memory:" ? minidb::Database::openMemory()
                               : minidb::Database::open(path, options);
  return std::unique_ptr<LocalConnection>(new LocalConnection(std::move(db)));
}

std::shared_ptr<minidb::sql::PreparedStatement> LocalConnection::prepared(
    std::string_view sql) {
  const auto it = cache_map_.find(sql);
  if (it != cache_map_.end()) {
    if (!it->second->stmt->hasOpenCursor()) {
      ++stats_.hits;
      stmtCacheCounters().hits.inc();
      cache_.splice(cache_.begin(), cache_, it->second);
      return it->second->stmt;
    }
    // An open cursor is stepping the cached statement; its parameter values
    // live in the shared AST, so hand out a fresh uncached statement rather
    // than corrupting the scan in progress.
    ++stats_.misses;
    stmtCacheCounters().misses.inc();
    return std::make_shared<minidb::sql::PreparedStatement>(engine_.prepare(sql));
  }
  ++stats_.misses;
  stmtCacheCounters().misses.inc();
  auto stmt = std::make_shared<minidb::sql::PreparedStatement>(engine_.prepare(sql));
  if (cache_capacity_ == 0 || !cacheableKind(stmt->kind())) return stmt;
  cache_.push_front(CacheEntry{std::string(sql), stmt});
  cache_map_.emplace(std::string_view(cache_.front().sql), cache_.begin());
  while (cache_.size() > cache_capacity_) {
    cache_map_.erase(std::string_view(cache_.back().sql));
    cache_.pop_back();
    ++stats_.evictions;
    stmtCacheCounters().evictions.inc();
  }
  return stmt;
}

void LocalConnection::dropEntries(std::uint64_t* counter) {
  if (counter != nullptr) *counter += cache_.size();
  stmtCacheCounters().invalidations.inc(cache_.size());
  cache_map_.clear();
  cache_.clear();
}

ResultSet LocalConnection::exec(std::string_view sql) {
  const auto stmt = prepared(sql);
  if (stmt->paramCount() > 0) {
    throw util::SqlError("statement has " + std::to_string(stmt->paramCount()) +
                         " '?' parameter(s); use execPrepared()");
  }
  const bool ddl = ddlKind(stmt->kind());
  ResultSet rs = stmt->execute();
  // Drop cached statements after DDL: their plans reference dropped catalog
  // objects. (Plans would also self-invalidate via the schema epoch; the
  // explicit clear keeps the cache from pinning dead TableDefs. Statements
  // pinned by an open cursor survive via their shared_ptr.)
  if (ddl) dropEntries(&stats_.invalidations);
  return rs;
}

ResultSet LocalConnection::execPrepared(std::string_view sql,
                                        std::vector<minidb::Value> params) {
  const auto stmt = prepared(sql);
  const bool ddl = ddlKind(stmt->kind());
  ResultSet rs = stmt->execute(std::move(params));
  if (ddl) dropEntries(&stats_.invalidations);
  return rs;
}

Cursor LocalConnection::query(std::string_view sql) {
  auto stmt = prepared(sql);
  if (stmt->paramCount() > 0) {
    throw util::SqlError("statement has " + std::to_string(stmt->paramCount()) +
                         " '?' parameter(s); use query(sql, params)");
  }
  minidb::sql::Cursor inner = stmt->openCursor();
  return Cursor(std::make_unique<LocalCursorImpl>(std::move(inner), std::move(stmt)));
}

Cursor LocalConnection::query(std::string_view sql,
                              std::vector<minidb::Value> params) {
  auto stmt = prepared(sql);
  stmt->bindAll(std::move(params));
  minidb::sql::Cursor inner = stmt->openCursor();
  return Cursor(std::make_unique<LocalCursorImpl>(std::move(inner), std::move(stmt)));
}

void LocalConnection::setOption(std::string_view name, std::int64_t value) {
  if (engine_.setOption(name, value)) dropEntries(&stats_.invalidations);
}

void LocalConnection::setStatementCacheCapacity(std::size_t capacity) {
  cache_capacity_ = capacity;
  while (cache_.size() > cache_capacity_) {
    cache_map_.erase(std::string_view(cache_.back().sql));
    cache_.pop_back();
    ++stats_.evictions;
    stmtCacheCounters().evictions.inc();
  }
}

}  // namespace perftrack::dbal
