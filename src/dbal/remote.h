// Remote dbal backend: a dbal::Connection over a ptserverd session.
//
// RemoteConnection speaks the src/server wire protocol (one frame out, one
// frame back) and maps it onto the Connection surface, so core/ptdf/tools
// code — and the ptquery/ptexport CLIs — run unchanged against a shared
// query server. Differences from the local backends, all documented on the
// base class:
//
//   * autocommit only: begin()/commit()/rollback() throw (the server wraps
//     each mutating statement in its own journal-protected commit);
//   * statements are cached server-side, keyed client-side by SQL text;
//     the cache introspection surface reports the remote handle count;
//   * one statement is one round trip: EXECUTE carries the parameters and
//     the reply carries the first batch of rows, so a result that fits one
//     batch needs no FETCH and leaves no server-side cursor behind;
//   * larger SELECT results stream bounded row batches (FETCH) from a
//     server-side cursor holding a shared lock on the store, so results of
//     any size arrive in constant client memory.
//
// Like the local backend, a statement whose server-side cursor is still
// streaming is never re-entered: exec()/execPrepared()/query() on a busy
// statement prepare a fresh temporary server-side statement instead, which
// is closed once its use (or its cursor) finishes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "dbal/connection.h"
#include "minidb/sql/ast.h"
#include "obs/trace.h"

namespace perftrack::server {
struct Frame;
}  // namespace perftrack::server

namespace perftrack::dbal {

/// Connection-string prefix selecting this backend ("pt://host:port" or
/// "pt://unix:/path").
inline constexpr char kRemoteScheme[] = "pt://";

/// Raised when the server rejects a request with BUSY (lock timeout or
/// connection cap). Retryable by design: the store itself is untouched.
class ServerBusyError : public util::PTError {
 public:
  explicit ServerBusyError(std::string message) : util::PTError(std::move(message)) {}
};

/// Decoded STAT_OK payload. `extended` is false when the server predates
/// the PR-5 append-only fields (they read as zero in that case).
struct ServerStat {
  std::uint64_t size_bytes = 0;
  std::uint32_t sessions = 0;
  std::uint64_t frames_served = 0;
  bool extended = false;
  std::uint64_t uptime_ms = 0;
  std::uint32_t open_cursors = 0;
  std::uint64_t db_file_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t wal_bytes = 0;  // 0 from pre-WAL servers
};

class RemoteConnection final : public Connection {
 public:
  /// Connects to "host:port" or "unix:/path" (the "pt://" prefix already
  /// stripped) and performs the protocol handshake.
  static std::unique_ptr<RemoteConnection> connect(const std::string& target);

  ~RemoteConnection() override;

  ResultSet exec(std::string_view sql) override;
  ResultSet execPrepared(std::string_view sql,
                         std::vector<minidb::Value> params) override;
  Cursor query(std::string_view sql) override;
  Cursor query(std::string_view sql, std::vector<minidb::Value> params) override;

  void begin() override;
  void commit() override;
  void rollback() override;
  bool inTransaction() const override { return false; }

  /// DIFF round trip: the server runs the core::diag engine against its
  /// store and returns the ranked rows inline (FETCH only for the rest of
  /// an unusually long report); the decoded
  /// Report (stats + full-fidelity REAL rows) renders byte-identically to a
  /// local diff over the same store.
  core::diag::Report diff(const core::diag::Request& request) override;

  std::uint64_t sizeBytes() const override;
  const minidb::RecoveryStats& recoveryStats() const override;

  /// Validates against the option table, then one SET_OPTION round trip.
  void setOption(std::string_view name, std::int64_t value) override;

  /// Remote handles held by this client (server-side statements stay alive
  /// until closed, so this doubles as a leak check in tests).
  std::size_t statementCacheSize() const override { return stmts_.size(); }
  void clearStatementCache() override;

  // --- remote-only surface ---------------------------------------------------
  /// Round-trips a PING (liveness probe; throws NetError when the server
  /// is gone).
  void ping();
  /// Asks the server to drain and exit (SHUTDOWN frame).
  void shutdownServer();
  /// Full decoded STAT_OK (sizeBytes() reads only the leading field).
  ServerStat serverStat();
  /// The server's Prometheus text exposition (METRICS frame) — the same
  /// text `curl` gets from --metrics-port, fetched over the wire protocol.
  std::string serverMetrics();

 private:
  struct Wire;        // shared socket state (kept alive by open cursors)
  struct StmtHandle;  // one server-side prepared statement
  friend class RemoteCursorImpl;

  explicit RemoteConnection(std::shared_ptr<Wire> wire);

  /// Returns the handle for `sql`, preparing it server-side on miss. When
  /// the cached handle has a streaming cursor (busy), prepares a fresh
  /// temporary handle instead.
  std::shared_ptr<StmtHandle> stmtFor(std::string_view sql);
  std::shared_ptr<StmtHandle> prepareRemote(std::string_view sql, bool cache);
  /// stmtFor, refusing parameterized SQL when the caller passed none (the
  /// message names `params_api`, the overload to use instead).
  std::shared_ptr<StmtHandle> usableStmt(std::string_view sql, bool has_params,
                                         const char* params_api);
  /// exec()/execPrepared(): one EXECUTE, draining any further batches.
  ResultSet execute(std::string_view sql, const std::vector<minidb::Value>& params,
                    bool has_params);
  /// query() overloads: one EXECUTE, the first batch fills the cursor.
  Cursor openQuery(std::string_view sql, const std::vector<minidb::Value>& params,
                   bool has_params);
  ResultSet runToResult(const std::shared_ptr<StmtHandle>& stmt,
                        const server::Frame& request);
  /// With `trace` non-null the cursor completes and records the span (the
  /// prepare/bind stage timings already filled in) when it closes.
  Cursor openRemoteCursor(std::shared_ptr<StmtHandle> stmt,
                          const server::Frame& request, obs::QueryTrace* trace);

  std::shared_ptr<Wire> wire_;
  std::unordered_map<std::string, std::shared_ptr<StmtHandle>> stmts_;
};

}  // namespace perftrack::dbal
