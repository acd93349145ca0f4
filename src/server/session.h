// ptserverd per-connection session state.
//
// Each client connection owns one Session: its prepared statements, its
// open server-side cursors, and its session-scoped engine options. The
// Session is the protocol's only entry into the shared minidb Database, and
// every entry point is classified and gated:
//
//   SELECT / EXPLAIN   shared gate hold, kept for the cursor's lifetime so
//                      concurrent SELECTs from many sessions run in
//                      parallel while no writer can move pages under them;
//                      under WAL durability the cursor additionally pins a
//                      storage snapshot, and the shared hold conflicts only
//                      with schema changes — DML proceeds underneath. A
//                      result that fits its first batch ends the cursor
//                      (hold and snapshot) inside its own EXECUTE;
//   INSERT/UPDATE/DELETE
//                      journal mode: exclusive gate hold for the statement,
//                      wrapped in the journal-protected commit. WAL mode:
//                      writer-only hold, commit appended to the WAL, hold
//                      released, then the group-commit fsync (batched with
//                      concurrent committers) before the OK frame;
//   DDL / VACUUM       exclusive gate hold in both modes (they rewrite the
//                      catalog and move pages under every version);
//   BEGIN/COMMIT/ROLLBACK
//                      rejected (autocommit only — interleaving frames from
//                      many clients inside one storage transaction would
//                      attribute writes to the wrong session).
//
// A Session is serviced by at most one pool worker at a time (the server
// never marks a connection readable while a request is in flight), so the
// members need no locking of their own; only the DbGate and the shared
// counters are cross-thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "server/dbgate.h"
#include "server/protocol.h"

namespace perftrack::server {

/// Session behavior knobs, shared by every session of one server.
struct SessionLimits {
  /// Gate-acquisition budget; expiry produces a BUSY error frame.
  std::chrono::milliseconds lock_timeout{5000};
  /// Server-side clamp on one batch (inline in CURSOR_OK/DIFF_OK, or ROWS).
  std::uint32_t max_fetch_rows = 4096;
  /// Batch size used when EXECUTE or FETCH asks for 0 rows.
  std::uint32_t default_fetch_rows = 256;
  /// Soft bound on one batch's payload; a batch ends early once crossed,
  /// so wide rows cannot balloon a frame toward kMaxFrameBytes.
  std::size_t fetch_byte_budget = 1u << 20;
  /// Whether the SHUTDOWN opcode is honored.
  bool allow_shutdown = true;
  /// Execution options new sessions start from (ptserverd derives one
  /// flag per minidb/sql/options.h row). Sessions may override them via
  /// SET_OPTION; every session draws workers from the one process-wide
  /// ExecPool either way.
  minidb::sql::ExecOptions exec_options = minidb::sql::processOptions();
};

/// Monotonic counters shared across sessions (STAT frames, tests, bench).
struct ServerCounters {
  std::atomic<std::uint32_t> sessions{0};
  std::atomic<std::uint64_t> frames_served{0};
  std::atomic<std::uint64_t> busy_rejections{0};
  /// Server-side cursors currently streaming (one per logical SELECT; the
  /// storage layer's pin count is higher, one pin per scan below it).
  std::atomic<std::uint32_t> open_cursors{0};
  /// Set once by PtServer::start() before any worker thread exists (the
  /// thread-creation fence publishes it), read-only afterwards.
  std::chrono::steady_clock::time_point start_time{};

  std::uint64_t uptimeMillis() const {
    if (start_time.time_since_epoch().count() == 0) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_time)
            .count());
  }
};

/// Prometheus text exposition: process-wide obs registry plus the server
/// gauges (sessions, frames, cursors, db sizes). Shared by the METRICS
/// wire verb and the HTTP metrics endpoint. Callers must NOT hold the
/// DbGate; the db size reads are plain file stats.
std::string renderServerMetrics(minidb::Database& db, const ServerCounters& counters);

class Session {
 public:
  Session(std::uint64_t id, minidb::Database& db, DbGate& gate,
          const SessionLimits& limits, ServerCounters& counters);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// What the worker should do after sending `response`.
  struct Outcome {
    Frame response;
    bool shutdown_requested = false;  // SHUTDOWN accepted: drain the server
    bool close_connection = false;    // unrecoverable framing damage
  };

  /// Serves one request frame. Never throws: every failure becomes an
  /// ERROR response frame so a bad request can't kill the daemon.
  Outcome handle(const Frame& request);

  /// Closes every open cursor (releasing its gate hold) and drops all
  /// statements. Idempotent; called on disconnect, reap, and drain.
  void teardown();

  std::uint64_t id() const { return id_; }
  std::size_t openCursorCount() const { return cursors_.size(); }
  std::size_t statementCount() const { return stmts_.size(); }

 private:
  struct CursorEntry {
    // Engaged for SELECT cursors; DIFF cursors stream `staged` instead (the
    // diagnosis materializes its ranked rows up front and holds no storage).
    std::optional<minidb::sql::Cursor> cursor;
    // Keeps the plan and AST alive even if the client closes the statement
    // (or the session re-prepares) while the cursor streams.
    std::shared_ptr<minidb::sql::PreparedStatement> stmt;
    bool holds_gate = false;
    // Pipeline rows pulled but not yet shipped: a batch that hits the byte
    // budget mid-way parks the remainder here for the next FETCH.
    minidb::sql::RowBatch pending;
    std::size_t pending_pos = 0;
    // Pre-materialized rows for cursor-less (DIFF) results.
    std::vector<minidb::Row> staged;
    std::size_t staged_pos = 0;
  };

  Frame doHello(WireReader& r);
  Frame doPrepare(WireReader& r);
  Frame doExecute(WireReader& r);
  Frame doFetch(WireReader& r);
  Frame doCloseStmt(WireReader& r);
  Frame doCloseCursor(WireReader& r);
  Frame doSetOption(WireReader& r);
  Frame doStat(WireReader& r);
  Frame doMetrics(WireReader& r);
  Frame doDiff(WireReader& r);

  using CursorMap = std::unordered_map<std::uint32_t, CursorEntry>;

  Frame executeSelect(const std::shared_ptr<minidb::sql::PreparedStatement>& stmt,
                      std::uint32_t max_rows);
  Frame executeWrite(const std::shared_ptr<minidb::sql::PreparedStatement>& stmt);
  Frame executeDmlWal(const std::shared_ptr<minidb::sql::PreparedStatement>& stmt);
  /// Appends one batch {u8 done, u32 nrows, rows...} from cursor `it` to
  /// `out`: at most `max_rows` rows (0 = default_fetch_rows, clamped to
  /// max_fetch_rows) within the byte budget. EXECUTE, FETCH and DIFF all
  /// fill their batches here. A cursor that finishes (or fails) is closed
  /// and erased before this returns, so its gate hold and snapshot are gone
  /// by the time the reply is sent.
  void appendBatch(CursorMap::iterator it, std::uint32_t max_rows, WireWriter& out);
  void closeCursorEntry(CursorEntry& entry);

  std::uint64_t id_;
  minidb::Database* db_;
  DbGate* gate_;
  SessionLimits limits_;
  ServerCounters* counters_;
  minidb::sql::Engine engine_;  // session-scoped (use_indexes is per session)

  std::unordered_map<std::uint32_t, std::shared_ptr<minidb::sql::PreparedStatement>>
      stmts_;
  CursorMap cursors_;
  std::uint32_t next_stmt_id_ = 1;
  std::uint32_t next_cursor_id_ = 1;
  int gate_holds_ = 0;  // cursor-lifetime shared holds this session owns
  bool hello_done_ = false;
  // WAL durability: SELECT cursors pin storage snapshots (writers don't
  // block them) and DML commits through the group-commit path.
  bool snapshot_reads_ = false;
};

}  // namespace perftrack::server
