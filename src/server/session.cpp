#include "server/session.h"

#include <string>
#include <vector>

#include "core/diag.h"
#include "minidb/sql/pipeline.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::server {

namespace {

using minidb::sql::Statement;

bool isReadKind(Statement::Kind kind) { return kind == Statement::Kind::Select; }

bool isTxnKind(Statement::Kind kind) { return kind == Statement::Kind::Txn; }

/// Statements that rewrite the catalog or move pages under every version;
/// they take the exclusive hold.
bool isSchemaKind(Statement::Kind kind) {
  return kind == Statement::Kind::CreateTable ||
         kind == Statement::Kind::CreateIndex ||
         kind == Statement::Kind::Drop || kind == Statement::Kind::Vacuum;
}

/// One DIFF threshold off the wire: any number. Its range is checked by
/// diagnose() itself, so local and remote callers get the same error.
double diffThreshold(WireReader& r, const char* what) {
  const minidb::Value v = r.value();
  if (!v.isInt() && !v.isReal()) {
    throw WireError(std::string("DIFF: ") + what + " must be a number");
  }
  return v.asReal();
}

}  // namespace

Session::Session(std::uint64_t id, minidb::Database& db, DbGate& gate,
                 const SessionLimits& limits, ServerCounters& counters)
    : id_(id),
      db_(&db),
      gate_(&gate),
      limits_(limits),
      counters_(&counters),
      engine_(db, limits.exec_options) {
  counters_->sessions.fetch_add(1, std::memory_order_relaxed);
}

Session::~Session() {
  teardown();
  counters_->sessions.fetch_sub(1, std::memory_order_relaxed);
}

void Session::closeCursorEntry(CursorEntry& entry) {
  // Every close path erases the entry right after this call, so the
  // decrement runs exactly once per executeSelect increment.
  counters_->open_cursors.fetch_sub(1, std::memory_order_relaxed);
  if (entry.cursor) entry.cursor->close();
  if (entry.holds_gate) {
    entry.holds_gate = false;
    --gate_holds_;
    gate_->unlockShared();
  }
}

void Session::teardown() {
  for (auto& [id, entry] : cursors_) closeCursorEntry(entry);
  cursors_.clear();
  stmts_.clear();
}

Session::Outcome Session::handle(const Frame& request) {
  counters_->frames_served.fetch_add(1, std::memory_order_relaxed);
  Outcome out;
  try {
    WireReader r(request.payload);
    if (!hello_done_ && request.op != Op::Hello) {
      out.response = makeError(ErrCode::Protocol, "expected HELLO first");
      return out;
    }
    switch (request.op) {
      case Op::Hello: out.response = doHello(r); return out;
      case Op::Prepare: out.response = doPrepare(r); return out;
      case Op::Execute: out.response = doExecute(r); return out;
      case Op::Fetch: out.response = doFetch(r); return out;
      case Op::CloseStmt: out.response = doCloseStmt(r); return out;
      case Op::CloseCursor: out.response = doCloseCursor(r); return out;
      case Op::SetOption: out.response = doSetOption(r); return out;
      case Op::Stat: out.response = doStat(r); return out;
      case Op::Metrics: out.response = doMetrics(r); return out;
      case Op::Diff: out.response = doDiff(r); return out;
      case Op::Ping: out.response = Frame{Op::Pong, {}}; return out;
      case Op::Shutdown:
        if (!limits_.allow_shutdown) {
          out.response = makeError(ErrCode::BadState, "remote shutdown is disabled");
        } else {
          out.response = Frame{Op::Ok, {}};
          out.shutdown_requested = true;
        }
        return out;
      default:
        out.response = makeError(
            ErrCode::UnknownOpcode,
            "unknown opcode " + std::to_string(static_cast<int>(request.op)));
        return out;
    }
  } catch (const WireError& e) {
    out.response = makeError(ErrCode::Protocol, e.what());
  } catch (const util::SqlError& e) {
    out.response = makeError(ErrCode::Sql, e.what());
  } catch (const util::ModelError& e) {
    // DIFF against an unknown execution: a client mistake, same family as a
    // bad SQL identifier, so it maps to the Sql error code.
    out.response = makeError(ErrCode::Sql, e.what());
  } catch (const util::StorageError& e) {
    out.response = makeError(ErrCode::Storage, e.what());
  } catch (const std::exception& e) {
    out.response = makeError(ErrCode::Internal, e.what());
  }
  return out;
}

Frame Session::doHello(WireReader& r) {
  const std::uint32_t version = r.u32();
  r.expectEnd("HELLO");
  if (version != kProtocolVersion) {
    return makeError(ErrCode::Protocol,
                     "protocol version " + std::to_string(version) +
                         " not supported (server speaks " +
                         std::to_string(kProtocolVersion) + ")");
  }
  hello_done_ = true;
  WireWriter w;
  w.u32(kProtocolVersion);
  w.str("ptserverd/" + std::to_string(kProtocolVersion));
  return makeFrame(Op::HelloOk, std::move(w));
}

Frame Session::doPrepare(WireReader& r) {
  std::string sql = r.str();
  r.expectEnd("PREPARE");
  // Parsing touches no shared storage (planning is lazy and gated), so
  // PREPARE runs without a gate hold.
  auto stmt =
      std::make_shared<minidb::sql::PreparedStatement>(engine_.prepare(sql));
  const std::uint32_t id = next_stmt_id_++;
  stmts_.emplace(id, stmt);
  WireWriter w;
  w.u32(id);
  w.u32(static_cast<std::uint32_t>(stmt->paramCount()));
  w.u8(static_cast<std::uint8_t>(stmt->kind()));
  return makeFrame(Op::StmtOk, std::move(w));
}

Frame Session::doExecute(WireReader& r) {
  const std::uint32_t id = r.u32();
  const std::uint32_t max_rows = r.u32();
  minidb::Row params = r.row();  // same encoding: u32 n, then n values
  r.expectEnd("EXECUTE");
  const auto it = stmts_.find(id);
  if (it == stmts_.end()) {
    return makeError(ErrCode::BadState, "no such statement id " + std::to_string(id));
  }
  const auto& stmt = it->second;
  if (isTxnKind(stmt->kind())) {
    return makeError(ErrCode::BadState,
                     "transactions are not supported over ptserverd "
                     "(autocommit only; each write commits atomically)");
  }
  // bindAll checks the count against the placeholders. It only stages
  // values (they reach the AST when a cursor opens), so staging is safe
  // even while a cursor is streaming this statement.
  stmt->bindAll(std::move(params));
  if (isReadKind(stmt->kind())) return executeSelect(stmt, max_rows);
  return executeWrite(stmt);
}

Frame Session::executeSelect(
    const std::shared_ptr<minidb::sql::PreparedStatement>& stmt,
    std::uint32_t max_rows) {
  // Sessions already holding a cursor bypass the writer queue: the queued
  // writer is waiting on *our* cursor, so parking behind it would deadlock
  // this session until both time out.
  DbGate::SharedHold hold(*gate_, limits_.lock_timeout, gate_holds_ > 0);
  if (!hold.held()) {
    counters_->busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return makeError(ErrCode::Busy,
                     "database is busy (writer active or queued); retry");
  }
  // The cursor pins the committed version as of this instant and streams
  // it to the last row — concurrent DML commits never block it and never
  // appear in it.
  minidb::sql::Cursor cursor = stmt->openCursor(db_->takeSnapshot());
  const std::uint32_t cursor_id = next_cursor_id_++;
  CursorEntry entry;
  entry.cursor.emplace(std::move(cursor));
  entry.stmt = stmt;
  entry.holds_gate = true;
  hold.forget();  // the hold now belongs to the cursor, until close/exhaust
  ++gate_holds_;
  counters_->open_cursors.fetch_add(1, std::memory_order_relaxed);
  const auto it = cursors_.emplace(cursor_id, std::move(entry)).first;
  WireWriter w;
  w.u32(cursor_id);
  const auto& columns = it->second.cursor->columns();
  w.u32(static_cast<std::uint32_t>(columns.size()));
  for (const std::string& c : columns) w.str(c);
  // The first batch rides in this reply; a result that fits is closed
  // before the reply leaves, so no FETCH or CLOSE_CURSOR follows.
  appendBatch(it, max_rows, w);
  return makeFrame(Op::CursorOk, std::move(w));
}

Frame Session::executeWrite(
    const std::shared_ptr<minidb::sql::PreparedStatement>& stmt) {
  if (!isSchemaKind(stmt->kind())) return executeDml(stmt);
  DbGate::ExclusiveHold hold(*gate_, limits_.lock_timeout);
  if (!hold.held()) {
    counters_->busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return makeError(ErrCode::Busy,
                     "database is busy (readers hold cursors open); retry");
  }
  minidb::sql::ResultSet rs;
  if (stmt->kind() == Statement::Kind::Vacuum) {
    // VACUUM manages its own page shuffle and may not run inside a
    // transaction; persist its result explicitly.
    rs = stmt->execute();
    db_->flush();
  } else {
    // Autocommit: each schema change is its own atomic commit, so a daemon
    // crash can never expose another client's half-applied write.
    db_->begin();
    try {
      rs = stmt->execute();
      db_->commit();
    } catch (...) {
      if (db_->inTransaction()) db_->rollback();
      throw;
    }
  }
  WireWriter w;
  w.i64(rs.rows_affected);
  w.i64(rs.last_insert_id);
  return makeFrame(Op::ResultOk, std::move(w));
}

Frame Session::executeDml(
    const std::shared_ptr<minidb::sql::PreparedStatement>& stmt) {
  // Writer-writer mutual exclusion only: readers keep streaming their
  // snapshots while this commit lands.
  DbGate::WriteHold hold(*gate_, limits_.lock_timeout);
  if (!hold.held()) {
    counters_->busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return makeError(ErrCode::Busy,
                     "database is busy (another writer is active); retry");
  }
  minidb::sql::ResultSet rs;
  std::uint64_t lsn = 0;
  db_->begin();
  try {
    rs = stmt->execute();
    lsn = db_->commitDeferred();  // appended + published, not yet fsynced
  } catch (...) {
    if (db_->inTransaction()) db_->rollback();
    throw;
  }
  // Group commit: drop the writer hold before the fsync so the next writer
  // appends while we sync; one leader fsync then covers every commit
  // appended so far, ours included.
  hold.release();
  db_->waitDurable(lsn);
  WireWriter w;
  w.i64(rs.rows_affected);
  w.i64(rs.last_insert_id);
  return makeFrame(Op::ResultOk, std::move(w));
}

Frame Session::doFetch(WireReader& r) {
  const std::uint32_t id = r.u32();
  const std::uint32_t max_rows = r.u32();
  r.expectEnd("FETCH");
  const auto it = cursors_.find(id);
  if (it == cursors_.end()) {
    return makeError(ErrCode::BadState, "no such cursor id " + std::to_string(id) +
                                            " (closed, exhausted, or never opened)");
  }
  WireWriter w;
  appendBatch(it, max_rows, w);
  return makeFrame(Op::Rows, std::move(w));
}

void Session::appendBatch(CursorMap::iterator it, std::uint32_t max_rows,
                          WireWriter& out) {
  if (max_rows == 0) max_rows = limits_.default_fetch_rows;
  max_rows = std::min(max_rows, limits_.max_fetch_rows);
  const std::size_t head = out.size();
  out.u8(0);   // done, patched below
  out.u32(0);  // nrows, patched below
  const std::size_t budget_end = out.size() + limits_.fetch_byte_budget;

  std::uint32_t produced = 0;
  bool done = false;
  CursorEntry& entry = it->second;
  try {
    if (!entry.cursor) {
      // Cursor-less (DIFF) result: stream the staged rows under the same
      // max_rows / byte-budget bounds as a pipeline cursor.
      while (produced < max_rows && out.size() < budget_end &&
             entry.staged_pos < entry.staged.size()) {
        out.row(entry.staged[entry.staged_pos++]);
        ++produced;
      }
      done = entry.staged_pos >= entry.staged.size();
    }
    while (entry.cursor && produced < max_rows && out.size() < budget_end) {
      if (entry.pending_pos >= entry.pending.sel.size()) {
        entry.pending.clearRows();
        entry.pending_pos = 0;
        entry.pending.capacity = max_rows - produced;
        if (!entry.cursor->fetchBatch(entry.pending)) {
          done = true;
          break;
        }
      }
      // Encode straight from the batch's columns (same byte layout as
      // WireWriter::row — u32 ncols, then one value per column).
      const std::uint32_t i = entry.pending.sel[entry.pending_pos++];
      out.u32(static_cast<std::uint32_t>(entry.pending.cols.size()));
      for (const auto& c : entry.pending.cols) out.value(c[i]);
      ++produced;
    }
  } catch (...) {
    // A cursor that failed mid-step (e.g. a dangling index entry) is dead;
    // release its hold before the error frame goes out.
    closeCursorEntry(entry);
    cursors_.erase(it);
    throw;
  }
  if (done) {
    closeCursorEntry(entry);
    cursors_.erase(it);
  }
  out.patchU8(head, done ? 1 : 0);
  out.patchU32(head + 1, produced);
}

Frame Session::doCloseStmt(WireReader& r) {
  const std::uint32_t id = r.u32();
  r.expectEnd("CLOSE_STMT");
  // Closing an unknown statement is not an error (the client may race a
  // teardown); open cursors keep the statement alive via their shared_ptr.
  stmts_.erase(id);
  return Frame{Op::Ok, {}};
}

Frame Session::doCloseCursor(WireReader& r) {
  const std::uint32_t id = r.u32();
  r.expectEnd("CLOSE_CURSOR");
  const auto it = cursors_.find(id);
  if (it == cursors_.end()) {
    return makeError(ErrCode::BadState,
                     "no such cursor id " + std::to_string(id) +
                         " (closed, exhausted, or never opened)");
  }
  closeCursorEntry(it->second);
  cursors_.erase(it);
  return Frame{Op::Ok, {}};
}

Frame Session::doSetOption(WireReader& r) {
  const std::uint8_t id = r.u8();
  const std::int64_t value = r.i64();
  r.expectEnd("SET_OPTION");
  const auto& table = minidb::sql::optionTable();
  if (id == 0 || id > table.size()) {
    return makeError(ErrCode::Protocol,
                     "unknown session option " + std::to_string(id));
  }
  // Session-scoped; an out-of-range value throws SqlError (ErrCode::Sql).
  // Cached plans revalidate against the engine's options on their next
  // execution, so no explicit invalidation is needed.
  engine_.setOption(table[id - 1].name, value);
  return Frame{Op::Ok, {}};
}

Frame Session::doStat(WireReader& r) {
  r.expectEnd("STAT");
  // sizeBytes reads the header page. The shared hold excludes schema
  // changes but not DML writers, so the header is read through a pinned
  // snapshot.
  DbGate::SharedHold hold(*gate_, limits_.lock_timeout, gate_holds_ > 0);
  if (!hold.held()) {
    counters_->busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return makeError(ErrCode::Busy, "database is busy; retry");
  }
  const minidb::Pager::ReadSnapshot snap = db_->takeSnapshot();
  const minidb::Pager::SnapshotScope scope(snap);
  WireWriter w;
  w.u64(db_->sizeBytes());
  w.u32(counters_->sessions.load(std::memory_order_relaxed));
  w.u64(counters_->frames_served.load(std::memory_order_relaxed));
  // Append-only extension (see protocol.h): old clients stop reading here.
  w.u64(counters_->uptimeMillis());
  w.u32(counters_->open_cursors.load(std::memory_order_relaxed));
  w.u64(db_->fileSizeBytes());
  w.u64(0);  // journal_bytes: reserved (see protocol.h)
  w.u64(counters_->busy_rejections.load(std::memory_order_relaxed));
  w.u64(db_->walSizeBytes());
  return makeFrame(Op::StatOk, std::move(w));
}

Frame Session::doMetrics(WireReader& r) {
  r.expectEnd("METRICS");
  // The registry snapshot and the file-size stats are lock-free reads; no
  // gate hold is needed (a torn read of a counter mid-commit is fine).
  WireWriter w;
  w.str(renderServerMetrics(*db_, *counters_));
  return makeFrame(Op::MetricsOk, std::move(w));
}

Frame Session::doDiff(WireReader& r) {
  core::diag::Request req;
  req.exec_a = r.str();
  req.exec_b = r.str();
  req.top_k = r.u32();
  req.ratio_threshold = diffThreshold(r, "ratio threshold");
  req.abs_threshold = diffThreshold(r, "absolute threshold");
  r.expectEnd("DIFF");

  // The diagnosis is a burst of SELECTs: it runs under one shared hold and
  // one pinned snapshot (so a committing writer never skews the two sides
  // against each other), released as soon as the ranked rows are
  // materialized — the staged cursor holds no storage at all.
  core::diag::Report report;
  {
    DbGate::SharedHold hold(*gate_, limits_.lock_timeout, gate_holds_ > 0);
    if (!hold.held()) {
      counters_->busy_rejections.fetch_add(1, std::memory_order_relaxed);
      return makeError(ErrCode::Busy,
                       "database is busy (writer active or queued); retry");
    }
    const minidb::Pager::ReadSnapshot snap = db_->takeSnapshot();
    const minidb::Pager::SnapshotScope scope(snap);
    report = core::diag::diagnose(engine_, req);
  }

  const std::uint32_t cursor_id = next_cursor_id_++;
  CursorEntry entry;
  entry.staged = report.toRows();
  counters_->open_cursors.fetch_add(1, std::memory_order_relaxed);
  const auto it = cursors_.emplace(cursor_id, std::move(entry)).first;

  WireWriter w;
  w.u32(cursor_id);
  const auto& columns = core::diag::Report::columns();
  w.u32(static_cast<std::uint32_t>(columns.size()));
  for (const std::string& c : columns) w.str(c);
  w.u64(report.stats.results_a);
  w.u64(report.stats.results_b);
  w.u64(report.stats.aligned);
  w.u64(report.stats.only_a);
  w.u64(report.stats.only_b);
  w.u64(report.stats.divergent);
  w.u64(report.stats.zero_baseline);
  w.u64(report.stats.diff_us);
  appendBatch(it, 0, w);  // the ranked rows, inline when they fit
  return makeFrame(Op::DiffOk, std::move(w));
}

std::string renderServerMetrics(minidb::Database& db, const ServerCounters& counters) {
  std::string out = obs::Registry::global().renderPrometheus();
  auto gauge = [&out](const char* name, std::uint64_t v) {
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  gauge("pt_server_sessions", counters.sessions.load(std::memory_order_relaxed));
  gauge("pt_server_open_cursors",
        counters.open_cursors.load(std::memory_order_relaxed));
  gauge("pt_server_uptime_ms", counters.uptimeMillis());
  gauge("pt_db_file_bytes", db.fileSizeBytes());
  gauge("pt_db_wal_file_bytes", db.walSizeBytes());
  auto counter = [&out](const char* name, std::uint64_t v) {
    out += "# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  counter("pt_server_frames_served_total",
          counters.frames_served.load(std::memory_order_relaxed));
  counter("pt_server_busy_rejections_total",
          counters.busy_rejections.load(std::memory_order_relaxed));
  return out;
}

}  // namespace perftrack::server
