#include "dbal/remote.h"

#include <deque>
#include <utility>

#include "minidb/sql/options.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/net.h"
#include "server/protocol.h"
#include "util/error.h"

namespace perftrack::dbal {

namespace {

using server::ErrCode;
using server::Frame;
using server::NetError;
using server::Op;
using server::WireReader;
using server::WireWriter;

/// Maps an ERROR frame back onto the exception the local backend would
/// have thrown for the same mistake.
[[noreturn]] void throwServerError(const Frame& frame) {
  const auto [code, message] = server::readError(frame);
  switch (code) {
    case ErrCode::Sql:
    case ErrCode::BadState:
      throw util::SqlError(message);
    case ErrCode::Storage:
      throw util::StorageError(message);
    case ErrCode::Busy:
      throw ServerBusyError(message);
    case ErrCode::Shutdown:
      throw NetError("server is shutting down: " + message);
    default:
      throw NetError("server error (" + std::string(server::errCodeName(code)) +
                     "): " + message);
  }
}

/// Row budget for exec(): the result is materialized anyway, so ask for the
/// server's largest batch (the server clamps the request).
constexpr std::uint32_t kLargestBatch = 0xffffffffu;

/// EXECUTE {stmt_id, max_rows, params}: one frame binds and runs the
/// statement, and returns its first batch of rows.
Frame executeRequest(std::uint32_t stmt_id, std::uint32_t max_rows,
                     const std::vector<minidb::Value>& params) {
  WireWriter w;
  w.u32(stmt_id);
  w.u32(max_rows);
  w.row(params);
  return server::makeFrame(Op::Execute, std::move(w));
}

std::vector<std::string> readColumns(WireReader& r) {
  const std::uint32_t ncols = r.u32();
  std::vector<std::string> columns;
  columns.reserve(ncols);
  for (std::uint32_t i = 0; i < ncols; ++i) columns.push_back(r.str());
  return columns;
}

/// Decodes one batch {u8 done, u32 nrows, rows...} — a ROWS payload or the
/// tail of CURSOR_OK / DIFF_OK — handing each row to `each`; returns done.
template <typename Each>
bool readBatch(WireReader& r, Each&& each) {
  const bool done = r.u8() != 0;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) each(r.row());
  return done;
}

core::diag::Row diffRow(const minidb::Row& row) {
  if (row.size() < 8) {
    throw NetError("malformed DIFF row (expected 8 columns, got " +
                   std::to_string(row.size()) + ")");
  }
  core::diag::Row d;
  d.metric = row[1].asText();
  d.context = row[2].asText();
  d.value_a = row[3].asReal();
  d.value_b = row[4].asReal();
  d.has_ratio = !row[6].isNull();
  if (d.has_ratio) d.ratio = row[6].asReal();
  d.contribution_pct = row[7].asReal();
  return d;
}

}  // namespace

// --- Wire --------------------------------------------------------------------

/// The socket plus its in-flight discipline. Shared (shared_ptr) between
/// the connection and any open cursors, so a cursor outliving its
/// connection degrades to a clean NetError instead of a dangling pointer.
struct RemoteConnection::Wire {
  server::Socket sock;
  bool alive = false;

  /// One request, one response. An ERROR response is returned (not thrown)
  /// so call sites choose the mapping; transport failures mark the wire
  /// dead — the request/response framing cannot be trusted afterwards.
  Frame roundtrip(const Frame& request) {
    if (!alive) throw NetError("connection to ptserverd is closed");
    try {
      sock.sendFrame(request);
      std::optional<Frame> response = sock.recvFrame();
      if (!response.has_value()) {
        throw NetError("ptserverd closed the connection");
      }
      return std::move(*response);
    } catch (const NetError&) {
      alive = false;
      sock.close();
      throw;
    }
  }

  /// roundtrip + require a specific response opcode.
  Frame expect(const Frame& request, Op want) {
    Frame response = roundtrip(request);
    if (response.op == Op::Error) throwServerError(response);
    if (response.op != want) {
      throw NetError(std::string("protocol mismatch: expected ") +
                     std::string(server::opName(want)) + ", got " +
                     std::string(server::opName(response.op)));
    }
    return response;
  }

  /// FETCH round trip for the next batch of an open server-side cursor.
  Frame fetch(std::uint32_t cursor_id, std::uint32_t max_rows) {
    WireWriter w;
    w.u32(cursor_id);
    w.u32(max_rows);
    return expect(server::makeFrame(Op::Fetch, std::move(w)), Op::Rows);
  }

  /// Fetches the rest of an open cursor, handing each row to `each`.
  template <typename Each>
  void drain(std::uint32_t cursor_id, std::uint32_t max_rows, Each&& each) {
    for (bool done = false; !done;) {
      const Frame batch = fetch(cursor_id, max_rows);
      WireReader r(batch.payload);
      done = readBatch(r, each);
    }
  }
};

// --- StmtHandle --------------------------------------------------------------

struct RemoteConnection::StmtHandle {
  std::shared_ptr<Wire> wire;
  std::uint32_t id = 0;
  int param_count = 0;
  minidb::sql::Statement::Kind kind = minidb::sql::Statement::Kind::Select;
  bool cursor_open = false;  // a RemoteCursorImpl is streaming this handle
  bool cached = false;       // temporaries are closed when their use ends

  /// Closes a temporary statement once its use ends; cached ones stay.
  void releaseIfTemporary() {
    if (!cached) closeRemote();
  }

  /// Best-effort server-side release; the wire may already be gone.
  void closeRemote() {
    if (wire == nullptr || !wire->alive) return;
    WireWriter w;
    w.u32(id);
    try {
      wire->roundtrip(server::makeFrame(Op::CloseStmt, std::move(w)));
    } catch (const NetError&) {
    }
  }
};

// --- RemoteCursorImpl --------------------------------------------------------

/// Streams a result whose first batch arrived inline with EXECUTE; the
/// rest, if any, comes in bounded FETCH batches. While the server-side
/// cursor is open the handle's busy flag stays set, which is what triggers
/// the temporary-statement fallback for interleaved exec()/query() calls;
/// a result that arrived complete holds no handle and no server cursor.
class RemoteCursorImpl final : public Cursor::Impl {
 public:
  RemoteCursorImpl(std::shared_ptr<RemoteConnection::Wire> wire,
                   std::shared_ptr<RemoteConnection::StmtHandle> stmt,
                   std::uint32_t cursor_id, std::vector<std::string> columns,
                   std::deque<minidb::Row> first_batch, bool done)
      : wire_(std::move(wire)),
        stmt_(std::move(stmt)),
        cursor_id_(cursor_id),
        columns_(std::move(columns)),
        buffer_(std::move(first_batch)),
        server_done_(done) {}

  /// Arms client-side span recording: the trace (prepare/bind spans already
  /// filled by the connection) is completed with the wall time since
  /// `exec_timer` started (EXECUTE sent) and the row count when the cursor
  /// closes.
  void arm(obs::QueryTrace trace, obs::StageTimer exec_timer) {
    traced_ = true;
    trace_ = std::move(trace);
    exec_timer_ = exec_timer;
  }

  ~RemoteCursorImpl() override {
    try {
      close();
    } catch (...) {
    }
  }

  const std::vector<std::string>& columns() const override { return columns_; }

  bool next(minidb::Row& row) override {
    if (buffer_.empty() && !server_done_ && open_) refill();
    if (buffer_.empty()) {
      close();
      return false;
    }
    row = std::move(buffer_.front());
    buffer_.pop_front();
    if (traced_) ++trace_.rows;
    return true;
  }

  /// Native batch pull: one FETCH round trip decodes straight into the
  /// batch's columns — no per-row deque hop. `capacity` caps the requested
  /// wire batch (0 = server default); interleaving with next() is safe,
  /// because rows next() pre-pulled into the buffer are emitted first.
  bool fetchBatch(minidb::sql::RowBatch& batch) override {
    batch.clearRows();
    if (batch.cols.size() != columns_.size()) batch.reset(columns_.size(), 0);
    if (!open_) return false;
    const std::size_t cap = batch.capacity;
    while (!buffer_.empty() && (cap == 0 || batch.nrows < cap)) {
      batch.appendMoveValues(buffer_.front());
      buffer_.pop_front();
    }
    // Empty ROWS responses imply done, so this terminates in one round trip.
    while (batch.nrows == 0 && !server_done_) {
      const Frame response = wire_->fetch(
          cursor_id_, cap > 0xffffffffu ? 0 : static_cast<std::uint32_t>(cap));
      WireReader r(response.payload);
      server_done_ = r.u8() != 0;
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t ncols = r.u32();
        for (std::uint32_t c = 0; c < ncols; ++c) {
          minidb::Value v = r.value();
          if (c < batch.cols.size()) batch.cols[c].push_back(std::move(v));
        }
        for (std::size_t c = ncols; c < batch.cols.size(); ++c) {
          batch.cols[c].push_back(minidb::Value());
        }
        batch.sel.push_back(static_cast<std::uint32_t>(batch.nrows++));
      }
      if (server_done_) releaseStmt();
    }
    if (batch.nrows == 0) {
      close();
      return false;
    }
    if (traced_) trace_.rows += batch.active();
    return true;
  }

  void close() override {
    if (!open_) return;
    open_ = false;
    if (traced_) {
      trace_.exec_us = exec_timer_.elapsedUs();
      obs::Tracer::global().record(std::move(trace_));
      traced_ = false;
    }
    buffer_.clear();
    releaseStmt();
    if (!server_done_ && wire_->alive) {
      WireWriter w;
      w.u32(cursor_id_);
      try {
        wire_->roundtrip(server::makeFrame(Op::CloseCursor, std::move(w)));
      } catch (const NetError&) {
      }
    }
  }

  bool isOpen() const override { return open_; }

 private:
  void refill() {
    const Frame response = wire_->fetch(cursor_id_, 0);  // 0 = server default
    WireReader r(response.payload);
    server_done_ =
        readBatch(r, [this](minidb::Row row) { buffer_.push_back(std::move(row)); });
    // The server closed its cursor at exhaustion, so the statement is
    // reusable even while we drain the tail of the buffer.
    if (server_done_) releaseStmt();
  }

  void releaseStmt() {
    if (stmt_ == nullptr) return;
    stmt_->cursor_open = false;
    stmt_->releaseIfTemporary();
    stmt_.reset();
  }

  std::shared_ptr<RemoteConnection::Wire> wire_;
  std::shared_ptr<RemoteConnection::StmtHandle> stmt_;
  std::uint32_t cursor_id_;
  std::vector<std::string> columns_;
  std::deque<minidb::Row> buffer_;
  bool server_done_ = false;  // server-side cursor exhausted and gone
  bool open_ = true;
  bool traced_ = false;
  obs::QueryTrace trace_;
  obs::StageTimer exec_timer_;
};

// --- RemoteConnection --------------------------------------------------------

std::unique_ptr<RemoteConnection> RemoteConnection::connect(
    const std::string& target) {
  auto wire = std::make_shared<Wire>();
  wire->sock = server::connectTo(target);
  wire->alive = true;

  WireWriter hello;
  hello.u32(server::kProtocolVersion);
  Frame response =
      wire->expect(server::makeFrame(Op::Hello, std::move(hello)), Op::HelloOk);
  WireReader r(response.payload);
  const std::uint32_t version = r.u32();
  if (version != server::kProtocolVersion) {
    throw NetError("server speaks protocol version " + std::to_string(version) +
                   "; this client needs " +
                   std::to_string(server::kProtocolVersion));
  }
  return std::unique_ptr<RemoteConnection>(new RemoteConnection(std::move(wire)));
}

RemoteConnection::RemoteConnection(std::shared_ptr<Wire> wire)
    : wire_(std::move(wire)) {}

RemoteConnection::~RemoteConnection() {
  // No per-statement goodbyes: closing the socket tears down the whole
  // server-side session (statements, cursors, gate holds) in one step.
  wire_->alive = false;
  wire_->sock.close();
}

std::shared_ptr<RemoteConnection::StmtHandle> RemoteConnection::prepareRemote(
    std::string_view sql, bool cache) {
  WireWriter w;
  w.str(sql);
  Frame response = wire_->expect(server::makeFrame(Op::Prepare, std::move(w)),
                                 Op::StmtOk);
  WireReader r(response.payload);
  auto handle = std::make_shared<StmtHandle>();
  handle->wire = wire_;
  handle->id = r.u32();
  handle->param_count = static_cast<int>(r.u32());
  handle->kind = static_cast<minidb::sql::Statement::Kind>(r.u8());
  handle->cached = cache;
  if (cache) stmts_.emplace(std::string(sql), handle);
  return handle;
}

std::shared_ptr<RemoteConnection::StmtHandle> RemoteConnection::stmtFor(
    std::string_view sql) {
  const auto it = stmts_.find(std::string(sql));
  if (it != stmts_.end()) {
    if (!it->second->cursor_open) return it->second;
    // Same rule as the local backend: a statement mid-stream is never
    // re-entered; compile a throwaway server-side twin instead.
    return prepareRemote(sql, /*cache=*/false);
  }
  return prepareRemote(sql, /*cache=*/true);
}

ResultSet RemoteConnection::runToResult(const std::shared_ptr<StmtHandle>& stmt,
                                        const Frame& request) {
  const Frame response = wire_->roundtrip(request);
  if (response.op == Op::Error) {
    stmt->releaseIfTemporary();
    throwServerError(response);
  }
  ResultSet rs;
  WireReader r(response.payload);
  if (response.op == Op::ResultOk) {
    rs.rows_affected = r.i64();
    rs.last_insert_id = r.i64();
  } else if (response.op == Op::CursorOk) {
    // exec() of a SELECT materializes, like the local backend: the inline
    // first batch, then any further batches the server still holds.
    const std::uint32_t cursor_id = r.u32();
    rs.columns = readColumns(r);
    auto keep = [&rs](minidb::Row row) { rs.rows.push_back(std::move(row)); };
    if (!readBatch(r, keep)) wire_->drain(cursor_id, kLargestBatch, keep);
  } else {
    throw NetError(std::string("protocol mismatch: expected RESULT_OK or "
                               "CURSOR_OK, got ") +
                   std::string(server::opName(response.op)));
  }
  stmt->releaseIfTemporary();
  return rs;
}

Cursor RemoteConnection::openRemoteCursor(std::shared_ptr<StmtHandle> stmt,
                                          const Frame& request,
                                          obs::QueryTrace* trace) {
  const obs::StageTimer exec_timer;
  Frame response;
  try {
    response = wire_->expect(request, Op::CursorOk);
  } catch (...) {
    stmt->releaseIfTemporary();
    throw;
  }
  WireReader r(response.payload);
  const std::uint32_t cursor_id = r.u32();
  std::vector<std::string> columns = readColumns(r);
  std::deque<minidb::Row> first_batch;
  const bool done =
      readBatch(r, [&first_batch](minidb::Row row) { first_batch.push_back(std::move(row)); });
  if (done) {
    // The server already closed its cursor: the statement is free again.
    stmt->releaseIfTemporary();
    stmt.reset();
  } else {
    stmt->cursor_open = true;
  }
  auto impl = std::make_unique<RemoteCursorImpl>(wire_, std::move(stmt), cursor_id,
                                                 std::move(columns),
                                                 std::move(first_batch), done);
  if (trace != nullptr) impl->arm(std::move(*trace), exec_timer);
  return Cursor(std::move(impl));
}

std::shared_ptr<RemoteConnection::StmtHandle> RemoteConnection::usableStmt(
    std::string_view sql, bool has_params, const char* params_api) {
  auto stmt = stmtFor(sql);
  if (!has_params && stmt->param_count > 0) {
    stmt->releaseIfTemporary();
    throw util::SqlError("statement has " + std::to_string(stmt->param_count) +
                         " '?' parameter(s); use " + params_api);
  }
  return stmt;
}

ResultSet RemoteConnection::execute(std::string_view sql,
                                    const std::vector<minidb::Value>& params,
                                    bool has_params) {
  const bool traced = obs::Tracer::global().shouldSample();
  const obs::StageTimer prep_timer;
  auto stmt = usableStmt(sql, has_params, "execPrepared()");
  const std::uint64_t parse_us = traced ? prep_timer.elapsedUs() : 0;
  const obs::StageTimer bind_timer;
  const Frame request = executeRequest(stmt->id, kLargestBatch, params);
  if (!traced) return runToResult(stmt, request);
  obs::QueryTrace t;
  t.sql = std::string(sql);
  t.remote = true;
  t.parse_us = parse_us;
  // Binding travels inside the EXECUTE round trip; the client-side span is
  // the encoding only.
  t.bind_us = bind_timer.elapsedUs();
  const obs::StageTimer exec_timer;
  ResultSet rs = runToResult(stmt, request);
  t.exec_us = exec_timer.elapsedUs();
  t.rows = rs.rows.empty() && rs.rows_affected > 0
               ? static_cast<std::uint64_t>(rs.rows_affected)
               : rs.rows.size();
  obs::Tracer::global().record(std::move(t));
  return rs;
}

Cursor RemoteConnection::openQuery(std::string_view sql,
                                   const std::vector<minidb::Value>& params,
                                   bool has_params) {
  const bool traced = obs::Tracer::global().shouldSample();
  const obs::StageTimer prep_timer;
  auto stmt = usableStmt(sql, has_params, "query(sql, params)");
  if (stmt->kind != minidb::sql::Statement::Kind::Select) {
    // Same refusal as the local backend, before anything runs server-side.
    stmt->releaseIfTemporary();
    throw util::SqlError("openCursor: statement is not a SELECT");
  }
  const std::uint64_t parse_us = traced ? prep_timer.elapsedUs() : 0;
  const obs::StageTimer bind_timer;
  const Frame request = executeRequest(stmt->id, 0, params);  // 0 = default batch
  if (!traced) return openRemoteCursor(std::move(stmt), request, nullptr);
  obs::QueryTrace t;
  t.sql = std::string(sql);
  t.remote = true;
  t.parse_us = parse_us;
  t.bind_us = bind_timer.elapsedUs();  // encoding only, as in execute()
  return openRemoteCursor(std::move(stmt), request, &t);
}

ResultSet RemoteConnection::exec(std::string_view sql) {
  return execute(sql, {}, /*has_params=*/false);
}

ResultSet RemoteConnection::execPrepared(std::string_view sql,
                                         std::vector<minidb::Value> params) {
  return execute(sql, params, /*has_params=*/true);
}

Cursor RemoteConnection::query(std::string_view sql) {
  return openQuery(sql, {}, /*has_params=*/false);
}

Cursor RemoteConnection::query(std::string_view sql,
                               std::vector<minidb::Value> params) {
  return openQuery(sql, params, /*has_params=*/true);
}

void RemoteConnection::begin() {
  throw util::SqlError(
      "transactions are not supported over ptserverd (autocommit only)");
}

void RemoteConnection::commit() { begin(); }
void RemoteConnection::rollback() { begin(); }

core::diag::Report RemoteConnection::diff(const core::diag::Request& request) {
  WireWriter w;
  w.str(request.exec_a);
  w.str(request.exec_b);
  w.u32(request.top_k);
  w.value(minidb::Value(request.ratio_threshold));
  w.value(minidb::Value(request.abs_threshold));
  Frame response =
      wire_->expect(server::makeFrame(Op::Diff, std::move(w)), Op::DiffOk);
  WireReader r(response.payload);

  core::diag::Report report;
  report.request = request;
  const std::uint32_t cursor_id = r.u32();
  readColumns(r);  // fixed Report::columns()
  report.stats.results_a = r.u64();
  report.stats.results_b = r.u64();
  report.stats.aligned = r.u64();
  report.stats.only_a = r.u64();
  report.stats.only_b = r.u64();
  report.stats.divergent = r.u64();
  report.stats.zero_baseline = r.u64();
  report.stats.diff_us = r.u64();

  // The ranked rows are bounded (top-K or the divergent count) and usually
  // arrive whole inside DIFF_OK; draining any rest into the report mirrors
  // the local engine's materialized result.
  auto keep = [&report](minidb::Row row) { report.rows.push_back(diffRow(row)); };
  if (!readBatch(r, keep)) wire_->drain(cursor_id, 0, keep);
  return report;
}

std::uint64_t RemoteConnection::sizeBytes() const {
  Frame response = wire_->expect(Frame{Op::Stat, {}}, Op::StatOk);
  WireReader r(response.payload);
  return r.u64();
}

const minidb::RecoveryStats& RemoteConnection::recoveryStats() const {
  // The server recovered its own store when it opened it; a client joining
  // later has nothing to report.
  static const minidb::RecoveryStats kNone{};
  return kNone;
}

void RemoteConnection::setOption(std::string_view name, std::int64_t value) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(minidb::sql::checkOption(name, value) + 1));
  w.i64(value);
  wire_->expect(server::makeFrame(Op::SetOption, std::move(w)), Op::Ok);
}

void RemoteConnection::clearStatementCache() {
  for (auto& [sql, stmt] : stmts_) {
    // Handles pinned by a streaming cursor are released by the cursor.
    if (!stmt->cursor_open) stmt->closeRemote();
    stmt->cached = false;
  }
  stmts_.clear();
}

void RemoteConnection::ping() {
  wire_->expect(Frame{Op::Ping, {}}, Op::Pong);
}

void RemoteConnection::shutdownServer() {
  wire_->expect(Frame{Op::Shutdown, {}}, Op::Ok);
}

ServerStat RemoteConnection::serverStat() {
  Frame response = wire_->expect(Frame{Op::Stat, {}}, Op::StatOk);
  WireReader r(response.payload);
  ServerStat s;
  s.size_bytes = r.u64();
  s.sessions = r.u32();
  s.frames_served = r.u64();
  if (!r.atEnd()) {
    s.extended = true;
    s.uptime_ms = r.u64();
    s.open_cursors = r.u32();
    s.db_file_bytes = r.u64();
    s.journal_bytes = r.u64();
    s.busy_rejections = r.u64();
    // Second append-only extension (WAL-capable servers).
    if (!r.atEnd()) s.wal_bytes = r.u64();
  }
  return s;
}

std::string RemoteConnection::serverMetrics() {
  Frame response = wire_->expect(Frame{Op::Metrics, {}}, Op::MetricsOk);
  WireReader r(response.payload);
  return r.str();
}

}  // namespace perftrack::dbal
