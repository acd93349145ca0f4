#include "minidb/sql/executor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "minidb/sql/lexer.h"
#include "minidb/sql/parser.h"
#include "minidb/sql/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace perftrack::minidb::sql {

using util::SqlError;

namespace {

/// SQL-layer counters, resolved once (hot path is a relaxed atomic add).
struct SqlCounters {
  obs::Counter& queries;
  obs::Counter& rows_streamed;
  obs::Counter& plan_revalidations;
  obs::Histogram& query_ms;
};

SqlCounters& sqlCounters() {
  auto& reg = obs::Registry::global();
  static SqlCounters* c = new SqlCounters{
      reg.counter("pt_sql_queries_total"),
      reg.counter("pt_sql_rows_streamed_total"),
      reg.counter("pt_plan_revalidations_total"),
      reg.histogram("pt_sql_query_ms"),
  };
  return *c;
}

/// Approximate wire size of one value (matches the server's framing costs
/// closely enough for the bytes-streamed span).
std::uint64_t approxValueBytes(const Value& v) {
  if (v.isNull()) return 1;
  if (v.isText()) return 5 + v.asText().size();
  return 9;  // tag + 8-byte int/real payload
}

std::uint64_t approxRowBytes(const Row& row) {
  std::uint64_t n = 0;
  for (const Value& v : row) n += approxValueBytes(v);
  return n;
}

/// EXPLAIN output: one single-column row per plan line.
std::vector<Row> planRows(std::vector<std::string> lines) {
  std::vector<Row> rows;
  for (std::string& line : lines) rows.push_back({Value(std::move(line))});
  return rows;
}

}  // namespace

bool Engine::setOption(std::string_view name, std::int64_t value) {
  const OptionSpec& spec = optionTable()[checkOption(name, value)];
  if (spec.get(opts_) == value) return false;
  spec.set(opts_, value);
  return true;
}

// ---------------------------------------------------------------------------
// ResultSet rendering
// ---------------------------------------------------------------------------

std::string ResultSet::toText() const {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::string text = row[c].isNull() ? "NULL" : row[c].toDisplayString();
      if (c < widths.size()) widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream out;
  auto rule = [&] {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out << '+' << std::string(widths[c] + 2, '-');
    }
    out << "+\n";
  };
  rule();
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out << "| " << columns[c] << std::string(widths[c] - columns[c].size() + 1, ' ');
  }
  out << "|\n";
  rule();
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::string& text = c < line.size() ? line[c] : "";
      out << "| " << text << std::string(widths[c] - text.size() + 1, ' ');
    }
    out << "|\n";
  }
  rule();
  return out.str();
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// Shared state of one open cursor. Owns (shares) the parsed statement and
/// plan so the cursor survives its PreparedStatement and cache eviction;
/// holds the Database::CursorPin that blocks DDL/VACUUM/DML while open.
struct CursorImpl {
  Database* db = nullptr;
  std::shared_ptr<Statement> stmt;   // keeps the AST the plan points into alive
  std::shared_ptr<SelectPlan> plan;
  Pipeline pipeline;
  std::vector<std::string> columns;
  // EXPLAIN cursors step over precomputed plan lines; no storage is touched
  // and no pin is held.
  std::vector<Row> explain_rows;
  std::size_t explain_pos = 0;
  bool is_explain = false;
  bool open = false;
  std::uint64_t epoch = 0;
  Database::CursorPin pin;
  // Pinned committed version for snapshot cursors (WAL-mode readers). When
  // valid, every pipeline step runs under a SnapshotScope for it, so the
  // cursor streams one frozen version regardless of concurrent commits.
  Pager::ReadSnapshot snap;
  std::shared_ptr<char> busy_token;  // shared with the owning PreparedStatement
  // Query-span tracing (only when the tracer sampled this open). exec_us is
  // wall time from open to close, covering the whole streamed drain.
  bool traced = false;
  obs::QueryTrace trace;
  obs::StageTimer exec_timer;
  std::size_t batch_rows = 0;  // engine's batch_rows at open time

  // Row stepping: next() hands out the rows of batches pulled through
  // pull(). The first pull asks for 32 rows and each refill doubles up to
  // batch_rows, so a consumer that steps a few rows (LIMIT without ORDER BY,
  // an early close) does not scan a whole batch.
  RowBatch step;
  std::size_t step_pos = 0;
  std::size_t step_cap = 0;

  ~CursorImpl() { closeImpl(); }

  bool nextRow(Row& row) {
    if (!open) return false;
    if (step_pos >= step.sel.size()) {
      step.capacity = step_cap;
      step_cap = std::min(step_cap * 2, batch_rows);
      if (!pull(step)) return false;
      step_pos = 0;
    }
    step.takeRow(step.sel[step_pos++], row);
    countRow(row);
    return true;
  }

  bool fetchBatch(RowBatch& batch) {
    if (!open) return false;
    if (step_pos < step.sel.size()) {
      // Rows a next() caller pulled but has not consumed go first.
      const std::size_t cap = batch.capacity > 0 ? batch.capacity : batch_rows;
      batch.reset(step.cols.size(), 0);
      Row row;
      while (batch.nrows < cap && step_pos < step.sel.size()) {
        step.takeRow(step.sel[step_pos++], row);
        batch.appendMoveValues(row);
      }
    } else if (!pull(batch)) {
      return false;
    }
    countBatch(batch);
    return true;
  }

  /// The one pipeline pull: fills `batch` (capacity 0 = batch_rows) and
  /// closes the cursor at end of stream.
  bool pull(RowBatch& batch) {
    if (batch.capacity == 0) batch.capacity = batch_rows;
    if (is_explain) {
      // EXPLAIN cursors step precomputed text lines.
      batch.reset(1, 0);
      while (batch.nrows < batch.capacity && explain_pos < explain_rows.size()) {
        batch.appendMoveValues(explain_rows[explain_pos++]);
      }
      if (batch.nrows > 0) return true;
      closeImpl();
      return false;
    }
    // The pin makes schema changes impossible while open; this guards the
    // invariant itself rather than any expected path. Snapshot cursors skip
    // it: their data is frozen and a concurrent DML rollback (which bumps
    // the epoch without moving the catalog) must not kill them.
    if (!snap.valid() && db->schemaEpoch() != epoch) {
      closeImpl();
      throw SqlError("cursor: schema changed while cursor was open");
    }
    std::optional<Pager::SnapshotScope> scope;
    if (snap.valid()) scope.emplace(snap);
    if (pipeline.root->nextBatch(batch)) return true;
    closeImpl();
    return false;
  }

  void countRow(const Row& row) {
    if (!traced) return;
    ++trace.rows;
    trace.bytes += approxRowBytes(row);
  }

  void countBatch(const RowBatch& batch) {
    if (!traced) return;
    trace.rows += batch.sel.size();
    for (const std::uint32_t i : batch.sel) {
      for (const auto& c : batch.cols) trace.bytes += approxValueBytes(c[i]);
    }
  }

  void closeImpl() {
    if (open && traced) {
      trace.exec_us = exec_timer.elapsedUs();
      sqlCounters().rows_streamed.inc(trace.rows);
      sqlCounters().query_ms.observe(static_cast<double>(trace.totalUs()) / 1000.0);
      obs::Tracer::global().record(std::move(trace));
      traced = false;
    }
    if (open && pipeline.root) {
      std::optional<Pager::SnapshotScope> scope;
      if (snap.valid()) scope.emplace(snap);
      pipeline.root->close();
    }
    open = false;
    step = RowBatch{};
    step_pos = 0;
    pin.release();
    snap.release();
    if (busy_token) {
      *busy_token = 0;
      busy_token.reset();
    }
  }
};

Cursor::Cursor(std::shared_ptr<CursorImpl> impl) : impl_(std::move(impl)) {}
Cursor::Cursor(Cursor&& o) noexcept = default;
Cursor& Cursor::operator=(Cursor&& o) noexcept = default;
Cursor::~Cursor() = default;

const std::vector<std::string>& Cursor::columns() const { return impl_->columns; }

bool Cursor::next(Row& row) { return impl_->nextRow(row); }

bool Cursor::fetchBatch(RowBatch& batch) { return impl_->fetchBatch(batch); }

void Cursor::close() {
  if (impl_) impl_->closeImpl();
}

bool Cursor::isOpen() const { return impl_ && impl_->open; }

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Engine& engine, std::string sql)
    : engine_(&engine), sql_(std::move(sql)) {
  if (obs::enabled()) {
    const obs::StageTimer t;
    stmt_ = std::make_shared<Statement>(parseStatement(sql_));
    parse_us_ = t.elapsedUs();
  } else {
    stmt_ = std::make_shared<Statement>(parseStatement(sql_));
  }
  params_.resize(static_cast<std::size_t>(stmt_->param_count));
  bound_.assign(static_cast<std::size_t>(stmt_->param_count), 0);
}

void PreparedStatement::bind(int index, Value v) {
  if (index < 1 || index > paramCount()) {
    throw SqlError("bind: parameter index " + std::to_string(index) +
                   " out of range (statement has " + std::to_string(paramCount()) +
                   " parameters)");
  }
  params_[static_cast<std::size_t>(index - 1)] = std::move(v);
  bound_[static_cast<std::size_t>(index - 1)] = 1;
}

void PreparedStatement::bindAll(std::vector<Value> params) {
  if (static_cast<int>(params.size()) != paramCount()) {
    throw SqlError("bindAll: statement has " + std::to_string(paramCount()) +
                   " parameters, got " + std::to_string(params.size()));
  }
  params_ = std::move(params);
  bound_.assign(params_.size(), 1);
}

void PreparedStatement::clearBindings() {
  params_.assign(params_.size(), Value::null());
  bound_.assign(bound_.size(), 0);
}

bool PreparedStatement::hasOpenCursor() const {
  return busy_token_ != nullptr && *busy_token_ != 0;
}

Cursor PreparedStatement::openCursor() {
  return openCursorInternal(Pager::ReadSnapshot());
}

Cursor PreparedStatement::openCursor(Pager::ReadSnapshot snapshot) {
  return openCursorInternal(std::move(snapshot));
}

Cursor PreparedStatement::openCursorInternal(Pager::ReadSnapshot snapshot) {
  for (std::size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      throw SqlError("openCursor: parameter " + std::to_string(i + 1) +
                     " is unbound");
    }
  }
  if (stmt_->kind != Statement::Kind::Select && !stmt_->explain) {
    throw SqlError("openCursor: statement is not a SELECT");
  }
  // One cursor per statement: the bindings live in the shared AST, so a
  // second cursor would silently corrupt the first one's parameters.
  if (hasOpenCursor()) {
    throw SqlError("a cursor is already open on this prepared statement");
  }
  // Snapshot cursors plan, open, and pin under the snapshot's scope: page
  // statistics come from the frozen version, and the pin registers as a
  // snapshot cursor (DML may run underneath it).
  std::optional<Pager::SnapshotScope> snap_scope;
  if (snapshot.valid()) snap_scope.emplace(snapshot);
  const bool traced = obs::Tracer::global().shouldSample();
  std::uint64_t bind_us = 0;
  if (stmt_->param_count > 0) {
    if (traced) {
      const obs::StageTimer t;
      bindParamValues(*stmt_, params_);
      bind_us = t.elapsedUs();
    } else {
      bindParamValues(*stmt_, params_);
    }
  }
  const std::uint64_t plan_us = refreshPlan();
  Database& db = *engine_->db_;
  sqlCounters().queries.inc();
  auto impl = std::make_shared<CursorImpl>();
  impl->db = &db;
  impl->stmt = stmt_;
  impl->plan = plan_;
  impl->epoch = plan_->epoch;
  impl->busy_token = std::make_shared<char>(1);
  busy_token_ = impl->busy_token;
  if (traced) {
    impl->traced = true;
    impl->trace.sql = sql_;
    impl->trace.parse_us = std::exchange(parse_us_, 0);
    impl->trace.plan_us = plan_us;
    impl->trace.bind_us = bind_us;
  }
  const ExecOptions& exec_opts = engine_->opts_;
  impl->batch_rows = exec_opts.batch_rows;
  impl->step_cap = std::min<std::size_t>(32, exec_opts.batch_rows);
  if (stmt_->explain) {
    impl->is_explain = true;
    impl->columns = {"plan"};
    // EXPLAIN ANALYZE runs the statement to exhaustion under a scoped pin;
    // either way the cursor steps text lines and is pin-free, so it is safe
    // to stream over the wire. EXPLAIN UPDATE/DELETE changes nothing.
    impl->explain_rows = planRows(explainPlan(db, *stmt_, *plan_, exec_opts));
  } else {
    // Subqueries run before the pin is taken (they open their own scans).
    materializePlanSubqueries(db, *plan_);
    impl->pipeline = buildPipeline(db, *plan_, exec_opts);
    impl->columns = impl->pipeline.columns;
    impl->pin = db.pinCursor();
    impl->pipeline.root->open();
  }
  impl->snap = std::move(snapshot);
  if (traced) impl->exec_timer = obs::StageTimer();
  impl->open = true;
  return Cursor(std::move(impl));
}

ResultSet PreparedStatement::execute() {
  for (std::size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      throw SqlError("execute: parameter " + std::to_string(i + 1) + " is unbound");
    }
  }
  if (stmt_->kind == Statement::Kind::Select || stmt_->explain) {
    // The materializing wrapper: open a cursor and drain it batch-at-a-time.
    Cursor cur = openCursor();
    ResultSet rs;
    rs.columns = cur.columns();
    drainBatches([&](RowBatch& batch) { return cur.fetchBatch(batch); }, rs.rows);
    return rs;
  }
  sqlCounters().queries.inc();
  if (!obs::Tracer::global().shouldSample()) {
    if (stmt_->param_count > 0) bindParamValues(*stmt_, params_);
    refreshPlan();
    return executeWrite();
  }
  obs::QueryTrace t;
  t.sql = sql_;
  t.parse_us = std::exchange(parse_us_, 0);
  if (stmt_->param_count > 0) {
    const obs::StageTimer bt;
    bindParamValues(*stmt_, params_);
    t.bind_us = bt.elapsedUs();
  }
  t.plan_us = refreshPlan();
  const obs::StageTimer et;
  ResultSet rs = executeWrite();
  t.exec_us = et.elapsedUs();
  t.rows = static_cast<std::uint64_t>(rs.rows_affected);
  sqlCounters().query_ms.observe(static_cast<double>(t.totalUs()) / 1000.0);
  obs::Tracer::global().record(std::move(t));
  return rs;
}

std::uint64_t PreparedStatement::refreshPlan() {
  const Database& db = *engine_->db_;
  const ExecOptions& opts = engine_->opts_;
  if (stmt_->kind == Statement::Kind::Insert) {
    if (insert_ && insert_->epoch == db.schemaEpoch()) return 0;
    if (insert_) sqlCounters().plan_revalidations.inc();
    const obs::StageTimer t;
    insert_ = engine_->resolveInsert(*stmt_->insert);
    return t.elapsedUs();
  }
  if (!stmt_->select) return 0;  // DDL and transaction control plan nothing
  if (plan_ && plan_->epoch == db.schemaEpoch() && plan_->use_indexes == opts.use_indexes &&
      plan_->invidx == opts.invidx) {
    return 0;
  }
  if (plan_) sqlCounters().plan_revalidations.inc();
  const obs::StageTimer t;
  plan_ = std::make_shared<SelectPlan>(engine_->planRowSource(*stmt_));
  return t.elapsedUs();
}

ResultSet PreparedStatement::executeWrite() {
  switch (stmt_->kind) {
    case Statement::Kind::Insert: return engine_->execInsert(*stmt_->insert, *insert_);
    case Statement::Kind::Update:
    case Statement::Kind::Delete: return engine_->execDml(*stmt_, *plan_);
    default: return engine_->exec(*stmt_);
  }
}

ResultSet PreparedStatement::execute(std::vector<Value> params) {
  bindAll(std::move(params));
  return execute();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

PreparedStatement Engine::prepare(std::string_view sql) {
  return PreparedStatement(*this, std::string(sql));
}

ResultSet Engine::exec(std::string_view sqltext) {
  const Statement stmt = parseStatement(sqltext);
  if (stmt.param_count > 0) {
    throw SqlError("statement has " + std::to_string(stmt.param_count) +
                   " unbound '?' parameters; use prepare()/execPrepared()");
  }
  return exec(stmt);
}

Cursor Engine::openCursor(std::string_view sql) {
  PreparedStatement stmt = prepare(sql);
  if (stmt.paramCount() > 0) {
    throw SqlError("openCursor: statement has " +
                   std::to_string(stmt.paramCount()) +
                   " unbound '?' parameters; use prepare()");
  }
  // The cursor shares the statement and plan, so it outlives `stmt`.
  return stmt.openCursor();
}

ResultSet Engine::execScript(std::string_view script) {
  // Split on top-level ';' — the lexer already understands quoting and
  // comments, so tokenize once and re-slice the source by the separators.
  ResultSet last;
  std::size_t start = 0;
  std::size_t i = 0;
  const std::size_t n = script.size();
  bool saw_statement = false;
  auto runSlice = [&](std::size_t begin, std::size_t end) {
    std::string_view piece = script.substr(begin, end - begin);
    // Skip slices that are only whitespace/comments.
    const auto tokens = tokenize(piece);
    if (tokens.size() <= 1) return;
    last = exec(piece);
    saw_statement = true;
  };
  while (i < n) {
    const char c = script[i];
    if (c == '\'') {
      ++i;
      while (i < n && !(script[i] == '\'' && (i + 1 >= n || script[i + 1] != '\''))) {
        i += script[i] == '\'' ? 2 : 1;  // skip escaped ''
      }
      ++i;
    } else if (c == '"') {
      ++i;
      while (i < n && script[i] != '"') ++i;
      ++i;
    } else if (c == '-' && i + 1 < n && script[i + 1] == '-') {
      while (i < n && script[i] != '\n') ++i;
    } else if (c == ';') {
      runSlice(start, i);
      ++i;
      start = i;
    } else {
      ++i;
    }
  }
  runSlice(start, n);
  if (!saw_statement) throw SqlError("execScript: no statements in script");
  return last;
}

ResultSet Engine::exec(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::Select:
    case Statement::Kind::Update:
    case Statement::Kind::Delete: {
      SelectPlan plan = planRowSource(stmt);
      if (stmt.explain) {
        ResultSet rs;
        rs.columns = {"plan"};
        rs.rows = planRows(explainPlan(*db_, stmt, plan, opts_));
        return rs;
      }
      if (stmt.kind == Statement::Kind::Select) return execSelectPlan(*db_, plan, opts_);
      return execDml(stmt, plan);
    }

    case Statement::Kind::Insert:
      return execInsert(*stmt.insert, resolveInsert(*stmt.insert));

    case Statement::Kind::CreateTable: {
      const CreateTableStmt& ct = *stmt.create_table;
      if (ct.if_not_exists && db_->catalog().findTable(ct.table) != nullptr) {
        return {};
      }
      std::vector<ColumnDef> columns;
      columns.reserve(ct.columns.size());
      for (const auto& [name, type] : ct.columns) columns.push_back({name, type});
      db_->createTable(ct.table, std::move(columns), ct.primary_key);
      return {};
    }

    case Statement::Kind::CreateIndex: {
      const CreateIndexStmt& ci = *stmt.create_index;
      if (ci.if_not_exists && db_->catalog().findIndex(ci.index) != nullptr) {
        return {};
      }
      db_->createIndex(ci.index, ci.table, ci.columns, ci.unique);
      return {};
    }

    case Statement::Kind::Drop: {
      const DropStmt& drop = *stmt.drop;
      if (drop.what == DropStmt::What::Table) {
        if (drop.if_exists && db_->catalog().findTable(drop.name) == nullptr) return {};
        db_->dropTable(drop.name);
      } else {
        if (drop.if_exists && db_->catalog().findIndex(drop.name) == nullptr) return {};
        db_->dropIndex(drop.name);
      }
      return {};
    }

    case Statement::Kind::Txn: {
      switch (stmt.txn->kind) {
        case TxnStmt::Kind::Begin: db_->begin(); break;
        case TxnStmt::Kind::Commit: db_->commit(); break;
        case TxnStmt::Kind::Rollback: db_->rollback(); break;
      }
      return {};
    }

    case Statement::Kind::Vacuum:
      db_->vacuum();
      return {};
  }
  throw SqlError("internal: bad statement kind");
}

SelectPlan Engine::planRowSource(const Statement& stmt) const {
  SelectPlan plan = buildSelectPlan(*db_, *stmt.select, opts_.use_indexes, opts_.invidx);
  if (stmt.kind == Statement::Kind::Update) {
    const TableDef& def = *plan.from[0].def;
    for (const SelectPlan::OutputCol& out : plan.outputs) {
      const int c = def.columnIndex(out.name);
      if (c < 0) throw SqlError("no column '" + out.name + "' in " + def.name);
      plan.assigned.push_back(c);
    }
  }
  return plan;
}

InsertTarget Engine::resolveInsert(const InsertStmt& ins) const {
  InsertTarget target;
  target.epoch = db_->schemaEpoch();
  target.def = db_->catalog().findTable(ins.table);
  if (target.def == nullptr) throw SqlError("no such table: " + ins.table);
  const TableDef& def = *target.def;
  if (ins.columns.empty()) {
    for (std::size_t c = 0; c < def.columns.size(); ++c) {
      target.columns.push_back(static_cast<int>(c));
    }
  }
  for (const std::string& name : ins.columns) {
    const int c = def.columnIndex(name);
    if (c < 0) throw SqlError("no column '" + name + "' in " + def.name);
    target.columns.push_back(c);
  }
  // VALUES read no row, so any column ref in them names nothing.
  for (const auto& exprs : ins.rows) {
    for (const ExprPtr& e : exprs) {
      forEachColumn(e.get(), [](const Expr& col) {
        throw SqlError("unknown column: " +
                       (col.table.empty() ? col.column : col.table + "." + col.column));
      });
    }
  }
  return target;
}

ResultSet Engine::execInsert(const InsertStmt& ins, const InsertTarget& target) {
  const TableDef& def = *target.def;
  ResultSet rs;
  for (const auto& exprs : ins.rows) {
    if (exprs.size() != target.columns.size()) {
      throw SqlError("INSERT value count does not match column count");
    }
    Row row(def.columns.size());  // unspecified columns default to NULL
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      row[target.columns[i]] = evaluate(*exprs[i], {});
    }
    rs.last_insert_id = db_->insertRow(def, std::move(row));
    rs.rows_affected++;
  }
  return rs;
}

ResultSet Engine::execDml(const Statement& stmt, SelectPlan& plan) {
  const TableDef& def = *plan.from[0].def;
  // Collect first, then mutate: the access path is closed before the first
  // write, so it never sees this statement's own changes.
  ResultSet rs;
  Tuple tuple(1);  // UPDATE's SET reads the collected row
  for (auto& [rid, row] : collectTargetRows(*db_, plan)) {
    if (stmt.kind == Statement::Kind::Delete) {
      if (db_->eraseRow(def, rid)) rs.rows_affected++;
      continue;
    }
    Row updated = row;
    tuple[0] = &row;
    for (std::size_t i = 0; i < plan.assigned.size(); ++i) {
      updated[plan.assigned[i]] = evaluate(*plan.outputs[i].expr, tuple);
    }
    db_->updateRow(def, rid, updated);
    rs.rows_affected++;
  }
  return rs;
}

}  // namespace perftrack::minidb::sql
