// minidb SQL front-end: statement preparation and execution.
//
// The Engine compiles a parsed Statement against a Database and runs it.
// SELECT planning is rule-based, in the spirit of early relational engines:
// tables join in FROM order with nested loops; for each table the planner
// looks for a WHERE/ON conjunct of the form  col <op> <bound expr>  where
// `col` has a B+-tree index and the other side only references earlier
// tables — equality conjuncts become index point scans, IN-lists become
// sorted multi-point probes, inequalities become index range scans,
// otherwise the table is heap-scanned.
//
// Execution is a pull-based Volcano pipeline (see sql/pipeline.h): a SELECT
// can be stepped row by row through a Cursor without materializing the
// result, and exec()/execute() are thin wrappers that drain a cursor into a
// ResultSet. EXPLAIN returns the operator tree, one line per operator.
//
// UPDATE and DELETE are planned the same way: the parser stores each as the
// one-table SELECT of the rows it changes, so they find those rows through
// the same access paths, collect them, and only then write.
//
// prepare() compiles a statement once into a PreparedStatement that can be
// bound and executed repeatedly without re-lexing or re-parsing. SELECT,
// UPDATE and DELETE plans (resolved tables, conjuncts, access paths, SET
// targets) and INSERT targets (table and column ordinals) are cached inside
// the PreparedStatement and revalidated against Database::schemaEpoch()
// (plans also against the engine's use_indexes/invidx options), so DDL or
// ablation flips trigger a cheap re-resolve instead of returning stale
// plans, and a re-executed statement looks up no name by string.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/ast.h"
#include "minidb/sql/options.h"
#include "minidb/sql/row_batch.h"

namespace perftrack::minidb::sql {

/// Result of executing one statement.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::int64_t rows_affected = 0;  // INSERT/UPDATE/DELETE
  std::int64_t last_insert_id = 0; // INSERT into a table with a PK

  bool empty() const { return rows.empty(); }

  /// Renders the result as an aligned text table (for the CLI and examples).
  std::string toText() const;
};

class Engine;
struct SelectPlan;  // cached plan, defined in sql/pipeline.h
struct CursorImpl;  // cursor state, defined in executor.cpp

/// An INSERT's resolved target: the table, and the column ordinal each
/// listed value (or, without a column list, each declared column) writes.
/// Valid while Database::schemaEpoch() equals `epoch`.
struct InsertTarget {
  const TableDef* def = nullptr;
  std::vector<int> columns;
  std::uint64_t epoch = 0;
};

/// A stepping SELECT cursor: pulls batches through the operator pipeline,
/// so the first rows arrive without materializing the result.
///
/// Invariants:
///  - While open (and not EXPLAIN), the cursor holds a Database::CursorPin:
///    DDL, VACUUM, ROLLBACK, and row mutations on the database throw
///    StorageError until the cursor is closed.
///  - The cursor keeps the parsed statement and plan alive (shared), so it
///    survives its PreparedStatement and statement-cache eviction.
///  - next() after exhaustion returns false; close() is idempotent and
///    releases the pin immediately.
class Cursor {
 public:
  Cursor(Cursor&& o) noexcept;
  Cursor& operator=(Cursor&& o) noexcept;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  ~Cursor();

  const std::vector<std::string>& columns() const;

  /// Produces the next row, stepping through batches the cursor pulls
  /// itself (32 rows first, doubling up to exec_batch_rows, so stepping a
  /// few rows scans about that many). Returns false (and auto-closes) at
  /// end of stream.
  bool next(Row& row);

  /// Pulls the next batch of rows. `batch.capacity` bounds the refill (0 =
  /// the engine's exec_batch_rows); a true return carries at least one live
  /// row in `batch.sel`. Returns false (and auto-closes) at end of stream.
  /// Interleaving with next() is allowed; rows are never duplicated.
  bool fetchBatch(RowBatch& batch);

  /// Releases the pipeline and the database pin early; idempotent.
  void close();

  bool isOpen() const;

 private:
  friend class Engine;
  friend class PreparedStatement;
  explicit Cursor(std::shared_ptr<CursorImpl> impl);

  std::shared_ptr<CursorImpl> impl_;
};

/// A parsed statement plus its parameter bindings and cached SELECT plan.
/// Obtained from Engine::prepare(); re-executable with fresh bindings.
class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;

  /// Number of '?' placeholders in the statement.
  int paramCount() const { return stmt_->param_count; }

  /// Binds one parameter (1-based index, SQLite-style). Throws SqlError when
  /// the index is out of range. NULL is a legal binding.
  void bind(int index, Value v);

  /// Binds every parameter at once; `params.size()` must equal paramCount().
  void bindAll(std::vector<Value> params);

  /// Forgets all bindings (execute() then requires a fresh bindAll/bind).
  void clearBindings();

  /// Executes with the current bindings. Throws SqlError when any parameter
  /// is unbound. Bindings persist across executions until rebound.
  /// SELECTs drain an internal cursor (the materializing wrapper).
  ResultSet execute();

  /// bindAll + execute in one call.
  ResultSet execute(std::vector<Value> params);

  /// Opens a stepping cursor over a SELECT with the current bindings.
  /// Only one cursor may be open per statement at a time (the bindings are
  /// baked into the shared AST); throws SqlError otherwise.
  Cursor openCursor();

  /// Like openCursor(), but every read — planning, the open, and each
  /// next() — resolves through `snapshot`, a pinned committed version from
  /// Database::takeSnapshot(). The cursor owns the snapshot for its open
  /// lifetime; row mutations and rollbacks on the database proceed freely
  /// underneath it (the cursor keeps seeing its frozen version), while DDL
  /// and VACUUM still refuse until it closes.
  Cursor openCursor(Pager::ReadSnapshot snapshot);

  /// True while a cursor opened from this statement is still open.
  bool hasOpenCursor() const;

  const std::string& sql() const { return sql_; }
  Statement::Kind kind() const { return stmt_->kind; }
  const Statement& statement() const { return *stmt_; }

 private:
  friend class Engine;
  PreparedStatement(Engine& engine, std::string sql);
  Cursor openCursorInternal(Pager::ReadSnapshot snapshot);
  /// Rebuilds the cached plan (or INSERT target) when it is missing or was
  /// built under another schema epoch or use_indexes/invidx setting; a
  /// rebuild of an existing one counts in pt_plan_revalidations_total.
  /// Returns the microseconds spent planning (0 on a cache hit).
  std::uint64_t refreshPlan();
  /// Runs a non-SELECT statement on its refreshed plan or target.
  ResultSet executeWrite();

  Engine* engine_;
  std::string sql_;
  std::shared_ptr<Statement> stmt_;   // shared with cursors opened from here
  std::vector<Value> params_;
  std::vector<char> bound_;        // per-parameter "has been bound" flags
  std::shared_ptr<SelectPlan> plan_;  // SELECT/UPDATE/DELETE row source, epoch-validated
  std::optional<InsertTarget> insert_;  // INSERT target, epoch-validated
  std::shared_ptr<char> busy_token_;  // nonzero while a cursor is open
  std::uint64_t parse_us_ = 0;     // parse span, consumed by the first execution
};

class Engine {
 public:
  /// Starts from `opts` (the process defaults unless a server hands its
  /// sessions other ones).
  explicit Engine(Database& db, const ExecOptions& opts = processOptions())
      : db_(&db), opts_(opts) {}

  /// Compiles one statement for repeated execution with bound parameters.
  PreparedStatement prepare(std::string_view sql);

  /// Parses and executes one statement. Statements containing '?' must go
  /// through prepare() instead.
  ResultSet exec(std::string_view sql);

  /// Executes an already-parsed statement (no parameters).
  ResultSet exec(const Statement& stmt);

  /// Opens a stepping cursor over a parameterless SELECT (or EXPLAIN).
  /// The cursor owns the parsed statement and plan; it outlives this call.
  Cursor openCursor(std::string_view sql);

  /// Executes a ';'-separated script (quotes and comments are respected);
  /// returns the last statement's result. Used for DDL batches.
  ResultSet execScript(std::string_view script);

  /// Sets one execution option (sql/options.h) by its table name. Throws
  /// SqlError for an unknown name or a value outside the row's range;
  /// returns whether the value changed. Cached plans built under another
  /// use_indexes/invidx setting replan automatically on next execution.
  bool setOption(std::string_view name, std::int64_t value);
  const ExecOptions& options() const { return opts_; }

  Database& database() { return *db_; }

 private:
  friend class PreparedStatement;

  /// Plans a SELECT, UPDATE or DELETE's row source (and an UPDATE's SET
  /// targets) under the current options.
  SelectPlan planRowSource(const Statement& stmt) const;
  /// Resolves an INSERT's table and target columns by name.
  InsertTarget resolveInsert(const InsertStmt& ins) const;
  /// Runs an INSERT into its resolved target.
  ResultSet execInsert(const InsertStmt& ins, const InsertTarget& target);
  /// Runs an UPDATE or DELETE on `plan`, the plan of its row source.
  ResultSet execDml(const Statement& stmt, SelectPlan& plan);

  Database* db_;
  ExecOptions opts_;
};

}  // namespace perftrack::minidb::sql
