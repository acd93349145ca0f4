// minidb SQL execution pipeline (internal header).
//
// SELECT execution is a Volcano-style operator tree: each operator exposes
// open()/nextBatch()/close() and pulls column-major RowBatches from its
// child, so the first output batch is produced without materializing the
// whole result. The tree is
//
//   Limit -> Sort -> Distinct -> (Project | Aggregate) -> NestedLoop
//
// with the NestedLoop driving one SlotIter chain per FROM entry
// (SeqScan / IndexProbe wrapped by FilterOp stages): table 0 arrives in
// batches, inner levels are probed per outer row, and the loop emits batches
// of joined rows (one column per column of every FROM entry), so the
// operators above run one column-wise code path for one table or many.
// Sort uses a bounded top-K heap when the plan carries LIMIT, so ORDER BY
// ... LIMIT n never materializes more than offset+n rows. EXPLAIN renders
// this tree, one line per operator, root first. Row-at-a-time stepping is
// the cursor's job (Cursor::next in executor.cpp), not the operators'.
//
// When ExecOptions.degree >= 2 and the plan's shape allows it (blocking
// Aggregate/Distinct/Sort above table 0, no LIMIT-without-ORDER-BY early
// stop, table 0 spanning at least min_pages heap pages), the parallel-safe
// subtree runs morsel-driven instead: a shared MorselSource partitions
// table 0 into ~2k-row morsels (whole heap pages for SeqScan, chunked
// cursor pulls for index paths) consumed by workers from the process-wide
// ExecPool. Each worker runs a private copy of the serial join with whole
// morsels as its outer batches, feeding a partial hash aggregate or ranked
// projected rows (optionally a per-worker top-K heap), and a single
// GatherOp merges the thread-local states at the barrier, after which the
// serial operators above (Distinct, Sort, Limit) run unchanged. Degree 1 is
// exactly the serial path. EXPLAIN shows the parallel subtree under
// "GATHER (workers=N)"; EXPLAIN ANALYZE rolls the per-worker rows/time into
// the subtree's OpStats.
//
// This header is internal to minidb/sql: executor.cpp (statements, prepared
// statements, cursors) builds on it; nothing above the SQL layer includes it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/ast.h"
#include "minidb/sql/options.h"
#include "minidb/sql/row_batch.h"

namespace perftrack::minidb::sql {

struct ResultSet;

/// One joined tuple: a row pointer per FROM-list entry (null = not yet bound).
using Tuple = std::vector<const Row*>;

/// Evaluates `e` over a tuple of row pointers: the tuple view of the one
/// expression evaluator in pipeline.cpp, whose other views read one lane of
/// a joined RowBatch or a finished group. An empty tuple is the empty view
/// (INSERT values, a FROM-less SELECT), where no column ref may appear.
/// And/Or and IN evaluate lazily, in every view alike.
Value evaluate(const Expr& e, const Tuple& tuple);

/// SQL truthiness: NULL and zero are false, everything else true.
bool truthy(const Value& v);

/// Calls `fn` on every column ref in `e`. Subqueries are not entered: they
/// bind against their own FROM list.
void forEachColumn(const Expr* e, const std::function<void(const Expr&)>& fn);

/// Copies `params` into every Param node of the statement.
void bindParamValues(Statement& stmt, const std::vector<Value>& params);

// ---------------------------------------------------------------------------
// SelectPlan — the compiled form of one SELECT against one schema epoch.
//
// Owns nothing in the AST (Expr pointers reach into the Statement that was
// planned); owns the column refs synthesized for '*' expansion. Catalog
// pointers (TableDef/IndexDef) are valid only while `epoch` matches
// Database::schemaEpoch(); PreparedStatement revalidates before every run.
// ---------------------------------------------------------------------------

struct SelectPlan {
  struct FromEntry {
    const TableDef* def = nullptr;
    std::string alias;
  };

  struct OutputCol {
    Expr* expr = nullptr;
    std::string name;
  };

  struct PlannedConjunct {
    Expr* expr = nullptr;
    int level = 0;       // join level that evaluates it: the highest table it
                         // reads, or a LEFT JOIN's own level for that join's
                         // ON conjuncts (which decide matching there even when
                         // they read only earlier tables)
    int on_table = -1;   // index of the JOIN whose ON clause supplied it, or
                         // -1 for WHERE conjuncts (LEFT JOIN semantics)
  };

  struct AccessPath {
    enum class Kind {
      Scan,
      IndexEqual,
      IndexInList,
      IndexRange,
      /// IN-list probe answered from the inverted index: one posting-list
      /// lookup per key instead of one B+-tree descent per key. Chosen over
      /// IndexInList when the engine's invidx knob is on and the key column
      /// is INTEGER; `index` stays set for the runtime B-tree fallback
      /// (non-integer keys, undecodable columns).
      PostingInList,
    } kind = Kind::Scan;
    const IndexDef* index = nullptr;
    int key_column = -1;         // table-local ordinal of the indexed column
    Expr* equal_rhs = nullptr;   // IndexEqual: bound expression for the key
    Expr* in_list = nullptr;     // IndexInList: the consumed InList conjunct
    // IndexEqual/IndexInList/PostingInList: the conjunct the probe satisfies
    // by construction (the cursor re-verifies each key with Value::compare,
    // which is SQL `=` for non-NULL keys, and a NULL key yields no rows), so
    // the filter above the probe skips it.
    Expr* consumed = nullptr;
    Expr* lower_rhs = nullptr;   // IndexRange bounds
    bool lower_inclusive = false;
    Expr* upper_rhs = nullptr;
    bool upper_inclusive = false;

    std::string describe(const FromEntry& entry) const {
      switch (kind) {
        case Kind::Scan:
          return "SCAN " + entry.def->name + " AS " + entry.alias;
        case Kind::IndexEqual:
          return "SEARCH " + entry.def->name + " AS " + entry.alias +
                 " USING INDEX " + index->name + " (" +
                 entry.def->columns[key_column].name + "=?)";
        case Kind::IndexInList:
          return "SEARCH " + entry.def->name + " AS " + entry.alias +
                 " USING INDEX " + index->name + " (" +
                 entry.def->columns[key_column].name + " IN multi-point probe, " +
                 std::to_string(in_list->list.size()) + " keys)";
        case Kind::IndexRange:
          return "SEARCH " + entry.def->name + " AS " + entry.alias +
                 " USING INDEX " + index->name + " (" +
                 entry.def->columns[key_column].name + " range)";
        case Kind::PostingInList:
          return "SEARCH " + entry.def->name + " AS " + entry.alias +
                 " USING POSTING INDEX (" + entry.def->columns[key_column].name +
                 " IN posting-list probe, " + std::to_string(in_list->list.size()) +
                 " keys)";
      }
      return "?";
    }
  };

  SelectStmt* sel = nullptr;
  std::uint64_t epoch = 0;
  bool use_indexes = true;
  bool invidx = false;
  std::vector<FromEntry> from;
  std::vector<ExprPtr> star_exprs;  // owns column refs expanded from '*'
  std::vector<OutputCol> outputs;
  std::vector<int> assigned;  // UPDATE: the column each output (SET item) writes
  std::vector<PlannedConjunct> conjuncts;
  std::vector<AccessPath> paths;
  std::vector<Expr*> aggregates;
  bool grouped = false;

  /// A column the operators above the join read (outputs, ORDER BY, GROUP
  /// BY, HAVING): FROM entry, ordinal there, and joined-row ordinal
  /// (Expr::bound_flat). A joined batch fills only these columns.
  struct ReadCol {
    std::size_t table = 0;
    std::size_t col = 0;
    std::size_t flat = 0;
  };
  std::vector<ReadCol> read_cols;  // ascending flat
  /// Per output, then per ORDER BY key: whether it is a bare column that no
  /// other output or key reads (Project moves such values, not copies).
  std::vector<char> sole_column;
};

/// Resolves tables, binds expressions, splits conjuncts, and picks one
/// access path per FROM entry. Annotates the AST in place (bound_table /
/// bound_col / agg_slot); the produced plan is valid while the database's
/// schema epoch matches plan.epoch.
SelectPlan buildSelectPlan(Database& db, SelectStmt& sel, bool use_indexes,
                           bool invidx = false);

// ---------------------------------------------------------------------------
// Operator tree
// ---------------------------------------------------------------------------

/// Per-operator runtime counters for EXPLAIN ANALYZE. `loops` counts open()
/// calls (re-opens of an inner join input each count), `rows` counts rows
/// emitted, `time_ns` is inclusive wall time (children's time counts toward
/// their parents, PostgreSQL-style). Accounting only happens while `timed`
/// is set — untimed runs pay nothing beyond one branch per call.
struct OpStats {
  std::uint64_t loops = 0;
  std::uint64_t rows = 0;
  std::uint64_t time_ns = 0;
  std::uint64_t batches = 0;     // nextBatch() calls that produced rows
  std::uint64_t batch_rows = 0;  // live rows across those batches (avg fill)
  bool timed = false;
};

/// Appends " (actual rows=R loops=L time=T ms)" to an EXPLAIN line; when the
/// operator was driven batch-at-a-time, " batches=B avg_fill=F" follows.
void appendActuals(std::string& line, const OpStats& stats);

namespace detail {

/// RAII accumulator: adds the scope's wall time to `stats.time_ns`.
class OpTick {
 public:
  explicit OpTick(OpStats& stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~OpTick() {
    stats_.time_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  OpTick(const OpTick&) = delete;
  OpTick& operator=(const OpTick&) = delete;

 private:
  OpStats& stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace detail

/// One pipeline operator. Its one pull interface is batch-at-a-time:
/// nextBatch() fills a column-major RowBatch (with ORDER BY keys for
/// operators below the Sort) of at most `capacity` rows (0 = the operator's
/// exec_batch_rows) and returns false only at end of stream — a true return
/// always carries at least one live row. Operators tolerate nextBatch()
/// after exhaustion and close() twice.
///
/// The public surface wraps the virtual do*() hooks so EXPLAIN ANALYZE can
/// account loops/rows/time per operator without touching every subclass.
class RowOp {
 public:
  virtual ~RowOp() = default;

  void open() {
    if (!stats_.timed) return doOpen();
    ++stats_.loops;
    const detail::OpTick tick(stats_);
    doOpen();
  }
  /// Batch pull. Defined in pipeline.cpp (it feeds the exec metrics).
  bool nextBatch(RowBatch& batch);
  void close() {
    if (!stats_.timed) return doClose();
    const detail::OpTick tick(stats_);
    doClose();
  }
  /// Appends this operator's EXPLAIN line(s), children indented below;
  /// annotated with actuals after an analyzed run.
  void describe(std::vector<std::string>& lines, int depth) const {
    const std::size_t first = lines.size();
    doDescribe(lines, depth);
    if (stats_.timed && first < lines.size()) appendActuals(lines[first], stats_);
  }

  /// Arms (or disarms) EXPLAIN ANALYZE accounting. Composite operators
  /// override to recurse into their children.
  virtual void setAnalyze(bool on) { stats_.timed = on; }
  const OpStats& stats() const { return stats_; }

 protected:
  virtual void doOpen() = 0;
  virtual bool doNextBatch(RowBatch& batch) = 0;
  virtual void doClose() = 0;
  /// Appends this operator's EXPLAIN line(s), children indented below.
  virtual void doDescribe(std::vector<std::string>& lines, int depth) const = 0;

  OpStats stats_;
};

/// A built (but not yet opened) operator tree for one SelectPlan.
struct Pipeline {
  std::unique_ptr<RowOp> root;
  std::vector<std::string> columns;
};

// ---------------------------------------------------------------------------
// Parallel execution knobs
// ---------------------------------------------------------------------------

/// Target rows per morsel handed to one worker (whole heap pages for
/// sequential scans, so the realized size tracks the page fill).
inline constexpr std::size_t kMorselTargetRows = 2048;

/// Builds the operator tree for `plan`. Only reads page headers (for the
/// parallel-eligibility gate); does not open any cursor until the root is
/// open()ed, so it is safe to build for EXPLAIN only.
Pipeline buildPipeline(Database& db, SelectPlan& plan,
                       const ExecOptions& opts);

/// Runs the plan's uncorrelated IN (SELECT ...) subqueries (once per
/// execution; their contents may have changed between runs).
void materializePlanSubqueries(Database& db, SelectPlan& plan);

/// EXPLAIN [ANALYZE] text of a statement's plan, one line per operator,
/// root first, children indented two spaces per level. A SELECT shows its
/// operator tree; under EXPLAIN ANALYZE it first runs to exhaustion (under a
/// cursor pin) with per-operator accounting armed, and each line carries its
/// actuals. An UPDATE or DELETE shows the chain collectTargetRows drives.
std::vector<std::string> explainPlan(Database& db, const Statement& stmt, SelectPlan& plan,
                                     const ExecOptions& opts);

/// The rows an UPDATE or DELETE changes: materializes the plan's subqueries,
/// then drives the table-0 chain of its one-table plan (access path plus
/// FILTER conjuncts, as the nested loop builds it) row at a time and returns
/// every passing row with its RecordId, in access-path order and each row
/// once. The chain is closed before this returns, so the caller mutates
/// only after every read.
std::vector<std::pair<RecordId, Row>> collectTargetRows(Database& db, SelectPlan& plan);

/// Moves every live row of each batch `fetch` yields into `rows`: the one
/// SELECT drain loop behind exec() and PreparedStatement::execute().
void drainBatches(const std::function<bool(RowBatch&)>& fetch, std::vector<Row>& rows);

/// Runs a SELECT plan to completion into a ResultSet: the materializing
/// wrapper behind Engine::exec() and IN (SELECT ...) subqueries.
ResultSet execSelectPlan(Database& db, SelectPlan& plan, const ExecOptions& opts);

}  // namespace perftrack::minidb::sql
