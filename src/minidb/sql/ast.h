// minidb SQL front-end: abstract syntax tree.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minidb/value.h"

namespace perftrack::minidb::sql {

// --- expressions -----------------------------------------------------------

enum class BinaryOp {
  Eq, Ne, Lt, Le, Gt, Ge,  // comparisons
  And, Or,                 // logical
  Add, Sub, Mul, Div,      // arithmetic
};

enum class AggFunc { Count, Sum, Avg, Min, Max };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

struct Expr {
  enum class Kind {
    Literal,     // value
    Param,       // '?' positional parameter (value filled in by bind())
    Column,      // [table_alias.]column
    Binary,      // lhs op rhs
    Not,         // NOT lhs
    IsNull,      // lhs IS [NOT] NULL (negated flag)
    Like,        // lhs LIKE pattern (pattern in `value`)
    InList,      // lhs IN (list)
    InSelect,    // lhs IN (SELECT ...) — uncorrelated subquery
    Aggregate,   // agg(lhs), or COUNT(*) with lhs == nullptr
  };

  Kind kind = Kind::Literal;
  Value value;                 // Literal / Like pattern / bound Param value
  std::string table;           // Column: optional qualifier
  std::string column;          // Column
  BinaryOp op = BinaryOp::Eq;  // Binary
  bool negated = false;        // IsNull / InList / Like
  int param_index = -1;        // Param: 0-based position within the statement
  AggFunc agg = AggFunc::Count;
  bool agg_distinct = false;
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> list;   // InList
  std::unique_ptr<SelectStmt> subquery;  // InSelect

  // Binding annotations filled in by the executor's resolve pass.
  int bound_table = -1;  // Column: index into the FROM list
  int bound_col = -1;    // Column: ordinal within that table
  int bound_flat = -1;   // Column: ordinal within a joined row (every FROM
                         // entry's columns concatenated in FROM order)
  int agg_slot = -1;     // Aggregate: accumulator slot within a group
  // InSelect: the subquery's materialized first-column values (encoded for
  // order-insensitive membership), filled by the executor before evaluation.
  std::shared_ptr<std::set<std::string>> subquery_values;

  // --- convenience constructors ---
  static ExprPtr literal(Value v);
  static ExprPtr columnRef(std::string table, std::string column);
  static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
};

// --- statements --------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;        // null means '*'
  std::string alias;   // output column name ("" = derive from expr)
};

struct TableRef {
  std::string table;
  std::string alias;   // defaults to table name
  ExprPtr join_on;     // null for the first table
  bool left_join = false;  // LEFT [OUTER] JOIN: null-extend on no match
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<std::int64_t> limit;
  std::optional<std::int64_t> offset;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;      // empty = all, in declaration order
  std::vector<std::vector<ExprPtr>> rows;
};

struct CreateTableStmt {
  std::string table;
  bool if_not_exists = false;
  std::vector<std::pair<std::string, ColumnType>> columns;
  int primary_key = -1;
};

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  bool if_not_exists = false;
};

struct DropStmt {
  enum class What { Table, Index } what = What::Table;
  std::string name;
  bool if_exists = false;
};

struct TxnStmt {
  enum class Kind { Begin, Commit, Rollback } kind = Kind::Begin;
};

struct VacuumStmt {};  // VACUUM: rewrite heaps/indexes, reclaim dead space

struct Statement {
  enum class Kind {
    Select, Insert, Update, Delete, CreateTable, CreateIndex, Drop, Txn, Vacuum,
  };
  Kind kind = Kind::Select;
  bool explain = false;          // EXPLAIN prefix: emit the plan instead of rows
  bool explain_analyze = false;  // EXPLAIN ANALYZE: run, then emit annotated plan
  int param_count = 0;           // number of '?' placeholders across the statement

  // Exactly one of these is populated, matching `kind`. UPDATE and DELETE
  // populate `select` with the rows they change, so the SELECT planner finds
  // those rows and binds their expressions:
  //   DELETE FROM t WHERE w            is  SELECT * FROM t WHERE w
  //   UPDATE t SET c = e, ... WHERE w  is  SELECT e AS c, ... FROM t WHERE w
  // (one item per SET assignment, aliased by the column it assigns).
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<DropStmt> drop;
  std::unique_ptr<TxnStmt> txn;
  std::unique_ptr<VacuumStmt> vacuum;
};

}  // namespace perftrack::minidb::sql
