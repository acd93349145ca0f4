#include "minidb/sql/parser.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

TEST(Parser, SimpleSelect) {
  const Statement stmt = parseStatement("SELECT a, b FROM t WHERE a = 1");
  ASSERT_EQ(stmt.kind, Statement::Kind::Select);
  const SelectStmt& sel = *stmt.select;
  EXPECT_EQ(sel.items.size(), 2u);
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].table, "t");
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->kind, Expr::Kind::Binary);
  EXPECT_EQ(sel.where->op, BinaryOp::Eq);
}

TEST(Parser, SelectStar) {
  const Statement stmt = parseStatement("SELECT * FROM t");
  EXPECT_EQ(stmt.select->items.size(), 1u);
  EXPECT_EQ(stmt.select->items[0].expr, nullptr);
}

TEST(Parser, JoinWithOnAndAliases) {
  const Statement stmt =
      parseStatement("SELECT r.name FROM resource_item r JOIN focus f ON r.id = f.rid");
  const SelectStmt& sel = *stmt.select;
  ASSERT_EQ(sel.from.size(), 2u);
  EXPECT_EQ(sel.from[0].alias, "r");
  EXPECT_EQ(sel.from[1].alias, "f");
  EXPECT_NE(sel.from[1].join_on, nullptr);
  EXPECT_EQ(sel.from[0].join_on, nullptr);
}

TEST(Parser, GroupByHavingOrderLimit) {
  const Statement stmt = parseStatement(
      "SELECT name, COUNT(*) AS n FROM t GROUP BY name HAVING COUNT(*) > 2 "
      "ORDER BY n DESC, name ASC LIMIT 10 OFFSET 5");
  const SelectStmt& sel = *stmt.select;
  EXPECT_EQ(sel.group_by.size(), 1u);
  EXPECT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_FALSE(sel.order_by[1].descending);
  EXPECT_EQ(sel.limit, 10);
  EXPECT_EQ(sel.offset, 5);
}

TEST(Parser, OperatorPrecedence) {
  // a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3)
  const Statement stmt = parseStatement("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
  const Expr& where = *stmt.select->where;
  ASSERT_EQ(where.op, BinaryOp::Or);
  EXPECT_EQ(where.rhs->op, BinaryOp::And);
}

TEST(Parser, ArithmeticPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3)
  const Statement stmt = parseStatement("SELECT 1 + 2 * 3");
  const Expr& e = *stmt.select->items[0].expr;
  ASSERT_EQ(e.op, BinaryOp::Add);
  EXPECT_EQ(e.rhs->op, BinaryOp::Mul);
}

TEST(Parser, NegativeNumberLiteralsFolded) {
  const Statement stmt = parseStatement("SELECT -5, -2.5");
  EXPECT_EQ(stmt.select->items[0].expr->value.asInt(), -5);
  EXPECT_DOUBLE_EQ(stmt.select->items[1].expr->value.asReal(), -2.5);
}

TEST(Parser, IsNullAndIsNotNull) {
  const Statement stmt = parseStatement("SELECT 1 FROM t WHERE a IS NULL AND b IS NOT NULL");
  const Expr& where = *stmt.select->where;
  EXPECT_EQ(where.lhs->kind, Expr::Kind::IsNull);
  EXPECT_FALSE(where.lhs->negated);
  EXPECT_EQ(where.rhs->kind, Expr::Kind::IsNull);
  EXPECT_TRUE(where.rhs->negated);
}

TEST(Parser, LikeAndNotLike) {
  const Statement stmt =
      parseStatement("SELECT 1 FROM t WHERE a LIKE 'x%' AND b NOT LIKE '%y'");
  const Expr& where = *stmt.select->where;
  EXPECT_EQ(where.lhs->kind, Expr::Kind::Like);
  EXPECT_FALSE(where.lhs->negated);
  EXPECT_TRUE(where.rhs->negated);
}

TEST(Parser, InList) {
  const Statement stmt = parseStatement("SELECT 1 FROM t WHERE a IN (1, 2, 3)");
  const Expr& where = *stmt.select->where;
  EXPECT_EQ(where.kind, Expr::Kind::InList);
  EXPECT_EQ(where.list.size(), 3u);
}

TEST(Parser, BetweenDesugarsToRange) {
  const Statement stmt = parseStatement("SELECT 1 FROM t WHERE a BETWEEN 2 AND 5");
  const Expr& where = *stmt.select->where;
  ASSERT_EQ(where.op, BinaryOp::And);
  EXPECT_EQ(where.lhs->op, BinaryOp::Ge);
  EXPECT_EQ(where.rhs->op, BinaryOp::Le);
}

TEST(Parser, AggregateFunctions) {
  const Statement stmt =
      parseStatement("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(DISTINCT v) FROM t");
  const auto& items = stmt.select->items;
  ASSERT_EQ(items.size(), 6u);
  EXPECT_EQ(items[0].expr->agg, AggFunc::Count);
  EXPECT_EQ(items[0].expr->lhs, nullptr);
  EXPECT_EQ(items[1].expr->agg, AggFunc::Sum);
  EXPECT_TRUE(items[5].expr->agg_distinct);
}

TEST(Parser, InsertWithColumns) {
  const Statement stmt =
      parseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_EQ(stmt.kind, Statement::Kind::Insert);
  EXPECT_EQ(stmt.insert->columns.size(), 2u);
  EXPECT_EQ(stmt.insert->rows.size(), 2u);
}

TEST(Parser, InsertWithoutColumns) {
  const Statement stmt = parseStatement("INSERT INTO t VALUES (NULL, 2.5)");
  EXPECT_TRUE(stmt.insert->columns.empty());
  EXPECT_TRUE(stmt.insert->rows[0][0]->value.isNull());
}

TEST(Parser, UpdateStatement) {
  const Statement stmt = parseStatement("UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'");
  ASSERT_EQ(stmt.kind, Statement::Kind::Update);
  // The row source: SELECT 1 AS a, b + 1 AS b FROM t WHERE c = 'x'.
  ASSERT_EQ(stmt.select->items.size(), 2u);
  EXPECT_EQ(stmt.select->items[1].alias, "b");
  EXPECT_EQ(stmt.select->from.at(0).table, "t");
  EXPECT_NE(stmt.select->where, nullptr);
}

TEST(Parser, DeleteStatement) {
  const Statement stmt = parseStatement("DELETE FROM t WHERE a = 1");
  ASSERT_EQ(stmt.kind, Statement::Kind::Delete);
  // The row source: SELECT * FROM t WHERE a = 1.
  ASSERT_EQ(stmt.select->items.size(), 1u);
  EXPECT_EQ(stmt.select->items[0].expr, nullptr);
  EXPECT_NE(stmt.select->where, nullptr);
}

TEST(Parser, CreateTableWithPrimaryKey) {
  const Statement stmt = parseStatement(
      "CREATE TABLE resource_item (id INTEGER PRIMARY KEY, name TEXT, weight REAL)");
  ASSERT_EQ(stmt.kind, Statement::Kind::CreateTable);
  const CreateTableStmt& ct = *stmt.create_table;
  EXPECT_EQ(ct.table, "resource_item");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.primary_key, 0);
  EXPECT_EQ(ct.columns[1].second, ColumnType::Text);
  EXPECT_EQ(ct.columns[2].second, ColumnType::Real);
}

TEST(Parser, CreateTableIfNotExists) {
  const Statement stmt = parseStatement("CREATE TABLE IF NOT EXISTS t (a INTEGER)");
  EXPECT_TRUE(stmt.create_table->if_not_exists);
}

TEST(Parser, CreateUniqueIndex) {
  const Statement stmt = parseStatement("CREATE UNIQUE INDEX i ON t (a, b)");
  ASSERT_EQ(stmt.kind, Statement::Kind::CreateIndex);
  EXPECT_TRUE(stmt.create_index->unique);
  EXPECT_EQ(stmt.create_index->columns.size(), 2u);
}

TEST(Parser, DropStatements) {
  EXPECT_EQ(parseStatement("DROP TABLE t").drop->what, DropStmt::What::Table);
  EXPECT_EQ(parseStatement("DROP INDEX i").drop->what, DropStmt::What::Index);
  EXPECT_TRUE(parseStatement("DROP TABLE IF EXISTS t").drop->if_exists);
}

TEST(Parser, TransactionStatements) {
  EXPECT_EQ(parseStatement("BEGIN").txn->kind, TxnStmt::Kind::Begin);
  EXPECT_EQ(parseStatement("COMMIT").txn->kind, TxnStmt::Kind::Commit);
  EXPECT_EQ(parseStatement("ROLLBACK").txn->kind, TxnStmt::Kind::Rollback);
}

TEST(Parser, ExplainPrefix) {
  const Statement stmt = parseStatement("EXPLAIN SELECT * FROM t");
  EXPECT_TRUE(stmt.explain);
}

TEST(Parser, TrailingSemicolonAllowed) {
  EXPECT_NO_THROW(parseStatement("SELECT 1;"));
}

TEST(Parser, SyntaxErrorsThrow) {
  EXPECT_THROW(parseStatement("SELECT FROM"), util::SqlError);
  EXPECT_THROW(parseStatement("INSERT t VALUES (1)"), util::SqlError);
  EXPECT_THROW(parseStatement("SELECT 1 extra garbage ;;"), util::SqlError);
  EXPECT_THROW(parseStatement("CREATE TABLE t (a BOGUSTYPE)"), util::SqlError);
  EXPECT_THROW(parseStatement(""), util::SqlError);
}

}  // namespace
}  // namespace perftrack::minidb::sql
