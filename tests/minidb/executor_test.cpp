#include "minidb/sql/executor.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

// EXPLAIN returns the operator tree, one row per operator; join the lines so
// assertions can search the whole plan.
std::string planText(const ResultSet& rs) {
  std::string text;
  for (const auto& row : rs.rows) {
    text += row[0].asText();
    text += '\n';
  }
  return text;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, app TEXT, nprocs INTEGER, "
              "seconds REAL)");
    sql_.exec("INSERT INTO runs (app, nprocs, seconds) VALUES "
              "('irs', 8, 120.5), ('irs', 16, 65.2), ('irs', 32, 40.1), "
              "('smg', 8, 300.0), ('smg', 16, 180.0), ('smg', 32, 110.0)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

TEST_F(ExecutorTest, SelectStarReturnsAllRowsAndColumns) {
  const ResultSet rs = sql_.exec("SELECT * FROM runs");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "app", "nprocs", "seconds"}));
  EXPECT_EQ(rs.rows.size(), 6u);
}

TEST_F(ExecutorTest, WhereEquality) {
  const ResultSet rs = sql_.exec("SELECT nprocs FROM runs WHERE app = 'irs'");
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(ExecutorTest, WhereConjunction) {
  const ResultSet rs =
      sql_.exec("SELECT seconds FROM runs WHERE app = 'smg' AND nprocs >= 16");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorTest, WhereDisjunctionAndComparisons) {
  const ResultSet rs = sql_.exec("SELECT id FROM runs WHERE nprocs < 10 OR seconds > 150");
  EXPECT_EQ(rs.rows.size(), 3u);  // irs@8, smg@8 (300s), smg@16 (180s)
}

TEST_F(ExecutorTest, OrderByDescending) {
  const ResultSet rs = sql_.exec("SELECT seconds FROM runs ORDER BY seconds DESC");
  ASSERT_EQ(rs.rows.size(), 6u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].asReal(), 300.0);
  EXPECT_DOUBLE_EQ(rs.rows[5][0].asReal(), 40.1);
}

TEST_F(ExecutorTest, OrderByMultipleKeys) {
  const ResultSet rs = sql_.exec("SELECT app, nprocs FROM runs ORDER BY app, nprocs DESC");
  ASSERT_EQ(rs.rows.size(), 6u);
  EXPECT_EQ(rs.rows[0][0].asText(), "irs");
  EXPECT_EQ(rs.rows[0][1].asInt(), 32);
  EXPECT_EQ(rs.rows[3][0].asText(), "smg");
  EXPECT_EQ(rs.rows[3][1].asInt(), 32);
}

TEST_F(ExecutorTest, LimitAndOffset) {
  const ResultSet rs =
      sql_.exec("SELECT id FROM runs ORDER BY id LIMIT 2 OFFSET 3");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 4);
  EXPECT_EQ(rs.rows[1][0].asInt(), 5);
}

TEST_F(ExecutorTest, AggregatesWholeTable) {
  const ResultSet rs = sql_.exec(
      "SELECT COUNT(*), SUM(nprocs), MIN(seconds), MAX(seconds), AVG(nprocs) FROM runs");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 6);
  EXPECT_EQ(rs.rows[0][1].asInt(), 112);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].asReal(), 40.1);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].asReal(), 300.0);
  EXPECT_NEAR(rs.rows[0][4].asReal(), 112.0 / 6.0, 1e-9);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  const ResultSet rs = sql_.exec("SELECT COUNT(*), SUM(nprocs) FROM runs WHERE app = 'nope'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 0);
  EXPECT_TRUE(rs.rows[0][1].isNull());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  const ResultSet rs = sql_.exec(
      "SELECT app, COUNT(*) AS n, MIN(seconds) FROM runs GROUP BY app "
      "HAVING MIN(seconds) < 100 ORDER BY app");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "irs");
  EXPECT_EQ(rs.rows[0][1].asInt(), 3);
}

TEST_F(ExecutorTest, GroupByNprocsAcrossApps) {
  const ResultSet rs = sql_.exec(
      "SELECT nprocs, COUNT(*), AVG(seconds) FROM runs GROUP BY nprocs ORDER BY nprocs");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 8);
  EXPECT_EQ(rs.rows[0][1].asInt(), 2);
  EXPECT_NEAR(rs.rows[0][2].asReal(), (120.5 + 300.0) / 2, 1e-9);
}

TEST_F(ExecutorTest, CountDistinct) {
  const ResultSet rs = sql_.exec("SELECT COUNT(DISTINCT app) FROM runs");
  EXPECT_EQ(rs.rows[0][0].asInt(), 2);
}

TEST_F(ExecutorTest, SelectDistinct) {
  const ResultSet rs = sql_.exec("SELECT DISTINCT app FROM runs ORDER BY app");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].asText(), "irs");
  EXPECT_EQ(rs.rows[1][0].asText(), "smg");
}

TEST_F(ExecutorTest, JoinTwoTables) {
  sql_.exec("CREATE TABLE apps (name TEXT, language TEXT)");
  sql_.exec("INSERT INTO apps VALUES ('irs', 'C'), ('smg', 'C'), ('umt', 'Fortran')");
  const ResultSet rs = sql_.exec(
      "SELECT r.id, a.language FROM runs r JOIN apps a ON r.app = a.name "
      "WHERE r.nprocs = 8 ORDER BY r.id");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].asText(), "C");
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  sql_.exec("CREATE TABLE apps (name TEXT, team INTEGER)");
  sql_.exec("CREATE TABLE teams (id INTEGER PRIMARY KEY, lab TEXT)");
  sql_.exec("INSERT INTO teams (lab) VALUES ('LLNL'), ('LANL')");
  sql_.exec("INSERT INTO apps VALUES ('irs', 1), ('smg', 2)");
  const ResultSet rs = sql_.exec(
      "SELECT t.lab, COUNT(*) FROM runs r JOIN apps a ON r.app = a.name "
      "JOIN teams t ON a.team = t.id GROUP BY t.lab ORDER BY t.lab");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].asText(), "LANL");
  EXPECT_EQ(rs.rows[0][1].asInt(), 3);
}

TEST_F(ExecutorTest, LikePatterns) {
  const ResultSet rs = sql_.exec("SELECT DISTINCT app FROM runs WHERE app LIKE 'i%'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "irs");
  const ResultSet rs2 = sql_.exec("SELECT COUNT(*) FROM runs WHERE app LIKE '_rs'");
  EXPECT_EQ(rs2.rows[0][0].asInt(), 3);
  const ResultSet rs3 = sql_.exec("SELECT COUNT(*) FROM runs WHERE app NOT LIKE 'i%'");
  EXPECT_EQ(rs3.rows[0][0].asInt(), 3);
}

TEST_F(ExecutorTest, InList) {
  const ResultSet rs = sql_.exec("SELECT COUNT(*) FROM runs WHERE nprocs IN (8, 32)");
  EXPECT_EQ(rs.rows[0][0].asInt(), 4);
}

TEST_F(ExecutorTest, BetweenFilter) {
  const ResultSet rs = sql_.exec("SELECT COUNT(*) FROM runs WHERE seconds BETWEEN 60 AND 200");
  EXPECT_EQ(rs.rows[0][0].asInt(), 4);  // 120.5, 65.2, 180.0, 110.0
}

TEST_F(ExecutorTest, IsNullHandling) {
  sql_.exec("INSERT INTO runs (app, nprocs, seconds) VALUES ('nul', NULL, NULL)");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE nprocs IS NULL").rows[0][0].asInt(), 1);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE nprocs IS NOT NULL").rows[0][0].asInt(), 6);
  // Comparisons with NULL are false, so the row disappears from both sides.
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE nprocs = 0 OR nprocs <> 0")
                .rows[0][0].asInt(),
            6);
}

TEST_F(ExecutorTest, ArithmeticInProjection) {
  const ResultSet rs =
      sql_.exec("SELECT nprocs * 2, seconds / 2, nprocs + 1 - 1 FROM runs WHERE id = 1");
  EXPECT_EQ(rs.rows[0][0].asInt(), 16);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].asReal(), 60.25);
  EXPECT_EQ(rs.rows[0][2].asInt(), 8);
}

TEST_F(ExecutorTest, DivisionByZeroYieldsNull) {
  const ResultSet rs = sql_.exec("SELECT 1 / 0, 1.0 / 0");
  EXPECT_TRUE(rs.rows[0][0].isNull());
  EXPECT_TRUE(rs.rows[0][1].isNull());
}

TEST_F(ExecutorTest, UpdateChangesMatchingRows) {
  const ResultSet rs = sql_.exec("UPDATE runs SET seconds = seconds + 1 WHERE app = 'irs'");
  EXPECT_EQ(rs.rows_affected, 3);
  const ResultSet check = sql_.exec("SELECT seconds FROM runs WHERE id = 1");
  EXPECT_DOUBLE_EQ(check.rows[0][0].asReal(), 121.5);
}

TEST_F(ExecutorTest, DeleteRemovesMatchingRows) {
  const ResultSet rs = sql_.exec("DELETE FROM runs WHERE nprocs = 8");
  EXPECT_EQ(rs.rows_affected, 2);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs").rows[0][0].asInt(), 4);
}

TEST_F(ExecutorTest, InsertReportsLastInsertId) {
  const ResultSet rs = sql_.exec("INSERT INTO runs (app, nprocs, seconds) VALUES ('x', 1, 1.0)");
  EXPECT_EQ(rs.rows_affected, 1);
  EXPECT_EQ(rs.last_insert_id, 7);
}

TEST_F(ExecutorTest, IndexedLookupMatchesScanResults) {
  sql_.exec("CREATE INDEX runs_by_app ON runs (app)");
  const ResultSet with_index = sql_.exec("SELECT id FROM runs WHERE app = 'smg' ORDER BY id");
  sql_.setOption("use_indexes", false);
  const ResultSet without = sql_.exec("SELECT id FROM runs WHERE app = 'smg' ORDER BY id");
  ASSERT_EQ(with_index.rows.size(), without.rows.size());
  for (std::size_t i = 0; i < with_index.rows.size(); ++i) {
    EXPECT_EQ(with_index.rows[i][0].asInt(), without.rows[i][0].asInt());
  }
}

TEST_F(ExecutorTest, ExplainShowsIndexChoice) {
  sql_.exec("CREATE INDEX runs_by_app ON runs (app)");
  const ResultSet plan = sql_.exec("EXPLAIN SELECT * FROM runs WHERE app = 'irs'");
  const std::string text = planText(plan);
  EXPECT_NE(text.find("USING INDEX runs_by_app"), std::string::npos) << text;
  EXPECT_NE(text.find("PROJECT"), std::string::npos) << text;
  const ResultSet plan2 = sql_.exec("EXPLAIN SELECT * FROM runs WHERE seconds = 1.0");
  EXPECT_NE(planText(plan2).find("SCAN"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainShowsRangeScan) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  const ResultSet plan = sql_.exec("EXPLAIN SELECT * FROM runs WHERE nprocs > 8");
  EXPECT_NE(planText(plan).find("range"), std::string::npos);
}

TEST_F(ExecutorTest, PrimaryKeyLookupUsesIndex) {
  const ResultSet plan = sql_.exec("EXPLAIN SELECT * FROM runs WHERE id = 3");
  EXPECT_NE(planText(plan).find("USING INDEX runs__pk"), std::string::npos);
  const ResultSet rs = sql_.exec("SELECT app FROM runs WHERE id = 3");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "irs");
}

TEST_F(ExecutorTest, JoinUsesIndexOnInnerTable) {
  sql_.exec("CREATE TABLE apps (id INTEGER PRIMARY KEY, name TEXT)");
  sql_.exec("CREATE INDEX apps_by_name ON apps (name)");
  sql_.exec("INSERT INTO apps (name) VALUES ('irs'), ('smg')");
  const ResultSet plan =
      sql_.exec("EXPLAIN SELECT * FROM runs r JOIN apps a ON a.name = r.app");
  const std::string text = planText(plan);
  EXPECT_NE(text.find("NESTED LOOP JOIN (2 tables)"), std::string::npos) << text;
  EXPECT_NE(text.find("USING INDEX apps_by_name"), std::string::npos) << text;
}

TEST_F(ExecutorTest, ExplainShowsOperatorTree) {
  // The full pipeline, root first, two spaces of indent per level.
  const ResultSet plan = sql_.exec(
      "EXPLAIN SELECT app, COUNT(*) FROM runs GROUP BY app "
      "HAVING COUNT(*) > 1 ORDER BY app LIMIT 3");
  ASSERT_EQ(plan.columns, std::vector<std::string>{"plan"});
  ASSERT_EQ(plan.rows.size(), 4u);
  EXPECT_EQ(plan.rows[0][0].asText(), "LIMIT 3");
  EXPECT_EQ(plan.rows[1][0].asText(), "  SORT BY 1 key (TOP-K 3)");
  EXPECT_EQ(plan.rows[2][0].asText(),
            "    AGGREGATE (2 aggregates, 1 group key) HAVING");
  EXPECT_EQ(plan.rows[3][0].asText(), "      SCAN runs AS runs");
}

TEST_F(ExecutorTest, OrderByLimitUsesTopKHeap) {
  // Regression: ORDER BY ... LIMIT used to sort and materialize every row
  // and then slice; the Sort operator must instead keep a bounded heap of
  // offset+limit rows. Observable via the TOP-K marker in EXPLAIN.
  const ResultSet plan =
      sql_.exec("EXPLAIN SELECT id FROM runs ORDER BY seconds LIMIT 2 OFFSET 1");
  EXPECT_NE(planText(plan).find("SORT BY 1 key (TOP-K 3)"), std::string::npos)
      << planText(plan);
  // No LIMIT -> no bound.
  const ResultSet full = sql_.exec("EXPLAIN SELECT id FROM runs ORDER BY seconds");
  EXPECT_EQ(planText(full).find("TOP-K"), std::string::npos);

  // The heap path must agree with the sort-everything path, including ties
  // (stable order) and DESC keys.
  const ResultSet rs =
      sql_.exec("SELECT id FROM runs ORDER BY seconds LIMIT 2 OFFSET 1");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 2);  // 65.2 (40.1 skipped by OFFSET)
  EXPECT_EQ(rs.rows[1][0].asInt(), 6);  // 110.0
  const ResultSet desc =
      sql_.exec("SELECT id FROM runs ORDER BY nprocs DESC, id LIMIT 3");
  ASSERT_EQ(desc.rows.size(), 3u);
  EXPECT_EQ(desc.rows[0][0].asInt(), 3);
  EXPECT_EQ(desc.rows[1][0].asInt(), 6);
  EXPECT_EQ(desc.rows[2][0].asInt(), 2);
  // Ties on the sort key keep input order (stable), same as the full sort.
  const ResultSet ties = sql_.exec("SELECT id FROM runs ORDER BY app LIMIT 2");
  ASSERT_EQ(ties.rows.size(), 2u);
  EXPECT_EQ(ties.rows[0][0].asInt(), 1);
  EXPECT_EQ(ties.rows[1][0].asInt(), 2);
  // LIMIT 0 keeps nothing but still executes cleanly.
  EXPECT_EQ(sql_.exec("SELECT id FROM runs ORDER BY app LIMIT 0").rows.size(), 0u);
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  const ResultSet rs = sql_.exec("SELECT 1 + 1 AS two, 'x'");
  EXPECT_EQ(rs.rows[0][0].asInt(), 2);
  EXPECT_EQ(rs.rows[0][1].asText(), "x");
}

TEST_F(ExecutorTest, ErrorsOnUnknownColumnsAndTables) {
  EXPECT_THROW(sql_.exec("SELECT nope FROM runs"), util::SqlError);
  EXPECT_THROW(sql_.exec("SELECT * FROM missing"), util::SqlError);
  EXPECT_THROW(sql_.exec("INSERT INTO runs (bogus) VALUES (1)"), util::SqlError);
}

TEST_F(ExecutorTest, AmbiguousColumnRejected) {
  sql_.exec("CREATE TABLE other (id INTEGER PRIMARY KEY, app TEXT)");
  EXPECT_THROW(sql_.exec("SELECT app FROM runs r JOIN other o ON r.id = o.id"),
               util::SqlError);
}

TEST_F(ExecutorTest, ResultSetToTextRendersAllRows) {
  const ResultSet rs = sql_.exec("SELECT app, nprocs FROM runs WHERE id <= 2 ORDER BY id");
  const std::string text = rs.toText();
  EXPECT_NE(text.find("app"), std::string::npos);
  EXPECT_NE(text.find("irs"), std::string::npos);
  EXPECT_NE(text.find("16"), std::string::npos);
}

/// UPDATE and DELETE find their rows through the SELECT planner's access
/// paths. Each case runs once in autocommit and once inside BEGIN ...
/// ROLLBACK (the parameter), where the rollback must restore every row.
class DmlAccessPathTest : public ::testing::TestWithParam<bool> {
 protected:
  DmlAccessPathTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)");
    sql_.exec("CREATE INDEX t_by_k ON t (k)");
    sql_.exec("INSERT INTO t (k, v) VALUES (1, 'a'), (1, 'b'), (2, 'c'), (2, 'd'), "
              "(3, 'e'), (4, 'f'), (5, 'g')");
    original_ = contents();
  }

  void SetUp() override {
    if (GetParam()) db_->begin();
  }

  void TearDown() override {
    if (!GetParam()) return;
    db_->rollback();
    EXPECT_EQ(contents(), original_);
  }

  std::vector<Row> contents() { return sql_.exec("SELECT id, k, v FROM t ORDER BY id").rows; }

  std::vector<std::int64_t> column(const std::string& sql) {
    std::vector<std::int64_t> out;
    for (const Row& row : sql_.exec(sql).rows) out.push_back(row[0].asInt());
    return out;
  }

  std::string explain(const std::string& sql) { return planText(sql_.exec("EXPLAIN " + sql)); }

  std::unique_ptr<Database> db_;
  Engine sql_;
  std::vector<Row> original_;
};

TEST_P(DmlAccessPathTest, RangeUpdateOfTheKeyChangesEachMatchOnce) {
  EXPECT_NE(explain("UPDATE t SET k = k + 100 WHERE k >= 2").find("t_by_k (k range)"),
            std::string::npos);
  PreparedStatement stmt = sql_.prepare("UPDATE t SET k = k + 100 WHERE k >= ?");
  // Moved keys land inside the scanned range: they must not be seen again.
  EXPECT_EQ(stmt.execute({Value(2)}).rows_affected, 5);
  EXPECT_EQ(column("SELECT k FROM t ORDER BY id"),
            (std::vector<std::int64_t>{1, 1, 102, 102, 103, 104, 105}));
}

TEST_P(DmlAccessPathTest, PrimaryKeyUpdateMovesTheRowOnce) {
  EXPECT_NE(explain("UPDATE t SET id = id + 1000 WHERE id = 3")
                .find("SEARCH t AS t USING INDEX t__pk (id=?)"),
            std::string::npos);
  PreparedStatement stmt = sql_.prepare("UPDATE t SET id = id + 1000 WHERE id = ?");
  EXPECT_EQ(stmt.execute({Value(3)}).rows_affected, 1);
  EXPECT_EQ(column("SELECT id FROM t ORDER BY id"),
            (std::vector<std::int64_t>{1, 2, 4, 5, 6, 7, 1003}));
  EXPECT_EQ(column("SELECT k FROM t WHERE id = 1003"), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(stmt.execute({Value(3)}).rows_affected, 0);
}

TEST_P(DmlAccessPathTest, InListUpdateOnAnIntegerKeyUsesPostings) {
  EXPECT_NE(explain("UPDATE t SET k = k + 10 WHERE k IN (1, 3, 1)")
                .find("USING POSTING INDEX (k IN posting-list probe, 3 keys)"),
            std::string::npos);
  PreparedStatement stmt = sql_.prepare("UPDATE t SET k = k + 10 WHERE k IN (?, ?, ?)");
  EXPECT_EQ(stmt.execute({Value(1), Value(3), Value(1)}).rows_affected, 3);
  EXPECT_EQ(column("SELECT k FROM t ORDER BY id"),
            (std::vector<std::int64_t>{11, 11, 2, 2, 13, 4, 5}));
}

TEST_P(DmlAccessPathTest, DeleteWithDuplicateInListKeysDeletesEachRowOnce) {
  const ResultSet rs = sql_.exec("DELETE FROM t WHERE k IN (1, 1, 2)");
  EXPECT_EQ(rs.rows_affected, 4);
  EXPECT_EQ(column("SELECT id FROM t ORDER BY id"), (std::vector<std::int64_t>{5, 6, 7}));
  EXPECT_EQ(sql_.exec("DELETE FROM t WHERE k IN (1, 1, 2)").rows_affected, 0);
}

TEST_P(DmlAccessPathTest, ExplainOfDmlDescribesTheAccessPathAndChangesNothing) {
  const ResultSet del = sql_.exec("EXPLAIN DELETE FROM t WHERE id = 2");
  EXPECT_EQ(del.columns, (std::vector<std::string>{"plan"}));
  EXPECT_EQ(del.rows_affected, 0);
  // The probe answers `id = 2` itself, so no FILTER re-applies it.
  EXPECT_EQ(planText(del), "SEARCH t AS t USING INDEX t__pk (id=?)\n");
  PreparedStatement upd = sql_.prepare("EXPLAIN UPDATE t SET v = ? WHERE id = ?");
  const ResultSet plan = upd.execute({Value("z"), Value(2)});
  EXPECT_EQ(planText(plan), "SEARCH t AS t USING INDEX t__pk (id=?)\n");
  // A cursor steps the same lines.
  upd.bindAll({Value("z"), Value(2)});
  Cursor cur = upd.openCursor();
  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asText(), plan.rows[0][0].asText());
  cur.close();
  EXPECT_EQ(explain("DELETE FROM t WHERE v = 'a'"), "FILTER (1 conjunct)\n  SCAN t AS t\n");
  EXPECT_EQ(explain("DELETE FROM t WHERE k = 1 AND v = 'a'"),
            "FILTER (1 conjunct)\n  SEARCH t AS t USING INDEX t_by_k (k=?)\n");
  EXPECT_EQ(contents(), original_);

  EXPECT_THROW(sql_.exec("EXPLAIN INSERT INTO t (k) VALUES (1)"), util::SqlError);
  EXPECT_THROW(sql_.exec("EXPLAIN CREATE INDEX t_by_v ON t (v)"), util::SqlError);
  EXPECT_THROW(sql_.exec("EXPLAIN DROP TABLE t"), util::SqlError);
  EXPECT_THROW(sql_.exec("EXPLAIN COMMIT"), util::SqlError);
  EXPECT_THROW(sql_.exec("EXPLAIN ANALYZE UPDATE t SET k = 0"), util::SqlError);
  EXPECT_EQ(contents(), original_);
}

INSTANTIATE_TEST_SUITE_P(AutocommitAndRollback, DmlAccessPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "InRolledBackTxn" : "Autocommit";
                         });

// --- name resolution ---------------------------------------------------------
// A prepared INSERT resolves its table and column ordinals once and keeps
// them until the schema epoch moves; the storage layer then walks the
// table's index list without any lookup by name.

class NameResolutionTest : public ::testing::Test {
 protected:
  NameResolutionTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE performance_result (id INTEGER PRIMARY KEY, "
              "execution_id INTEGER, metric_id INTEGER, value REAL)");
    sql_.exec("CREATE INDEX pr_by_execution ON performance_result (execution_id)");
  }

  static std::uint64_t revalidations() {
    return obs::Registry::global().counter("pt_plan_revalidations_total").value();
  }

  std::int64_t count(const std::string& where) {
    return sql_.exec("SELECT COUNT(*) FROM performance_result WHERE " + where)
        .rows.at(0)
        .at(0)
        .asInt();
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

TEST_F(NameResolutionTest, MixedCaseNamesResolveAndErrorsKeepTheDeclaredSpelling) {
  PreparedStatement ins = sql_.prepare(
      "INSERT INTO Performance_Result (Execution_ID, METRIC_id, Value) VALUES (?, ?, ?)");
  for (int i = 0; i < 3; ++i) ins.execute({Value(7), Value(i), Value(0.5 * i)});
  sql_.exec("UPDATE PERFORMANCE_RESULT SET VALUE = 9.5 WHERE Execution_Id = 7 AND metric_id = 0");
  const ResultSet rs = sql_.exec(
      "SELECT Metric_Id, VALUE FROM PERFORMANCE_RESULT WHERE Execution_Id = 7 ORDER BY metric_id");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].asReal(), 9.5);
  EXPECT_EQ(rs.rows[2][0].asInt(), 2);
  EXPECT_DOUBLE_EQ(rs.rows[2][1].asReal(), 1.0);
  EXPECT_EQ(db_->catalog().findTable("PERFORMANCE_RESULT")->name, "performance_result");
  EXPECT_EQ(db_->catalog().findIndex("PR_By_Execution")->name, "pr_by_execution");

  try {
    sql_.exec("INSERT INTO PERFORMANCE_RESULT (NoSuch) VALUES (1)");
    FAIL() << "unknown column accepted";
  } catch (const util::SqlError& e) {
    EXPECT_STREQ(e.what(), "no column 'NoSuch' in performance_result");
  }
  try {
    db_->insertRow("Performance_Result", {Value(1)});
    FAIL() << "short row accepted";
  } catch (const util::StorageError& e) {
    EXPECT_STREQ(e.what(), "insertRow: expected 4 values for performance_result, got 1");
  }
  EXPECT_TRUE(db_->verifyIntegrity().empty());
}

TEST_F(NameResolutionTest, PreparedInsertFeedsAnIndexCreatedAfterItsFirstRun) {
  PreparedStatement ins = sql_.prepare(
      "INSERT INTO performance_result (execution_id, metric_id, value) VALUES (?, ?, ?)");
  ins.execute({Value(1), Value(10), Value(1.0)});
  sql_.exec("CREATE INDEX pr_by_metric ON performance_result (metric_id)");
  ins.execute({Value(1), Value(11), Value(2.0)});
  ins.execute({Value(2), Value(11), Value(3.0)});
  EXPECT_TRUE(db_->verifyIntegrity().empty());
  int hits = 0;
  db_->indexScanEqual(*db_->catalog().findIndex("pr_by_metric"), {Value(11)},
                      [&](RecordId, const Row&) { return ++hits, true; });
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(count("metric_id = 10"), 1);
}

TEST_F(NameResolutionTest, PreparedInsertReresolvesAfterARolledBackCreateIndex) {
  PreparedStatement ins = sql_.prepare(
      "INSERT INTO performance_result (execution_id, metric_id, value) VALUES (?, ?, ?)");
  ins.execute({Value(1), Value(10), Value(1.0)});
  sql_.exec("BEGIN");
  sql_.exec("CREATE INDEX pr_by_metric ON performance_result (metric_id)");
  ins.execute({Value(1), Value(11), Value(2.0)});
  // The rollback reloads the catalog, freeing every TableDef resolved before
  // it; the next execution must resolve afresh (ASan catches a stale one).
  sql_.exec("ROLLBACK");
  ins.execute({Value(1), Value(12), Value(3.0)});
  EXPECT_EQ(db_->catalog().findIndex("pr_by_metric"), nullptr);
  EXPECT_TRUE(db_->verifyIntegrity().empty());
  EXPECT_EQ(count("execution_id = 1"), 2);
  EXPECT_EQ(count("metric_id = 11"), 0);
}

TEST_F(NameResolutionTest, PreparedInsertFollowsColumnsReorderedByRecreate) {
  PreparedStatement ins = sql_.prepare("INSERT INTO pairs (a, b) VALUES (?, ?)");
  sql_.exec("CREATE TABLE pairs (a INTEGER, b TEXT)");
  ins.execute({Value(1), Value("one")});
  sql_.exec("DROP TABLE pairs");
  EXPECT_THROW(ins.execute({Value(0), Value("none")}), util::SqlError);
  sql_.exec("CREATE TABLE pairs (b TEXT, extra INTEGER, a INTEGER)");
  ins.execute({Value(2), Value("two")});
  const ResultSet rs = sql_.exec("SELECT b, extra, a FROM pairs");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "two");
  EXPECT_TRUE(rs.rows[0][1].isNull());
  EXPECT_EQ(rs.rows[0][2].asInt(), 2);
}

TEST_F(NameResolutionTest, OnlySchemaChangesCountAsRevalidations) {
  PreparedStatement ins = sql_.prepare(
      "INSERT INTO performance_result (execution_id, metric_id, value) VALUES (?, ?, ?)");
  ins.execute({Value(0), Value(0), Value(0.0)});  // the first resolve is no revalidation
  const std::uint64_t before = revalidations();
  for (int i = 1; i <= 1000; ++i) ins.execute({Value(i), Value(i), Value(0.0)});
  EXPECT_EQ(revalidations(), before);
  sql_.exec("CREATE INDEX pr_by_metric ON performance_result (metric_id)");
  for (int i = 0; i < 10; ++i) ins.execute({Value(i), Value(i), Value(1.0)});
  EXPECT_EQ(revalidations(), before + 1);
  EXPECT_TRUE(db_->verifyIntegrity().empty());
}

/// One expression, one answer: every position the SQL layer evaluates an
/// expression in gives the same value (or the same error) for the same row.
/// Over `t`, both rows have a NULL `n` and a TEXT `s`, so `s + 1` fails
/// wherever it is reached.
class EvaluatorAgreementTest : public ::testing::Test {
 protected:
  EvaluatorAgreementTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, s TEXT, v INTEGER)");
    sql_.exec("INSERT INTO t (id, n, s) VALUES (1, NULL, 'a'), (2, NULL, 'b')");
    sql_.exec("CREATE TABLE one (k INTEGER)");
    sql_.exec("INSERT INTO one VALUES (1)");
  }

  /// One position's answer over the rows of t, in id order: whether the
  /// expression held ("1 0") and, where the position yields the value
  /// itself, the typed values ("i1 NULL"); or, in both, the error.
  struct Answer {
    std::string truth;
    std::string values;
  };

  template <class Fn>
  static Answer answer(Fn&& fn) {
    try {
      return fn();
    } catch (const std::exception& e) {
      const std::string error = std::string("error: ") + e.what();
      return {error, error};
    }
  }

  /// A filter position's answer from the ids it listed: the ids it kept, or
  /// with `removed` the ids that survived its removal.
  static Answer filtered(const ResultSet& rs, bool removed = false) {
    Answer a;
    for (std::int64_t id = 1; id <= 2; ++id) {
      bool listed = false;
      for (const Row& row : rs.rows) listed = listed || row.at(0).asInt() == id;
      a.truth += std::string(a.truth.empty() ? "" : " ") + (listed != removed ? "1" : "0");
    }
    return a;
  }

  /// A value position's answer from its `id, value` rows.
  static Answer valued(const ResultSet& rs) {
    Answer a;
    for (const Row& row : rs.rows) {
      const Value& v = row.at(1);
      const std::string sep = a.truth.empty() ? "" : " ";
      a.truth += sep + (!v.isNull() && v.compare(Value(0)) != 0 ? "1" : "0");
      a.values += sep + (v.isNull()  ? "NULL"
                         : v.isInt() ? "i" + v.toDisplayString()
                         : v.isReal() ? "r" + v.toDisplayString()
                                      : "'" + v.asText() + "'");
    }
    return a;
  }

  /// Runs `dml` in a transaction that is always rolled back, returning what
  /// `read` saw in between.
  ResultSet inRolledBackTxn(const std::string& dml, const std::string& read) {
    db_->begin();
    try {
      sql_.exec(dml);
      ResultSet rs = sql_.exec(read);
      db_->rollback();
      return rs;
    } catch (...) {
      db_->rollback();
      throw;
    }
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

TEST_F(EvaluatorAgreementTest, EveryPositionGivesTheSameAnswer) {
  struct Case {
    const char* expr;
    const char* truth;  // per row of t, or an error message prefix
  };
  const Case cases[] = {
      {"1 IN (1, s + 1)", "1 1"},           // stops at the first match
      {"n IN (1, s + 1)", "0 0"},           // NULL left side: no item is evaluated
      {"id = 0 AND s + 1 = 2", "0 0"},      // AND never reaches the right side
      {"id > 0 OR s + 1 = 2", "1 1"},       // OR never reaches the right side
      {"id > 0 AND s + 1 = 2", "error: "},  // reached: fails everywhere alike
      {"id LIKE '1%'", "1 0"},              // LIKE on an integer reads its text
      {"n IS NULL", "1 1"},
      {"s IS NULL", "0 0"},
      {"id / 0", "0 0"},  // division by zero is NULL
      {"(id / 0) IS NULL", "1 1"},
      {"id IN (SELECT id FROM t WHERE id > 1)", "0 1"},
      {"id NOT IN (SELECT id FROM t WHERE id > 1)", "1 0"},
  };
  for (const Case& c : cases) {
    const std::string e = c.expr;
    const Answer where = answer([&] { return filtered(sql_.exec("SELECT id FROM t WHERE " + e)); });
    const Answer join =
        answer([&] { return filtered(sql_.exec("SELECT t.id FROM one, t WHERE " + e)); });
    const Answer output =
        answer([&] { return valued(sql_.exec("SELECT id, " + e + " FROM t ORDER BY id")); });
    const Answer having = answer(
        [&] { return filtered(sql_.exec("SELECT id FROM t GROUP BY id HAVING " + e)); });
    const Answer del = answer([&] {
      return filtered(inRolledBackTxn("DELETE FROM t WHERE " + e, "SELECT id FROM t"),
                      /*removed=*/true);
    });
    const Answer update = answer([&] {
      return valued(inRolledBackTxn("UPDATE t SET v = " + e, "SELECT id, v FROM t ORDER BY id"));
    });

    EXPECT_EQ(where.truth.rfind(c.truth, 0), 0u) << e << " -> " << where.truth;
    EXPECT_EQ(join.truth, where.truth) << e << ": inner-join WHERE vs top-level WHERE";
    EXPECT_EQ(output.truth, where.truth) << e << ": output column vs top-level WHERE";
    EXPECT_EQ(having.truth, where.truth) << e << ": HAVING vs top-level WHERE";
    EXPECT_EQ(del.truth, where.truth) << e << ": DELETE ... WHERE vs top-level WHERE";
    EXPECT_EQ(update.truth, where.truth) << e << ": UPDATE ... SET vs top-level WHERE";
    EXPECT_EQ(update.values, output.values) << e << ": UPDATE ... SET vs output column";
  }
  // Every rollback restored the table.
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].asInt(), 2);
}

TEST_F(EvaluatorAgreementTest, ArithmeticOnTextIsASqlErrorNamingTheOperator) {
  for (const char* op : {"+", "-", "*", "/"}) {
    try {
      sql_.exec(std::string("SELECT s ") + op + " 1 FROM t");
      ADD_FAILURE() << "no error for " << op;
    } catch (const util::SqlError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + op + "'"), std::string::npos)
          << e.what();
    }
  }
  // A NULL operand still makes the result NULL before the type is looked at.
  EXPECT_TRUE(sql_.exec("SELECT n + s FROM t").rows[0][0].isNull());
}

TEST_F(EvaluatorAgreementTest, InsertOfAColumnRefIsAnUnknownColumn) {
  sql_.exec("CREATE TABLE u (a INTEGER, b INTEGER)");
  for (const char* values : {"(3, k)", "(3, k + 1)", "(3, -(k))"}) {
    try {
      sql_.exec(std::string("INSERT INTO u VALUES ") + values);
      ADD_FAILURE() << "no error for " << values;
    } catch (const util::SqlError& e) {
      EXPECT_STREQ(e.what(), "unknown column: k") << values;
    }
  }
  EXPECT_THROW(sql_.prepare("INSERT INTO u VALUES (?, u.b)").execute({Value(1)}),
               util::SqlError);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM u").rows[0][0].asInt(), 0);
}

/// A fully aggregated SELECT over no input rows yields one row: every
/// output is evaluated over the empty group, where column refs read NULL
/// and aggregates their empty state. The parallel merge shares the path.
TEST_F(EvaluatorAgreementTest, EmptyInputAggregateRowEvaluatesEveryOutput) {
  PreparedStatement ins = sql_.prepare("INSERT INTO t (id, n, s) VALUES (?, ?, 'x')");
  for (int i = 3; i <= 3000; ++i) ins.execute({Value(i), Value(i)});
  sql_.setOption("exec_min_pages", 1);
  const std::string query =
      "SELECT 7, 1 + 1, -3, count(*), id, sum(n) + 1, id IS NULL FROM t WHERE id > 5000";
  for (const int threads : {1, 4}) {
    sql_.setOption("exec_threads", threads);
    const std::string plan = planText(sql_.exec("EXPLAIN " + query));
    EXPECT_EQ(plan.find("GATHER") != std::string::npos, threads > 1) << plan;
    const ResultSet rs = sql_.exec(query);
    ASSERT_EQ(rs.rows.size(), 1u) << threads;
    const Row& row = rs.rows[0];
    EXPECT_EQ(row[0].asInt(), 7);
    EXPECT_EQ(row[1].asInt(), 2) << "same as over a non-empty input";
    EXPECT_EQ(row[2].asInt(), -3);
    EXPECT_EQ(row[3].asInt(), 0);
    EXPECT_TRUE(row[4].isNull());
    EXPECT_TRUE(row[5].isNull());
    EXPECT_EQ(row[6].asInt(), 1);
    // A bound parameter output keeps its value.
    const ResultSet bound =
        sql_.prepare("SELECT ?, count(*) FROM t WHERE id > 5000").execute({Value("p")});
    ASSERT_EQ(bound.rows.size(), 1u);
    EXPECT_EQ(bound.rows[0][0].asText(), "p");
    // HAVING applies to the empty group like to any other.
    EXPECT_TRUE(
        sql_.exec("SELECT count(*) FROM t WHERE id > 5000 HAVING count(*) > 0").rows.empty());
    EXPECT_EQ(sql_.exec("SELECT count(*) FROM t WHERE id > 5000 HAVING count(*) = 0")
                  .rows.size(),
              1u);
  }
}

}  // namespace
}  // namespace perftrack::minidb::sql
