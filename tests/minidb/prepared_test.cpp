// Prepared statements: '?' parameters, bind/rebind semantics, plan caching
// with epoch revalidation, and the IN-list multi-point probe access path.
#include "minidb/sql/executor.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

using util::SqlError;

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

class PreparedTest : public ::testing::Test {
 protected:
  PreparedTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, app TEXT, nprocs INTEGER, "
              "seconds REAL)");
    sql_.exec("INSERT INTO runs (app, nprocs, seconds) VALUES "
              "('irs', 8, 120.5), ('irs', 16, 65.2), ('irs', 32, 40.1), "
              "('smg', 8, 300.0), ('smg', 16, 180.0), ('smg', 32, 110.0)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

TEST_F(PreparedTest, BindExecuteAndRebind) {
  PreparedStatement stmt = sql_.prepare("SELECT nprocs FROM runs WHERE app = ?");
  EXPECT_EQ(stmt.paramCount(), 1);
  stmt.bind(1, Value("irs"));
  EXPECT_EQ(stmt.execute().rows.size(), 3u);
  // Rebinding replaces the old value; no re-parse happens.
  stmt.bind(1, Value("smg"));
  EXPECT_EQ(stmt.execute().rows.size(), 3u);
  stmt.bind(1, Value("nosuch"));
  EXPECT_EQ(stmt.execute().rows.size(), 0u);
}

TEST_F(PreparedTest, BindingsPersistAcrossExecutions) {
  PreparedStatement stmt =
      sql_.prepare("SELECT id FROM runs WHERE app = ? AND nprocs >= ?");
  stmt.bindAll({Value("smg"), Value(16)});
  EXPECT_EQ(stmt.execute().rows.size(), 2u);
  EXPECT_EQ(stmt.execute().rows.size(), 2u);  // same bindings, same answer
}

TEST_F(PreparedTest, ExecuteWithParamsIsBindAllPlusExecute) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs WHERE nprocs = ?");
  EXPECT_EQ(stmt.execute({Value(8)}).rows.size(), 2u);
  EXPECT_EQ(stmt.execute({Value(32)}).rows.size(), 2u);
}

TEST_F(PreparedTest, BindIndexOutOfRangeThrows) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs WHERE app = ?");
  EXPECT_THROW(stmt.bind(0, Value("irs")), SqlError);
  EXPECT_THROW(stmt.bind(2, Value("irs")), SqlError);
}

TEST_F(PreparedTest, BindAllSizeMismatchThrows) {
  PreparedStatement stmt =
      sql_.prepare("SELECT id FROM runs WHERE app = ? AND nprocs = ?");
  EXPECT_THROW(stmt.bindAll({Value("irs")}), SqlError);
  EXPECT_THROW(stmt.bindAll({Value("irs"), Value(8), Value(9)}), SqlError);
}

TEST_F(PreparedTest, ExecuteWithUnboundParameterThrows) {
  PreparedStatement stmt =
      sql_.prepare("SELECT id FROM runs WHERE app = ? AND nprocs = ?");
  EXPECT_THROW(stmt.execute(), SqlError);
  stmt.bind(1, Value("irs"));
  EXPECT_THROW(stmt.execute(), SqlError);  // param 2 still unbound
  stmt.bind(2, Value(8));
  EXPECT_EQ(stmt.execute().rows.size(), 1u);
}

TEST_F(PreparedTest, ClearBindingsRequiresRebind) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs WHERE app = ?");
  stmt.bind(1, Value("irs"));
  EXPECT_EQ(stmt.execute().rows.size(), 3u);
  stmt.clearBindings();
  EXPECT_THROW(stmt.execute(), SqlError);
}

TEST_F(PreparedTest, NullParameterIsALegalBinding) {
  // NULL never compares equal (SQL three-valued logic), so = ? with a NULL
  // binding matches nothing — but executing must not throw.
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs WHERE app = ?");
  stmt.bind(1, Value::null());
  EXPECT_EQ(stmt.execute().rows.size(), 0u);

  // And NULL can be stored through a parameter.
  PreparedStatement ins =
      sql_.prepare("INSERT INTO runs (app, nprocs, seconds) VALUES (?, ?, ?)");
  ins.execute({Value::null(), Value(64), Value(1.0)});
  EXPECT_EQ(sql_.exec("SELECT id FROM runs WHERE app IS NULL").rows.size(), 1u);
}

TEST_F(PreparedTest, ExecRejectsParameterizedSql) {
  EXPECT_THROW(sql_.exec("SELECT id FROM runs WHERE app = ?"), SqlError);
}

TEST_F(PreparedTest, RepeatedParameterizedInsert) {
  PreparedStatement ins =
      sql_.prepare("INSERT INTO runs (app, nprocs, seconds) VALUES (?, ?, ?)");
  for (int np : {64, 128, 256}) {
    const ResultSet rs = ins.execute({Value("sweep"), Value(np), Value(np * 0.5)});
    EXPECT_EQ(rs.rows_affected, 1);
    EXPECT_GT(rs.last_insert_id, 6);
  }
  EXPECT_EQ(sql_.exec("SELECT id FROM runs WHERE app = 'sweep'").rows.size(), 3u);
}

TEST_F(PreparedTest, CachedPlanRevalidatesAfterDdl) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs WHERE app = ?");
  stmt.bind(1, Value("irs"));
  EXPECT_EQ(stmt.execute().rows.size(), 3u);  // plan built: heap scan
  sql_.exec("CREATE INDEX runs_by_app ON runs (app)");
  // Schema epoch bumped -> the statement replans instead of reusing a plan
  // that predates the index (or, worse, one holding stale catalog pointers).
  EXPECT_EQ(stmt.execute().rows.size(), 3u);
  sql_.exec("DROP INDEX runs_by_app");
  EXPECT_EQ(stmt.execute().rows.size(), 3u);
}

TEST_F(PreparedTest, ExplainThroughPreparedReflectsIndexToggle) {
  sql_.exec("CREATE INDEX runs_by_app ON runs (app)");
  PreparedStatement stmt = sql_.prepare("EXPLAIN SELECT id FROM runs WHERE app = ?");
  stmt.bind(1, Value("irs"));
  EXPECT_NE(planText(stmt.execute()).find("USING INDEX runs_by_app"),
            std::string::npos);
  sql_.setOption("use_indexes", false);
  // The cached plan was built under use_indexes=true; it must be rebuilt.
  const std::string scan_plan = planText(stmt.execute());
  EXPECT_NE(scan_plan.find("SCAN runs AS runs"), std::string::npos);
  EXPECT_EQ(scan_plan.find("USING INDEX"), std::string::npos);
  sql_.setOption("use_indexes", true);
  EXPECT_NE(planText(stmt.execute()).find("USING INDEX"), std::string::npos);
}

// --- IN-list multi-point probe access path ---------------------------------

TEST_F(PreparedTest, ExplainInListUsesMultiPointProbe) {
  // Pin the inverted-index path off: this test documents the B-tree probe
  // (the posting-path twin lives in invidx_test.cpp).
  sql_.setOption("invidx", false);
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  const ResultSet rs =
      sql_.exec("EXPLAIN SELECT id FROM runs WHERE nprocs IN (8, 32, 99)");
  const std::string plan = planText(rs);
  EXPECT_NE(plan.find("USING INDEX runs_by_np"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IN multi-point probe, 3 keys"), std::string::npos) << plan;
}

TEST_F(PreparedTest, ExplainInListFallsBackToScanWithoutIndexes) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  sql_.setOption("use_indexes", false);
  const ResultSet rs =
      sql_.exec("EXPLAIN SELECT id FROM runs WHERE nprocs IN (8, 32)");
  EXPECT_NE(planText(rs).find("SCAN runs AS runs"), std::string::npos);
  EXPECT_EQ(planText(rs).find("USING INDEX"), std::string::npos);
}

TEST_F(PreparedTest, NegatedInListIsNotProbed) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  const ResultSet rs =
      sql_.exec("EXPLAIN SELECT id FROM runs WHERE nprocs NOT IN (8, 32)");
  EXPECT_NE(planText(rs).find("SCAN runs AS runs"), std::string::npos);
  EXPECT_EQ(planText(rs).find("USING INDEX"), std::string::npos);
}

TEST_F(PreparedTest, EqualityBeatsInListWhenBothApply) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  const ResultSet rs = sql_.exec(
      "EXPLAIN SELECT id FROM runs WHERE nprocs IN (8, 16, 32) AND nprocs = 16");
  EXPECT_NE(planText(rs).find("(nprocs=?)"), std::string::npos);
}

TEST_F(PreparedTest, InListProbeMatchesHeapScanResults) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  const char* q = "SELECT id FROM runs WHERE nprocs IN (8, 32) ORDER BY id";
  const ResultSet indexed = sql_.exec(q);
  sql_.setOption("use_indexes", false);
  const ResultSet scanned = sql_.exec(q);
  ASSERT_EQ(indexed.rows.size(), 4u);
  ASSERT_EQ(scanned.rows.size(), indexed.rows.size());
  for (std::size_t i = 0; i < indexed.rows.size(); ++i) {
    EXPECT_EQ(indexed.rows[i][0].asInt(), scanned.rows[i][0].asInt());
  }
}

TEST_F(PreparedTest, InListProbeDedupsAndIgnoresNullKeys) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  // Duplicate keys must not duplicate rows; NULL list items match nothing.
  const ResultSet rs = sql_.exec(
      "SELECT id FROM runs WHERE nprocs IN (8, 8, NULL, 8) ORDER BY id");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(PreparedTest, InListProbeWithBoundParameters) {
  sql_.exec("CREATE INDEX runs_by_np ON runs (nprocs)");
  PreparedStatement stmt =
      sql_.prepare("SELECT id FROM runs WHERE nprocs IN (?, ?) ORDER BY id");
  EXPECT_EQ(stmt.execute({Value(8), Value(32)}).rows.size(), 4u);
  EXPECT_EQ(stmt.execute({Value(16), Value(16)}).rows.size(), 2u);
  EXPECT_EQ(stmt.execute({Value(7), Value(9)}).rows.size(), 0u);
}

TEST_F(PreparedTest, InListProbeOnJoinColumn) {
  sql_.setOption("invidx", false);  // assert the B-tree probe shape specifically
  sql_.exec("CREATE TABLE tags (run_id INTEGER, tag TEXT)");
  sql_.exec("CREATE INDEX tags_by_run ON tags (run_id)");
  sql_.exec("INSERT INTO tags VALUES (1, 'a'), (2, 'b'), (4, 'c'), (4, 'd')");
  const ResultSet plan = sql_.exec(
      "EXPLAIN SELECT t.tag FROM tags t WHERE t.run_id IN (1, 4)");
  EXPECT_NE(planText(plan).find("multi-point probe"), std::string::npos);
  const ResultSet rs = sql_.exec(
      "SELECT t.tag FROM tags t WHERE t.run_id IN (1, 4) ORDER BY t.tag");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].asText(), "a");
  EXPECT_EQ(rs.rows[2][0].asText(), "d");
}

}  // namespace
}  // namespace perftrack::minidb::sql
