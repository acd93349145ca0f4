// Tests for the extended SQL features: LEFT JOIN, IN (SELECT ...) and VACUUM.
#include <gtest/gtest.h>

#include "minidb/sql/executor.h"
#include "util/error.h"
#include "util/tempdir.h"

namespace perftrack::minidb::sql {
namespace {

class SqlFeaturesTest : public ::testing::Test {
 protected:
  SqlFeaturesTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE machines (id INTEGER PRIMARY KEY, name TEXT, os TEXT)");
    sql_.exec("INSERT INTO machines (name, os) VALUES "
              "('frost', 'AIX'), ('mcr', 'Linux'), ('bgl', 'CNK')");
    sql_.exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, machine TEXT, secs REAL)");
    sql_.exec("INSERT INTO runs (machine, secs) VALUES "
              "('frost', 10.0), ('frost', 12.0), ('mcr', 5.0)");
    // bgl has machines row but no runs; 'ghost' runs have no machines row.
    sql_.exec("INSERT INTO runs (machine, secs) VALUES ('ghost', 1.0)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

// --- LEFT JOIN ---------------------------------------------------------------

TEST_F(SqlFeaturesTest, LeftJoinNullExtendsUnmatchedRows) {
  const ResultSet rs = sql_.exec(
      "SELECT m.name, r.secs FROM machines m LEFT JOIN runs r "
      "ON m.name = r.machine ORDER BY m.name, r.secs");
  // frost x2, mcr x1, bgl x1 (null-extended) = 4 rows.
  ASSERT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.rows[0][0].asText(), "bgl");
  EXPECT_TRUE(rs.rows[0][1].isNull());
  EXPECT_EQ(rs.rows[1][0].asText(), "frost");
  EXPECT_DOUBLE_EQ(rs.rows[1][1].asReal(), 10.0);
}

TEST_F(SqlFeaturesTest, LeftJoinFindsRowsWithoutPartners) {
  // The canonical "which machines have no runs" query.
  const ResultSet rs = sql_.exec(
      "SELECT m.name FROM machines m LEFT JOIN runs r ON m.name = r.machine "
      "WHERE r.id IS NULL");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "bgl");
}

TEST_F(SqlFeaturesTest, InnerJoinStillDropsUnmatched) {
  const ResultSet rs = sql_.exec(
      "SELECT m.name FROM machines m JOIN runs r ON m.name = r.machine");
  EXPECT_EQ(rs.rows.size(), 3u);  // no bgl row
}

TEST_F(SqlFeaturesTest, LeftJoinWhereAppliesAfterExtension) {
  // WHERE on the left table keeps filtering; WHERE on the right table
  // eliminates null-extended rows unless IS NULL.
  const ResultSet rs = sql_.exec(
      "SELECT m.name FROM machines m LEFT JOIN runs r ON m.name = r.machine "
      "WHERE m.os = 'CNK'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "bgl");
  const ResultSet rs2 = sql_.exec(
      "SELECT m.name FROM machines m LEFT JOIN runs r ON m.name = r.machine "
      "WHERE r.secs > 0");
  EXPECT_EQ(rs2.rows.size(), 3u);  // null secs fails the comparison
}

TEST(SqlLeftJoin, OnConjunctOverEarlierTablesDecidesMatchingNotSurvival) {
  // `a.v > 50` reads only the outer table, but as part of the ON clause it
  // decides whether b matches; an outer row failing it is null-extended,
  // never dropped. With and without an index on a.v (which must not become
  // a's access path either).
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "a.v indexed" : "a.v not indexed");
    auto db = Database::openMemory();
    Engine sql(*db);
    sql.exec("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)");
    sql.exec("INSERT INTO a VALUES (1, 10), (2, 60)");
    sql.exec("CREATE TABLE b (id INTEGER PRIMARY KEY)");
    sql.exec("INSERT INTO b VALUES (1), (2)");
    sql.exec("CREATE TABLE c (id INTEGER PRIMARY KEY)");
    sql.exec("INSERT INTO c VALUES (1), (2)");
    if (indexed) sql.exec("CREATE INDEX a_by_v ON a (v)");

    const ResultSet two = sql.exec(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON b.id = a.id AND a.v > 50 "
        "ORDER BY a.id");
    ASSERT_EQ(two.rows.size(), 2u);
    EXPECT_EQ(two.rows[0][0].asInt(), 1);
    EXPECT_TRUE(two.rows[0][1].isNull());
    EXPECT_EQ(two.rows[1][0].asInt(), 2);
    EXPECT_EQ(two.rows[1][1].asInt(), 2);

    // Three tables: c's ON conjunct reads only a and b.
    const ResultSet three = sql.exec(
        "SELECT a.id, b.id, c.id FROM a JOIN b ON b.id = a.id "
        "LEFT JOIN c ON c.id = b.id AND a.v + b.id > 60 ORDER BY a.id");
    ASSERT_EQ(three.rows.size(), 2u);
    EXPECT_EQ(three.rows[0][1].asInt(), 1);
    EXPECT_TRUE(three.rows[0][2].isNull());
    EXPECT_EQ(three.rows[1][2].asInt(), 2);

    // The conjunct filters at b's level, not under a's scan.
    std::string plan;
    for (const Row& row : sql.exec("EXPLAIN SELECT a.id, b.id FROM a LEFT JOIN b "
                                   "ON b.id = a.id AND a.v > 50")
                              .rows) {
      plan += row[0].asText() + "\n";
    }
    EXPECT_EQ(plan.find("a_by_v"), std::string::npos) << plan;
  }
}

TEST_F(SqlFeaturesTest, LeftJoinWithAggregates) {
  const ResultSet rs = sql_.exec(
      "SELECT m.name, COUNT(r.id) FROM machines m LEFT JOIN runs r "
      "ON m.name = r.machine GROUP BY m.name ORDER BY m.name");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].asText(), "bgl");
  EXPECT_EQ(rs.rows[0][1].asInt(), 0);  // COUNT ignores the NULL id
  EXPECT_EQ(rs.rows[1][1].asInt(), 2);  // frost
}

TEST_F(SqlFeaturesTest, LeftOuterJoinSynonym) {
  const ResultSet rs = sql_.exec(
      "SELECT COUNT(*) FROM machines m LEFT OUTER JOIN runs r ON m.name = r.machine");
  EXPECT_EQ(rs.rows[0][0].asInt(), 4);
}

TEST_F(SqlFeaturesTest, LeftJoinUsesIndexOnInnerTable) {
  sql_.exec("CREATE INDEX runs_by_machine ON runs (machine)");
  const ResultSet plan = sql_.exec(
      "EXPLAIN SELECT * FROM machines m LEFT JOIN runs r ON r.machine = m.name");
  std::string text;
  for (const auto& row : plan.rows) text += row[0].asText() + "\n";
  EXPECT_NE(text.find("USING INDEX runs_by_machine"), std::string::npos) << text;
  const ResultSet rs = sql_.exec(
      "SELECT COUNT(*) FROM machines m LEFT JOIN runs r ON r.machine = m.name");
  EXPECT_EQ(rs.rows[0][0].asInt(), 4);
}

// --- IN (SELECT ...) ---------------------------------------------------------

TEST_F(SqlFeaturesTest, InSelectFilters) {
  const ResultSet rs = sql_.exec(
      "SELECT machine FROM runs WHERE machine IN (SELECT name FROM machines) "
      "ORDER BY machine");
  ASSERT_EQ(rs.rows.size(), 3u);  // ghost run dropped
  EXPECT_EQ(rs.rows[0][0].asText(), "frost");
}

TEST_F(SqlFeaturesTest, NotInSelect) {
  const ResultSet rs = sql_.exec(
      "SELECT machine FROM runs WHERE machine NOT IN (SELECT name FROM machines)");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "ghost");
}

TEST_F(SqlFeaturesTest, InSelectWithInnerWhere) {
  const ResultSet rs = sql_.exec(
      "SELECT COUNT(*) FROM runs WHERE machine IN "
      "(SELECT name FROM machines WHERE os = 'AIX')");
  EXPECT_EQ(rs.rows[0][0].asInt(), 2);
}

TEST_F(SqlFeaturesTest, InSelectEmptySubquery) {
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE machine IN "
                      "(SELECT name FROM machines WHERE os = 'Plan9')")
                .rows[0][0].asInt(),
            0);
  // NOT IN over the empty set keeps everything.
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE machine NOT IN "
                      "(SELECT name FROM machines WHERE os = 'Plan9')")
                .rows[0][0].asInt(),
            4);
}

TEST_F(SqlFeaturesTest, InSelectWithAggregatingSubquery) {
  const ResultSet rs = sql_.exec(
      "SELECT name FROM machines WHERE name IN "
      "(SELECT machine FROM runs GROUP BY machine HAVING COUNT(*) > 1)");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asText(), "frost");
}

TEST_F(SqlFeaturesTest, InSelectInDeleteAndUpdate) {
  sql_.exec("UPDATE runs SET secs = 0 WHERE machine IN "
            "(SELECT name FROM machines WHERE os = 'AIX')");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE secs = 0").rows[0][0].asInt(), 2);
  sql_.exec("DELETE FROM runs WHERE machine NOT IN (SELECT name FROM machines)");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs").rows[0][0].asInt(), 3);
}

// --- VACUUM --------------------------------------------------------------------

TEST_F(SqlFeaturesTest, VacuumPreservesDataAndIndexes) {
  sql_.exec("CREATE INDEX runs_by_machine ON runs (machine)");
  sql_.exec("DELETE FROM runs WHERE machine = 'frost'");
  sql_.exec("VACUUM");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs").rows[0][0].asInt(), 2);
  // Index still answers queries (and agrees with a scan).
  const ResultSet indexed = sql_.exec("SELECT secs FROM runs WHERE machine = 'mcr'");
  ASSERT_EQ(indexed.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(indexed.rows[0][0].asReal(), 5.0);
  // Auto-increment continues correctly after the rewrite.
  const ResultSet ins = sql_.exec("INSERT INTO runs (machine, secs) VALUES ('x', 1)");
  EXPECT_EQ(ins.last_insert_id, 5);
}

TEST_F(SqlFeaturesTest, VacuumReclaimsSpace) {
  // Bulk-insert then delete most rows: the heap is mostly tombstones. The
  // pager never truncates (logical size is monotonic), so the reclamation
  // guarantee is about *reuse*: after VACUUM, re-inserting a comparable
  // volume must run from the free list without growing the database.
  auto bulkInsert = [&](const std::string& tag) {
    for (int i = 0; i < 2000; ++i) {
      sql_.exec("INSERT INTO runs (machine, secs) VALUES ('" + tag +
                std::to_string(i) + "-padpadpadpadpadpadpad', 1.0)");
    }
  };
  bulkInsert("bulk");
  sql_.exec("DELETE FROM runs WHERE machine LIKE 'bulk%'");
  sql_.exec("VACUUM");
  const auto after_vacuum = db_->sizeBytes();
  bulkInsert("re");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs WHERE machine LIKE 're%'")
                .rows[0][0].asInt(),
            2000);
  EXPECT_LE(db_->sizeBytes(), after_vacuum);

  // Control: without VACUUM the same churn would have grown the file, so
  // the ceiling above is meaningful.
  sql_.exec("DELETE FROM runs WHERE machine LIKE 're%'");
  bulkInsert("again");
  EXPECT_GT(db_->sizeBytes(), after_vacuum);
}

TEST_F(SqlFeaturesTest, VacuumInsideTransactionRejected) {
  sql_.exec("BEGIN");
  EXPECT_THROW(sql_.exec("VACUUM"), util::StorageError);
  sql_.exec("ROLLBACK");
}

TEST_F(SqlFeaturesTest, VacuumOnFileBackendPersists) {
  util::TempDir dir;
  const std::string path = dir.file("vac.db").string();
  {
    auto db = Database::open(path);
    Engine sql(*db);
    sql.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
    for (int i = 0; i < 50; ++i) sql.exec("INSERT INTO t (v) VALUES ('x')");
    sql.exec("DELETE FROM t WHERE id <= 40");
    sql.exec("VACUUM");
  }
  auto db = Database::open(path);
  Engine sql(*db);
  EXPECT_EQ(sql.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt(), 10);
  EXPECT_EQ(sql.exec("SELECT MIN(id) FROM t").rows[0][0].asInt(), 41);
}

}  // namespace
}  // namespace perftrack::minidb::sql
