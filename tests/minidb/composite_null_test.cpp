// Edge-case coverage: composite indexes and NULL semantics across the
// storage and SQL layers.
#include <gtest/gtest.h>

#include "minidb/sql/executor.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

class CompositeIndexTest : public ::testing::Test {
 protected:
  CompositeIndexTest() : db_(Database::openMemory()) {
    db_->createTable("t",
                     {{"id", ColumnType::Integer},
                      {"a", ColumnType::Text},
                      {"b", ColumnType::Integer}},
                     0);
    db_->createIndex("t_by_ab", "t", {"a", "b"});
    for (int i = 0; i < 30; ++i) {
      db_->insertRow("t", {Value::null(), Value("k" + std::to_string(i % 3)),
                           Value(std::int64_t{i % 5})});
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CompositeIndexTest, FullPrefixEqualScan) {
  const IndexDef* index = db_->catalog().findIndex("t_by_ab");
  ASSERT_NE(index, nullptr);
  int hits = 0;
  db_->indexScanEqual(*index, {Value("k1"), Value(std::int64_t{2})},
                      [&](RecordId, const Row& row) {
                        EXPECT_EQ(row.at(1).asText(), "k1");
                        EXPECT_EQ(row.at(2).asInt(), 2);
                        ++hits;
                        return true;
                      });
  EXPECT_EQ(hits, 2);  // i in {7, 22}
}

TEST_F(CompositeIndexTest, PartialPrefixEqualScan) {
  const IndexDef* index = db_->catalog().findIndex("t_by_ab");
  int hits = 0;
  db_->indexScanEqual(*index, {Value("k0")}, [&](RecordId, const Row& row) {
    EXPECT_EQ(row.at(1).asText(), "k0");
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 10);
}

TEST_F(CompositeIndexTest, PrefixScanOrderedBySecondColumn) {
  const IndexDef* index = db_->catalog().findIndex("t_by_ab");
  std::int64_t prev = -1;
  db_->indexScanEqual(*index, {Value("k2")}, [&](RecordId, const Row& row) {
    EXPECT_GE(row.at(2).asInt(), prev);
    prev = row.at(2).asInt();
    return true;
  });
  EXPECT_GE(prev, 0);
}

TEST_F(CompositeIndexTest, CompositeUniqueIndexDistinguishesPairs) {
  db_->createTable("u", {{"x", ColumnType::Text}, {"y", ColumnType::Integer}});
  db_->createIndex("u_xy", "u", {"x", "y"}, /*unique=*/true);
  db_->insertRow("u", {Value("a"), Value(std::int64_t{1})});
  db_->insertRow("u", {Value("a"), Value(std::int64_t{2})});  // same x, new y: ok
  db_->insertRow("u", {Value("b"), Value(std::int64_t{1})});  // same y, new x: ok
  EXPECT_THROW(db_->insertRow("u", {Value("a"), Value(std::int64_t{1})}),
               util::StorageError);
}

class NullSemanticsTest : public ::testing::Test {
 protected:
  NullSemanticsTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, v REAL)");
    sql_.exec("INSERT INTO t (grp, v) VALUES "
              "('a', 1.0), ('a', NULL), ('b', 2.0), (NULL, 3.0), (NULL, NULL)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

TEST_F(NullSemanticsTest, AggregatesIgnoreNulls) {
  const ResultSet rs =
      sql_.exec("SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  EXPECT_EQ(rs.rows[0][0].asInt(), 5);  // COUNT(*) counts rows
  EXPECT_EQ(rs.rows[0][1].asInt(), 3);  // COUNT(v) skips NULLs
  EXPECT_DOUBLE_EQ(rs.rows[0][2].asReal(), 6.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].asReal(), 2.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][4].asReal(), 1.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][5].asReal(), 3.0);
}

TEST_F(NullSemanticsTest, GroupByTreatsNullAsOneGroup) {
  const ResultSet rs =
      sql_.exec("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(rs.rows.size(), 3u);
  // NULL sorts before text per the documented value ordering.
  EXPECT_TRUE(rs.rows[0][0].isNull());
  EXPECT_EQ(rs.rows[0][1].asInt(), 2);
  EXPECT_EQ(rs.rows[1][0].asText(), "a");
}

TEST_F(NullSemanticsTest, OrderByPlacesNullsFirst) {
  const ResultSet rs = sql_.exec("SELECT v FROM t ORDER BY v");
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_TRUE(rs.rows[0][0].isNull());
  EXPECT_TRUE(rs.rows[1][0].isNull());
  EXPECT_DOUBLE_EQ(rs.rows[2][0].asReal(), 1.0);
}

TEST_F(NullSemanticsTest, ComparisonsWithNullNeverMatch) {
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE grp = NULL").rows[0][0].asInt(), 0);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE v < 100").rows[0][0].asInt(), 3);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE NOT (v < 100)").rows[0][0].asInt(),
            2);  // NOT(unknown->false) = true for NULL rows
}

TEST_F(NullSemanticsTest, NullsAreIndexableAndScannable) {
  sql_.exec("CREATE INDEX t_by_grp ON t (grp)");
  // Indexed and scanned plans agree in the presence of NULL keys.
  sql_.setOption("use_indexes", true);
  const auto indexed = sql_.exec("SELECT COUNT(*) FROM t WHERE grp = 'a'");
  sql_.setOption("use_indexes", false);
  const auto scanned = sql_.exec("SELECT COUNT(*) FROM t WHERE grp = 'a'");
  EXPECT_EQ(indexed.rows[0][0].asInt(), scanned.rows[0][0].asInt());
  // IS NULL still finds the null-keyed rows.
  sql_.setOption("use_indexes", true);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE grp IS NULL").rows[0][0].asInt(), 2);
}

TEST_F(NullSemanticsTest, UniqueIndexTreatsNullsAsEqual) {
  // Documented deviation from mainstream SQL (which admits many NULLs in a
  // unique column): minidb's encoded keys make NULLs collide, which is the
  // stricter and simpler contract.
  sql_.exec("CREATE TABLE uq (x TEXT)");
  sql_.exec("CREATE UNIQUE INDEX uq_x ON uq (x)");
  sql_.exec("INSERT INTO uq VALUES (NULL)");
  EXPECT_THROW(sql_.exec("INSERT INTO uq VALUES (NULL)"), util::StorageError);
}

TEST_F(NullSemanticsTest, InListAndLikeWithNulls) {
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE grp IN ('a', 'b')")
                .rows[0][0].asInt(),
            3);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE grp LIKE '%'").rows[0][0].asInt(),
            3);  // NULL never LIKE-matches
}

TEST_F(NullSemanticsTest, UpdateToAndFromNull) {
  sql_.exec("UPDATE t SET v = NULL WHERE grp = 'b'");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].asInt(), 3);
  sql_.exec("UPDATE t SET v = 9.0 WHERE v IS NULL");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].asInt(), 0);
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM t WHERE v = 9.0").rows[0][0].asInt(), 3);
}

}  // namespace
}  // namespace perftrack::minidb::sql
