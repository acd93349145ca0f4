// Property-based tests of the SQL engine: for randomized table contents,
// the engine must agree with straightforward reference computations, and
// the planner's index choices must never change results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "minidb/sql/executor.h"
#include "util/rng.h"

namespace perftrack::minidb::sql {
namespace {

struct Dataset {
  std::unique_ptr<Database> db;
  // Reference copy: (group, score, name) rows.
  std::vector<std::tuple<std::int64_t, double, std::string>> rows;
};

Dataset makeDataset(std::uint64_t seed, int row_count) {
  Dataset data;
  data.db = Database::openMemory();
  Engine sql(*data.db);
  sql.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, score REAL, "
           "name TEXT)");
  sql.exec("CREATE INDEX t_by_grp ON t (grp)");
  sql.exec("CREATE INDEX t_by_score ON t (score)");
  util::Rng rng(seed);
  for (int i = 0; i < row_count; ++i) {
    const std::int64_t grp = rng.uniformInt(0, 9);
    // Round-trip through the SQL literal so the reference copy holds the
    // exact value stored (std::to_string keeps 6 decimals).
    const double score = std::stod(std::to_string(rng.uniform(0.0, 100.0)));
    const std::string name = "name" + std::to_string(rng.uniformInt(0, 25));
    data.rows.emplace_back(grp, score, name);
    sql.exec("INSERT INTO t (grp, score, name) VALUES (" + std::to_string(grp) + ", " +
             std::to_string(score) + ", '" + name + "')");
  }
  return data;
}

class SqlProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlProperty, IndexAndScanPlansAgree) {
  Dataset data = makeDataset(GetParam(), 300);
  Engine sql(*data.db);
  for (const std::string query :
       {"SELECT id FROM t WHERE grp = 4 ORDER BY id",
        "SELECT id FROM t WHERE score > 50 ORDER BY id",
        "SELECT id FROM t WHERE score >= 25 AND score <= 75 ORDER BY id",
        "SELECT id FROM t WHERE grp = 2 AND score < 40 ORDER BY id"}) {
    sql.setOption("use_indexes", true);
    const ResultSet indexed = sql.exec(query);
    sql.setOption("use_indexes", false);
    const ResultSet scanned = sql.exec(query);
    ASSERT_EQ(indexed.rows.size(), scanned.rows.size()) << query;
    for (std::size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(indexed.rows[i][0].asInt(), scanned.rows[i][0].asInt()) << query;
    }
  }
}

TEST_P(SqlProperty, CountsMatchReference) {
  Dataset data = makeDataset(GetParam(), 250);
  Engine sql(*data.db);
  for (std::int64_t grp = 0; grp < 10; ++grp) {
    const auto expected = std::count_if(
        data.rows.begin(), data.rows.end(),
        [&](const auto& row) { return std::get<0>(row) == grp; });
    const ResultSet rs =
        sql.exec("SELECT COUNT(*) FROM t WHERE grp = " + std::to_string(grp));
    EXPECT_EQ(rs.rows[0][0].asInt(), expected) << "grp=" << grp;
  }
}

TEST_P(SqlProperty, GroupByMatchesReferenceAggregation) {
  Dataset data = makeDataset(GetParam(), 250);
  Engine sql(*data.db);
  std::map<std::int64_t, std::pair<int, double>> reference;  // grp -> (n, sum)
  for (const auto& [grp, score, name] : data.rows) {
    reference[grp].first++;
    reference[grp].second += score;
  }
  const ResultSet rs =
      sql.exec("SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(rs.rows.size(), reference.size());
  std::size_t i = 0;
  for (const auto& [grp, agg] : reference) {
    EXPECT_EQ(rs.rows[i][0].asInt(), grp);
    EXPECT_EQ(rs.rows[i][1].asInt(), agg.first);
    EXPECT_NEAR(rs.rows[i][2].asReal(), agg.second, 1e-6);
    ++i;
  }
}

TEST_P(SqlProperty, OrderByMatchesStdSort) {
  Dataset data = makeDataset(GetParam(), 200);
  Engine sql(*data.db);
  std::vector<double> expected;
  for (const auto& row : data.rows) expected.push_back(std::get<1>(row));
  std::sort(expected.begin(), expected.end());
  const ResultSet rs = sql.exec("SELECT score FROM t ORDER BY score");
  ASSERT_EQ(rs.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(rs.rows[i][0].asReal(), expected[i]);
  }
  // DESC is the exact reverse.
  const ResultSet desc = sql.exec("SELECT score FROM t ORDER BY score DESC");
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(desc.rows[i][0].asReal(), expected[expected.size() - 1 - i]);
  }
}

TEST_P(SqlProperty, DeleteThenCountIsConsistent) {
  Dataset data = makeDataset(GetParam(), 200);
  Engine sql(*data.db);
  const auto before = sql.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt();
  const auto doomed = std::count_if(
      data.rows.begin(), data.rows.end(),
      [](const auto& row) { return std::get<1>(row) < 30.0; });
  const ResultSet del = sql.exec("DELETE FROM t WHERE score < 30");
  EXPECT_EQ(del.rows_affected, doomed);
  EXPECT_EQ(sql.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt(), before - doomed);
  // Index consistency after bulk delete: indexed query equals scan.
  sql.setOption("use_indexes", true);
  const auto indexed = sql.exec("SELECT COUNT(*) FROM t WHERE grp = 3");
  sql.setOption("use_indexes", false);
  const auto scanned = sql.exec("SELECT COUNT(*) FROM t WHERE grp = 3");
  EXPECT_EQ(indexed.rows[0][0].asInt(), scanned.rows[0][0].asInt());
}

TEST_P(SqlProperty, JoinMatchesNestedLoopsReference) {
  Dataset data = makeDataset(GetParam(), 120);
  Engine sql(*data.db);
  sql.exec("CREATE TABLE grps (gid INTEGER, label TEXT)");
  for (int g = 0; g < 10; g += 2) {  // only even groups labeled
    sql.exec("INSERT INTO grps VALUES (" + std::to_string(g) + ", 'even" +
             std::to_string(g) + "')");
  }
  std::size_t expected = 0;
  for (const auto& row : data.rows) {
    if (std::get<0>(row) % 2 == 0) ++expected;
  }
  const ResultSet rs =
      sql.exec("SELECT t.id FROM t JOIN grps g ON t.grp = g.gid");
  EXPECT_EQ(rs.rows.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace perftrack::minidb::sql
