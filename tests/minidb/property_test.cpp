// Property-based tests of the SQL engine: for randomized table contents,
// the engine must agree with straightforward reference computations, and
// the planner's index choices must never change results.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

// --- join oracle -------------------------------------------------------------
//
// Three tables with NULL join keys, duplicate keys and unmatched keys:
//   t (id, grp, score, name)  — table 0; enough rows for two parallel morsels
//   g (gid, label, w)         — indexed on gid (inner probe path)
//   x (xid, gid, tag)         — unindexed on gid (inner scan path)
// Every query's full result is compared with a nested-loop join evaluated
// in the test over the same rows, in the same FROM order.

struct JoinTables {
  std::unique_ptr<Database> db;
  std::vector<Row> t, g, x;  // insertion (= heap) order
};

std::string sqlLiteral(const Value& v) {
  if (v.isNull()) return "NULL";
  if (v.isText()) return "'" + v.asText() + "'";
  return v.toDisplayString();
}

void insertRows(Engine& sql, const std::string& table, const std::vector<Row>& rows) {
  std::string stmt;
  for (const Row& row : rows) {
    stmt += stmt.empty() ? "INSERT INTO " + table + " VALUES (" : ", (";
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) stmt += ", ";
      stmt += sqlLiteral(row[c]);
    }
    stmt += ")";
  }
  sql.exec(stmt);
}

JoinTables makeJoinTables(std::uint64_t seed) {
  JoinTables d;
  d.db = Database::openMemory();
  Engine sql(*d.db);
  sql.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, score REAL, "
           "name TEXT)");
  sql.exec("CREATE INDEX t_by_grp ON t (grp)");
  sql.exec("CREATE TABLE g (gid INTEGER, label TEXT, w INTEGER)");
  sql.exec("CREATE INDEX g_by_gid ON g (gid)");
  sql.exec("CREATE TABLE x (xid INTEGER PRIMARY KEY, gid INTEGER, tag TEXT)");
  util::Rng rng(seed);
  auto maybeNull = [&](Value v, int one_in) {
    return rng.uniformInt(0, one_in - 1) == 0 ? Value::null() : std::move(v);
  };
  for (int i = 1; i <= 2600; ++i) {
    d.t.push_back({Value(std::int64_t{i}), maybeNull(Value(rng.uniformInt(0, 11)), 12),
                   Value(static_cast<double>(rng.uniformInt(0, 400)) / 4.0),
                   Value("name" + std::to_string(rng.uniformInt(0, 25)))});
  }
  for (int i = 0; i < 14; ++i) {  // gids 0..9: duplicates, gaps, a NULL or two
    d.g.push_back({maybeNull(Value(rng.uniformInt(0, 9)), 7),
                   maybeNull(Value("L" + std::to_string(rng.uniformInt(0, 6))), 9),
                   Value(rng.uniformInt(0, 9))});
  }
  for (int i = 1; i <= 16; ++i) {
    d.x.push_back({Value(std::int64_t{i}), maybeNull(Value(rng.uniformInt(0, 9)), 6),
                   Value("tag" + std::to_string(rng.uniformInt(0, 4)))});
  }
  for (std::size_t at = 0; at < d.t.size(); at += 500) {
    const auto end = d.t.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(at + 500, d.t.size()));
    insertRows(sql, "t", std::vector<Row>(d.t.begin() + static_cast<std::ptrdiff_t>(at),
                                          end));
  }
  insertRows(sql, "g", d.g);
  insertRows(sql, "x", d.x);
  return d;
}

/// One joined tuple of the reference: a row per FROM entry, nullptr for a
/// null-extended (LEFT JOIN unmatched) slot.
using RefTuple = std::vector<const Row*>;
using RefPred = std::function<bool(const RefTuple&)>;

struct RefLevel {
  const std::vector<Row>* rows;
  bool left = false;
  RefPred on;  // empty = always true
};

/// Textbook nested loops: per prefix, every row of the next table that passes
/// its ON clause extends the prefix; an unmatched LEFT JOIN prefix extends
/// with NULLs. WHERE filters the finished tuples.
std::vector<RefTuple> refJoin(const std::vector<RefLevel>& levels, const RefPred& where) {
  std::vector<RefTuple> out;
  RefTuple tup(levels.size(), nullptr);
  std::function<void(std::size_t)> extend = [&](std::size_t k) {
    if (k == levels.size()) {
      if (!where || where(tup)) out.push_back(tup);
      return;
    }
    bool matched = false;
    for (const Row& row : *levels[k].rows) {
      tup[k] = &row;
      if (levels[k].on && !levels[k].on(tup)) continue;
      matched = true;
      extend(k + 1);
    }
    tup[k] = nullptr;
    if (levels[k].left && !matched) extend(k + 1);
  };
  extend(0);
  return out;
}

/// Column `c` of FROM entry `t` in a reference tuple (NULL when null-extended).
Value cell(const RefTuple& tup, int t, int c) {
  const Row* row = tup[static_cast<std::size_t>(t)];
  return row == nullptr ? Value::null() : (*row)[static_cast<std::size_t>(c)];
}

/// SQL comparison truth: false whenever either side is NULL.
bool sqlEq(const Value& a, const Value& b) {
  return !a.isNull() && !b.isNull() && a.compare(b) == 0;
}
bool sqlLt(const Value& a, const Value& b) {
  return !a.isNull() && !b.isNull() && a.compare(b) < 0;
}

std::vector<Row> project(const std::vector<RefTuple>& tuples,
                         const std::function<Row(const RefTuple&)>& fn) {
  std::vector<Row> out;
  for (const RefTuple& tup : tuples) out.push_back(fn(tup));
  return out;
}

/// Stable sort on the leading `keys` columns (ascending unless flagged),
/// then OFFSET/LIMIT.
std::vector<Row> orderLimit(std::vector<Row> rows,
                            const std::vector<std::pair<std::size_t, bool>>& keys,
                            std::size_t offset, std::size_t limit) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const auto& [c, desc] : keys) {
      const int cmp = a[c].compare(b[c]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  rows.erase(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(offset, rows.size())));
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

/// First-occurrence DISTINCT.
std::vector<Row> distinctRows(const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](const Row& o) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (o[c].compare(row[c]) != 0) return false;
      }
      return true;
    });
    if (!seen) out.push_back(row);
  }
  return out;
}

/// GROUP BY one key: groups in first-arrival order with their tuples.
std::vector<std::vector<RefTuple>> groupBy(
    const std::vector<RefTuple>& tuples,
    const std::function<Value(const RefTuple&)>& key) {
  std::vector<Value> keys;
  std::vector<std::vector<RefTuple>> groups;
  for (const RefTuple& tup : tuples) {
    const Value k = key(tup);
    std::size_t i = 0;
    while (i < keys.size() && keys[i].compare(k) != 0) ++i;
    if (i == keys.size()) {
      keys.push_back(k);
      groups.emplace_back();
    }
    groups[i].push_back(tup);
  }
  return groups;
}

std::string renderRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += v.isNull() ? "NULL" : v.toDisplayString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

TEST_P(SqlProperty, JoinMatchesNestedLoopsReference) {
  const JoinTables d = makeJoinTables(GetParam());
  // Column ordinals: t(id 0, grp 1, score 2, name 3), g(gid 0, label 1, w 2),
  // x(xid 0, gid 1, tag 2); FROM entries t=0, g=1, x=2.
  // `cols_equal(t1, c1, t2, c2)`: the ON predicate t1.c1 = t2.c2.
  const auto cols_equal = [](int t1, int c1, int t2, int c2) -> RefPred {
    return [=](const RefTuple& u) { return sqlEq(cell(u, t1, c1), cell(u, t2, c2)); };
  };
  const RefPred t_eq_g = cols_equal(0, 1, 1, 0);  // t.grp = g.gid
  const RefPred x_eq_g = cols_equal(2, 1, 1, 0);  // x.gid = g.gid
  const RefPred x_eq_t = cols_equal(2, 1, 0, 1);  // x.gid = t.grp
  const RefLevel T{&d.t, false, {}};
  auto G = [&](bool left, RefPred on) { return RefLevel{&d.g, left, std::move(on)}; };
  auto X = [&](bool left, RefPred on) { return RefLevel{&d.x, left, std::move(on)}; };
  auto cols = [](std::vector<std::pair<int, int>> picks) {
    return [picks](const RefTuple& u) {
      Row row;
      for (const auto& [t, c] : picks) row.push_back(cell(u, t, c));
      return row;
    };
  };
  const std::size_t kAll = ~std::size_t{0};

  struct Case {
    std::string sql;
    std::vector<Row> expected;
  };
  std::vector<Case> cases;

  // 2-table INNER and LEFT, nested-loop output order.
  cases.push_back({"SELECT t.id, t.grp, g.label FROM t JOIN g ON t.grp = g.gid",
                   project(refJoin({T, G(false, t_eq_g)}, {}),
                           cols({{0, 0}, {0, 1}, {1, 1}}))});
  cases.push_back({"SELECT t.id, g.gid, g.label FROM t LEFT JOIN g ON t.grp = g.gid",
                   project(refJoin({T, G(true, t_eq_g)}, {}),
                           cols({{0, 0}, {1, 0}, {1, 1}}))});
  // Extra ON and WHERE conjuncts over both sides.
  cases.push_back(
      {"SELECT t.id, g.label, g.w FROM t JOIN g ON t.grp = g.gid AND g.w * 10 > t.score "
       "WHERE g.w + t.grp > 6",
       project(refJoin({T, G(false,
                             [&](const RefTuple& u) {
                               return t_eq_g(u) &&
                                      sqlLt(cell(u, 0, 2),
                                            Value(cell(u, 1, 2).asReal() * 10));
                             })},
                       [](const RefTuple& u) {
                         return cell(u, 1, 2).asInt() + cell(u, 0, 1).asInt() > 6;
                       }),
               cols({{0, 0}, {1, 1}, {1, 2}}))});
  cases.push_back(
      {"SELECT t.id, t.name, g.label FROM t LEFT JOIN g ON t.grp = g.gid AND g.w > 3 "
       "WHERE t.score < 60 OR g.label = 'L2'",
       project(refJoin({T, G(true,
                             [&](const RefTuple& u) {
                               return t_eq_g(u) && cell(u, 1, 2).asInt() > 3;
                             })},
                       [](const RefTuple& u) {
                         return sqlLt(cell(u, 0, 2), Value(60.0)) ||
                                sqlEq(cell(u, 1, 1), Value("L2"));
                       }),
               cols({{0, 0}, {0, 3}, {1, 1}}))});
  // Right-side IS NULL: the anti-join idiom.
  cases.push_back(
      {"SELECT t.id, t.grp FROM t LEFT JOIN g ON t.grp = g.gid AND g.w < 5 "
       "WHERE g.gid IS NULL",
       project(refJoin({T, G(true,
                             [&](const RefTuple& u) {
                               return t_eq_g(u) && cell(u, 1, 2).asInt() < 5;
                             })},
                       [](const RefTuple& u) { return cell(u, 1, 0).isNull(); }),
               cols({{0, 0}, {0, 1}}))});
  // A LEFT JOIN ON conjunct reading only earlier tables decides matching,
  // not which outer rows survive (t.grp is indexed, so it is also a
  // candidate access path for t that must be passed over).
  cases.push_back(
      {"SELECT t.id, g.gid, g.w FROM t LEFT JOIN g ON t.grp = g.gid AND t.grp < 4",
       project(refJoin({T, G(true,
                             [&](const RefTuple& u) {
                               return t_eq_g(u) &&
                                      sqlLt(cell(u, 0, 1), Value(std::int64_t{4}));
                             })},
                       {}),
               cols({{0, 0}, {1, 0}, {1, 2}}))});
  cases.push_back(
      {"SELECT t.id, g.label, x.xid FROM t JOIN g ON t.grp = g.gid "
       "LEFT JOIN x ON x.gid = g.gid AND t.score + g.w > 50 AND t.score < 90",
       project(refJoin({T, G(false, t_eq_g),
                        X(true,
                          [&](const RefTuple& u) {
                            return x_eq_g(u) &&
                                   cell(u, 0, 2).asReal() + cell(u, 1, 2).asReal() > 50 &&
                                   sqlLt(cell(u, 0, 2), Value(90.0));
                          })},
                       {}),
               cols({{0, 0}, {1, 1}, {2, 0}}))});
  // 3-table INNER, LEFT and mixed.
  cases.push_back(
      {"SELECT t.id, g.label, x.tag FROM t JOIN g ON t.grp = g.gid "
       "JOIN x ON x.gid = g.gid",
       project(refJoin({T, G(false, t_eq_g), X(false, x_eq_g)}, {}),
               cols({{0, 0}, {1, 1}, {2, 2}}))});
  cases.push_back(
      {"SELECT t.id, g.label, x.xid, x.tag FROM t LEFT JOIN g ON t.grp = g.gid "
       "LEFT JOIN x ON x.gid = g.gid AND x.xid * 6 > t.score",
       project(refJoin({T, G(true, t_eq_g),
                        X(true,
                          [&](const RefTuple& u) {
                            return x_eq_g(u) && sqlLt(cell(u, 0, 2),
                                                      Value(cell(u, 2, 0).asReal() * 6));
                          })},
                       {}),
               cols({{0, 0}, {1, 1}, {2, 0}, {2, 2}}))});
  cases.push_back(
      {"SELECT t.id, g.w, x.xid FROM t JOIN g ON t.grp = g.gid "
       "LEFT JOIN x ON x.gid = t.grp WHERE x.xid IS NULL OR x.tag <> 'tag3'",
       project(refJoin({T, G(false, t_eq_g), X(true, x_eq_t)},
                       [](const RefTuple& u) {
                         return cell(u, 2, 0).isNull() ||
                                (!cell(u, 2, 2).isNull() &&
                                 cell(u, 2, 2).compare(Value("tag3")) != 0);
                       }),
               cols({{0, 0}, {1, 2}, {2, 0}}))});
  // GROUP BY with a bare column (the group's first joined tuple supplies it).
  {
    std::vector<Row> rows;
    for (const auto& grp : groupBy(refJoin({T, G(false, t_eq_g)}, {}),
                                   [](const RefTuple& u) { return cell(u, 0, 1); })) {
      std::int64_t wsum = 0;
      for (const RefTuple& u : grp) wsum += cell(u, 1, 2).asInt();
      rows.push_back({cell(grp[0], 0, 1), cell(grp[0], 1, 1),
                      Value(static_cast<std::int64_t>(grp.size())), Value(wsum)});
    }
    cases.push_back({"SELECT t.grp, g.label, COUNT(*), SUM(g.w) FROM t JOIN g "
                     "ON t.grp = g.gid GROUP BY t.grp ORDER BY t.grp",
                     orderLimit(std::move(rows), {{0, false}}, 0, kAll)});
  }
  // HAVING over a LEFT JOIN (the NULL-label group included).
  {
    std::vector<Row> rows;
    for (const auto& grp : groupBy(refJoin({T, G(true, t_eq_g)}, {}),
                                   [](const RefTuple& u) { return cell(u, 1, 1); })) {
      if (grp.size() <= 300) continue;
      Value max_score;
      for (const RefTuple& u : grp) {
        if (max_score.isNull() || cell(u, 0, 2).compare(max_score) > 0) {
          max_score = cell(u, 0, 2);
        }
      }
      rows.push_back({cell(grp[0], 1, 1), Value(static_cast<std::int64_t>(grp.size())),
                      max_score});
    }
    cases.push_back({"SELECT g.label, COUNT(*), MAX(t.score) FROM t LEFT JOIN g "
                     "ON t.grp = g.gid GROUP BY g.label HAVING COUNT(*) > 300 "
                     "ORDER BY g.label DESC",
                     orderLimit(std::move(rows), {{0, true}}, 0, kAll)});
  }
  // Whole-input aggregate over a 3-table join.
  {
    const auto tuples = refJoin({T, G(false, t_eq_g), X(true, x_eq_g)}, {});
    std::int64_t with_x = 0;
    Value min_label;
    for (const RefTuple& u : tuples) {
      if (!cell(u, 2, 0).isNull()) ++with_x;
      const Value l = cell(u, 1, 1);
      if (!l.isNull() && (min_label.isNull() || l.compare(min_label) < 0)) min_label = l;
    }
    cases.push_back({"SELECT COUNT(*), COUNT(x.xid), MIN(g.label) FROM t "
                     "JOIN g ON t.grp = g.gid LEFT JOIN x ON x.gid = g.gid",
                     {{Value(static_cast<std::int64_t>(tuples.size())), Value(with_x),
                       min_label}}});
  }
  // DISTINCT keeps the first occurrence in join order.
  cases.push_back(
      {"SELECT DISTINCT g.label, x.tag FROM t JOIN g ON t.grp = g.gid "
       "LEFT JOIN x ON x.gid = g.gid",
       distinctRows(project(refJoin({T, G(false, t_eq_g), X(true, x_eq_g)}, {}),
                            cols({{1, 1}, {2, 2}})))});
  // ORDER BY with LIMIT/OFFSET (ties keep join order), and LIMIT alone.
  cases.push_back(
      {"SELECT t.id, g.label, t.score FROM t JOIN g ON t.grp = g.gid "
       "ORDER BY g.label DESC, t.score LIMIT 17 OFFSET 5",
       orderLimit(project(refJoin({T, G(false, t_eq_g)}, {}),
                          cols({{0, 0}, {1, 1}, {0, 2}})),
                  {{1, true}, {2, false}}, 5, 17)});
  cases.push_back(
      {"SELECT x.tag, t.id, g.gid FROM t JOIN g ON t.grp = g.gid JOIN x ON x.gid = g.gid "
       "ORDER BY x.tag LIMIT 25",
       orderLimit(project(refJoin({T, G(false, t_eq_g), X(false, x_eq_g)}, {}),
                          cols({{2, 2}, {0, 0}, {1, 0}})),
                  {{0, false}}, 0, 25)});
  cases.push_back(
      {"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.gid LIMIT 9 OFFSET 3",
       orderLimit(project(refJoin({T, G(true, t_eq_g)}, {}), cols({{0, 0}, {1, 1}})),
                  {}, 3, 9)});

  Engine sql(*d.db);
  sql.setOption("exec_min_pages", 1);
  for (const int threads : {1, 4}) {
    for (const int batch_rows : {1, 7, 1024}) {
      sql.setOption("exec_threads", threads);
      sql.setOption("exec_batch_rows", batch_rows);
      for (const Case& c : cases) {
        EXPECT_EQ(renderRows(sql.exec(c.sql).rows), renderRows(c.expected))
            << c.sql << "\n  at exec_threads=" << threads
            << " exec_batch_rows=" << batch_rows;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace perftrack::minidb::sql
