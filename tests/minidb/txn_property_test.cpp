// Property test: random interleavings of DML and transactions against a
// reference model. After any sequence of INSERT/UPDATE/DELETE wrapped in
// randomly committed or rolled-back transactions, the table contents must
// equal the model's, and the indexes must stay consistent with the heap.
#include <gtest/gtest.h>

#include <map>

#include "minidb/sql/executor.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack::minidb::sql {
namespace {

class TxnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnProperty, RandomOpsMatchReferenceModel) {
  auto db = Database::openMemory();
  Engine sql(*db);
  sql.execScript(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT);"
      "CREATE INDEX t_by_k ON t (k);");

  util::Rng rng(GetParam());
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> committed;  // id->(k,v)
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> working = committed;
  bool in_txn = false;

  for (int step = 0; step < 400; ++step) {
    const int dice = static_cast<int>(rng.uniformInt(0, 9));
    if (dice == 0 && !in_txn) {
      sql.exec("BEGIN");
      in_txn = true;
    } else if (dice == 1 && in_txn) {
      sql.exec("COMMIT");
      committed = working;
      in_txn = false;
    } else if (dice == 2 && in_txn) {
      sql.exec("ROLLBACK");
      working = committed;
      in_txn = false;
    } else if (dice <= 5) {  // insert
      const std::int64_t k = rng.uniformInt(0, 20);
      const std::string v = "v" + std::to_string(rng.uniformInt(0, 99));
      const ResultSet rs =
          sql.exec("INSERT INTO t (k, v) VALUES (" + std::to_string(k) + ", '" + v +
                   "')");
      working[rs.last_insert_id] = {k, v};
    } else if (dice <= 7 && !working.empty()) {  // update one key group
      const std::int64_t k = rng.uniformInt(0, 20);
      const std::string v = "u" + std::to_string(step);
      sql.exec("UPDATE t SET v = '" + v + "' WHERE k = " + std::to_string(k));
      for (auto& [id, kv] : working) {
        if (kv.first == k) kv.second = v;
      }
    } else if (!working.empty()) {  // delete one key group
      const std::int64_t k = rng.uniformInt(0, 20);
      sql.exec("DELETE FROM t WHERE k = " + std::to_string(k));
      std::erase_if(working, [&](const auto& entry) { return entry.second.first == k; });
    }
    // Statements outside a transaction auto-commit.
    if (!in_txn) committed = working;

    // Periodically compare full contents with the model.
    if (step % 50 == 49) {
      const ResultSet rs = sql.exec("SELECT id, k, v FROM t ORDER BY id");
      ASSERT_EQ(rs.rows.size(), working.size()) << "step " << step;
      std::size_t i = 0;
      for (const auto& [id, kv] : working) {
        ASSERT_EQ(rs.rows[i][0].asInt(), id);
        ASSERT_EQ(rs.rows[i][1].asInt(), kv.first);
        ASSERT_EQ(rs.rows[i][2].asText(), kv.second);
        ++i;
      }
    }
  }
  if (in_txn) {
    sql.exec("ROLLBACK");
    working = committed;
  }

  // Final checks: contents, index consistency, and integrity.
  const ResultSet rs = sql.exec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs.rows[0][0].asInt(), static_cast<std::int64_t>(working.size()));
  for (std::int64_t k = 0; k <= 20; ++k) {
    const auto expected = std::count_if(
        working.begin(), working.end(),
        [&](const auto& entry) { return entry.second.first == k; });
    sql.setOption("use_indexes", true);
    const auto indexed =
        sql.exec("SELECT COUNT(*) FROM t WHERE k = " + std::to_string(k));
    EXPECT_EQ(indexed.rows[0][0].asInt(), expected) << "k=" << k;
  }
  EXPECT_TRUE(db->verifyIntegrity().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnProperty,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

// Durability differential: the same random transaction interleavings
// replayed against a rollback-journal store and a WAL store, both
// file-backed. The journal undoes aborted work from saved before-images;
// the WAL never writes aborted work and publishes committed snapshots —
// after every sequence both must hold exactly the model's committed state,
// including after a close/reopen of each store.
class TxnDurability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnDurability, JournalAndWalReplaysMatchTheModel) {
  util::TempDir tmp;
  const std::string journal_path = tmp.file("journal.db").string();
  const std::string wal_path = tmp.file("wal.db").string();
  OpenOptions journal_options;  // Durability::Full
  OpenOptions wal_options;
  wal_options.durability = Durability::Wal;
  wal_options.wal_autocheckpoint = 8;  // fold the log mid-sequence

  auto db_j = Database::open(journal_path, journal_options);
  auto db_w = Database::open(wal_path, wal_options);
  Engine jrn(*db_j);
  Engine wal(*db_w);
  for (Engine* e : {&jrn, &wal}) {
    e->execScript(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT);"
        "CREATE INDEX t_by_k ON t (k);");
  }
  auto both = [&](const std::string& stmt) {
    const ResultSet rj = jrn.exec(stmt);
    const ResultSet rw = wal.exec(stmt);
    EXPECT_EQ(rj.rows_affected, rw.rows_affected) << stmt;
    EXPECT_EQ(rj.last_insert_id, rw.last_insert_id) << stmt;
    return rj;
  };

  util::Rng rng(GetParam());
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> committed;
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> working = committed;
  bool in_txn = false;

  for (int step = 0; step < 300; ++step) {
    const int dice = static_cast<int>(rng.uniformInt(0, 9));
    if (dice == 0 && !in_txn) {
      both("BEGIN");
      in_txn = true;
    } else if (dice == 1 && in_txn) {
      both("COMMIT");
      committed = working;
      in_txn = false;
    } else if (dice == 2 && in_txn) {
      both("ROLLBACK");
      working = committed;
      in_txn = false;
    } else if (dice <= 5) {  // insert
      const std::int64_t k = rng.uniformInt(0, 20);
      const std::string v = "v" + std::to_string(rng.uniformInt(0, 99));
      const ResultSet rs = both("INSERT INTO t (k, v) VALUES (" +
                                std::to_string(k) + ", '" + v + "')");
      working[rs.last_insert_id] = {k, v};
    } else if (dice <= 7 && !working.empty()) {  // update one key group
      const std::int64_t k = rng.uniformInt(0, 20);
      const std::string v = "u" + std::to_string(step);
      both("UPDATE t SET v = '" + v + "' WHERE k = " + std::to_string(k));
      for (auto& [id, kv] : working) {
        if (kv.first == k) kv.second = v;
      }
    } else if (!working.empty()) {  // delete one key group
      const std::int64_t k = rng.uniformInt(0, 20);
      both("DELETE FROM t WHERE k = " + std::to_string(k));
      std::erase_if(working, [&](const auto& entry) { return entry.second.first == k; });
    }
    if (!in_txn) committed = working;

    if (step % 50 == 49) {
      const char* all = "SELECT id, k, v FROM t ORDER BY id";
      const ResultSet rj = jrn.exec(all);
      const ResultSet rw = wal.exec(all);
      ASSERT_EQ(rj.rows.size(), working.size()) << "journal twin, step " << step;
      ASSERT_EQ(rw.rows.size(), working.size()) << "wal twin, step " << step;
      std::size_t i = 0;
      for (const auto& [id, kv] : working) {
        for (const ResultSet* rs : {&rj, &rw}) {
          ASSERT_EQ(rs->rows[i][0].asInt(), id);
          ASSERT_EQ(rs->rows[i][1].asInt(), kv.first);
          ASSERT_EQ(rs->rows[i][2].asText(), kv.second);
        }
        ++i;
      }
    }
  }
  if (in_txn) both("ROLLBACK");

  EXPECT_TRUE(db_j->verifyIntegrity().empty());
  EXPECT_TRUE(db_w->verifyIntegrity().empty());

  // Reopen both stores: the committed model state must have survived each
  // mode's own persistence path (in-place flush vs checkpoint fold).
  db_j.reset();
  db_w.reset();
  db_j = Database::open(journal_path, journal_options);
  db_w = Database::open(wal_path, wal_options);
  Engine jrn2(*db_j);
  Engine wal2(*db_w);
  const char* all = "SELECT id, k, v FROM t ORDER BY id";
  const ResultSet rj = jrn2.exec(all);
  const ResultSet rw = wal2.exec(all);
  ASSERT_EQ(rj.rows.size(), committed.size());
  ASSERT_EQ(rw.rows.size(), committed.size());
  std::size_t i = 0;
  for (const auto& [id, kv] : committed) {
    for (const ResultSet* rs : {&rj, &rw}) {
      ASSERT_EQ(rs->rows[i][0].asInt(), id);
      ASSERT_EQ(rs->rows[i][1].asInt(), kv.first);
      ASSERT_EQ(rs->rows[i][2].asText(), kv.second);
    }
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnDurability,
                         ::testing::Values(7u, 1234u, 99999u));

TEST(ExecScript, RunsAllStatementsAndReturnsLast) {
  auto db = Database::openMemory();
  Engine sql(*db);
  const ResultSet rs = sql.execScript(
      "-- a script\n"
      "CREATE TABLE s (a INTEGER);\n"
      "INSERT INTO s VALUES (1); INSERT INTO s VALUES (2);\n"
      "SELECT COUNT(*) FROM s;");
  EXPECT_EQ(rs.rows[0][0].asInt(), 2);
}

TEST(ExecScript, RespectsQuotedSemicolons) {
  auto db = Database::openMemory();
  Engine sql(*db);
  sql.execScript("CREATE TABLE s (a TEXT); INSERT INTO s VALUES ('x;y')");
  EXPECT_EQ(sql.exec("SELECT a FROM s").rows[0][0].asText(), "x;y");
}

TEST(ExecScript, EmptyScriptThrows) {
  auto db = Database::openMemory();
  Engine sql(*db);
  EXPECT_THROW(sql.execScript("  -- nothing here\n"), util::SqlError);
  EXPECT_THROW(sql.execScript(";;;"), util::SqlError);
}

}  // namespace
}  // namespace perftrack::minidb::sql
