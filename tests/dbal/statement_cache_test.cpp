// Connection statement cache: hit/miss accounting, LRU eviction, and
// invalidation on DDL and on the index-ablation switch.
#include "dbal/connection.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace perftrack::dbal {
namespace {

using minidb::Value;

// EXPLAIN now returns the operator tree, one row per operator; join the
// lines so assertions can search the whole plan.
std::string planText(const minidb::sql::ResultSet& rs) {
  std::string text;
  for (const auto& row : rs.rows) {
    text += row[0].asText();
    text += '\n';
  }
  return text;
}

class StatementCacheTest : public ::testing::Test {
 protected:
  StatementCacheTest() : conn_(Connection::open(":memory:")) {
    conn_->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)");
    conn_->exec("INSERT INTO t (k, v) VALUES (1, 'a'), (2, 'b'), (3, 'c'), (2, 'd')");
  }

  std::unique_ptr<Connection> conn_;
};

TEST_F(StatementCacheTest, RepeatedSqlTextHitsTheCache) {
  const auto before = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 2");
  conn_->exec("SELECT v FROM t WHERE k = 2");
  conn_->exec("SELECT v FROM t WHERE k = 2");
  const auto after = conn_->statementCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_GE(conn_->statementCacheSize(), 1u);
}

TEST_F(StatementCacheTest, ExecPreparedSharesOneEntryAcrossParamSets) {
  const auto before = conn_->statementCacheStats();
  const char* q = "SELECT v FROM t WHERE k = ?";
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  EXPECT_EQ(conn_->execPrepared(q, {Value(1)}).rows.size(), 1u);
  EXPECT_EQ(conn_->execPrepared(q, {Value(99)}).rows.size(), 0u);
  const auto after = conn_->statementCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

TEST_F(StatementCacheTest, PlainExecRejectsParameterizedSql) {
  EXPECT_THROW(conn_->exec("SELECT v FROM t WHERE k = ?"), util::SqlError);
}

TEST_F(StatementCacheTest, QueryHelpersTakeParams) {
  EXPECT_EQ(conn_->queryInt("SELECT COUNT(*) FROM t WHERE k = ?", {Value(2)}), 2);
  EXPECT_EQ(conn_->queryInt("SELECT id FROM t WHERE k = ?", {Value(99)}, -1), -1);
  EXPECT_EQ(conn_->queryValue("SELECT v FROM t WHERE k = ?", {Value(1)}).asText(), "a");
}

TEST_F(StatementCacheTest, DdlClearsTheCache) {
  conn_->exec("SELECT v FROM t WHERE k = 1");
  ASSERT_GE(conn_->statementCacheSize(), 1u);
  const auto before = conn_->statementCacheStats();
  conn_->exec("CREATE TABLE other (x INTEGER)");
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  EXPECT_GT(conn_->statementCacheStats().invalidations, before.invalidations);
}

TEST_F(StatementCacheTest, CreateIndexInvalidatesAndNewPlansUseIt) {
  // Warm the cache with a plan that can only heap-scan.
  conn_->exec("SELECT v FROM t WHERE k = 2");
  ASSERT_GE(conn_->statementCacheSize(), 1u);
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  // Correct rows after the index appears, and the replanned query uses it.
  EXPECT_EQ(conn_->exec("SELECT v FROM t WHERE k = 2").rows.size(), 2u);
  const auto plan = conn_->exec("EXPLAIN SELECT v FROM t WHERE k = 2");
  EXPECT_NE(planText(plan).find("USING INDEX t_by_k"), std::string::npos);
}

TEST_F(StatementCacheTest, DropInvalidates) {
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  conn_->exec("SELECT v FROM t WHERE k = 2");
  ASSERT_GE(conn_->statementCacheSize(), 1u);
  conn_->exec("DROP INDEX t_by_k");
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  // The dropped index must not be referenced by any surviving plan.
  EXPECT_EQ(conn_->exec("SELECT v FROM t WHERE k = 2").rows.size(), 2u);
}

TEST_F(StatementCacheTest, UseIndexesSwitchClearsCacheAndChangesPlans) {
  // This test is about the use_indexes knob; pin the inverted-index path
  // off so the multi-point-probe plan text is what EXPLAIN prints.
  conn_->setInvidxEnabled(false);
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  const char* q = "EXPLAIN SELECT v FROM t WHERE k IN (1, 3)";
  auto plan = conn_->exec(q);
  EXPECT_NE(planText(plan).find("IN multi-point probe, 2 keys"),
            std::string::npos);
  conn_->setOption("use_indexes", false);
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  plan = conn_->exec(q);
  EXPECT_NE(planText(plan).find("SCAN t AS t"), std::string::npos);
  EXPECT_EQ(planText(plan).find("USING INDEX"), std::string::npos);
  // Results stay identical either way.
  EXPECT_EQ(conn_->exec("SELECT v FROM t WHERE k IN (1, 3)").rows.size(), 2u);
  conn_->setOption("use_indexes", true);
  plan = conn_->exec(q);
  EXPECT_NE(planText(plan).find("USING INDEX"), std::string::npos);
}

TEST_F(StatementCacheTest, LruEvictsLeastRecentlyUsed) {
  conn_->clearStatementCache();
  conn_->setStatementCacheCapacity(2);
  conn_->exec("SELECT v FROM t WHERE k = 1");  // A
  conn_->exec("SELECT v FROM t WHERE k = 2");  // B
  conn_->exec("SELECT v FROM t WHERE k = 1");  // touch A -> B is now LRU
  const auto before = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 3");  // C evicts B
  EXPECT_EQ(conn_->statementCacheSize(), 2u);
  EXPECT_EQ(conn_->statementCacheStats().evictions - before.evictions, 1u);
  // A survived (hit); B was evicted (miss).
  const auto mid = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 1");
  EXPECT_EQ(conn_->statementCacheStats().hits - mid.hits, 1u);
  const auto late = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 2");
  EXPECT_EQ(conn_->statementCacheStats().misses - late.misses, 1u);
}

TEST_F(StatementCacheTest, CapacityZeroDisablesCaching) {
  conn_->setStatementCacheCapacity(0);
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  const auto before = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 1");
  conn_->exec("SELECT v FROM t WHERE k = 1");
  EXPECT_EQ(conn_->statementCacheSize(), 0u);
  EXPECT_EQ(conn_->statementCacheStats().misses - before.misses, 2u);
  EXPECT_EQ(conn_->statementCacheStats().hits, before.hits);
}

TEST_F(StatementCacheTest, ShrinkingCapacityEvictsDown) {
  conn_->clearStatementCache();
  conn_->exec("SELECT v FROM t WHERE k = 1");
  conn_->exec("SELECT v FROM t WHERE k = 2");
  conn_->exec("SELECT v FROM t WHERE k = 3");
  ASSERT_EQ(conn_->statementCacheSize(), 3u);
  conn_->setStatementCacheCapacity(1);
  EXPECT_EQ(conn_->statementCacheSize(), 1u);
  // The survivor is the most recently used statement.
  const auto before = conn_->statementCacheStats();
  conn_->exec("SELECT v FROM t WHERE k = 3");
  EXPECT_EQ(conn_->statementCacheStats().hits - before.hits, 1u);
}

TEST_F(StatementCacheTest, VacuumBumpsEpochAndCachedPlansReplan) {
  // VACUUM rewrites every heap and index, moving rows to new record ids, so
  // any plan compiled before it must replan (via the schema epoch) rather
  // than probe stale locations.
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  const char* q = "SELECT v FROM t WHERE k = ?";
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  ASSERT_GE(conn_->statementCacheSize(), 1u);

  // Churn the table so vacuum actually relocates surviving rows.
  conn_->exec("INSERT INTO t (k, v) VALUES (5, 'e'), (6, 'f'), (7, 'g')");
  conn_->exec("DELETE FROM t WHERE k = 1 OR k = 5 OR k = 6");

  const auto epoch_before = conn_->database().schemaEpoch();
  conn_->exec("VACUUM");
  EXPECT_GT(conn_->database().schemaEpoch(), epoch_before);

  // The cached entry (if it survived the cache policy) must produce correct
  // rows against the rewritten storage, and integrity must hold.
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  EXPECT_EQ(conn_->execPrepared(q, {Value(7)}).rows.size(), 1u);
  EXPECT_EQ(conn_->execPrepared(q, {Value(1)}).rows.size(), 0u);
  EXPECT_TRUE(conn_->database().verifyIntegrity().empty());
}

TEST_F(StatementCacheTest, RollbackOfDdlRestoresPlansViaEpoch) {
  // A rolled-back transaction that created an index must bump the epoch:
  // plans compiled against the in-transaction schema would otherwise keep
  // probing an index that no longer exists.
  const char* q = "SELECT v FROM t WHERE k = ?";
  conn_->begin();
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);  // index plan
  const auto epoch_in_txn = conn_->database().schemaEpoch();
  conn_->rollback();
  EXPECT_NE(conn_->database().schemaEpoch(), epoch_in_txn);

  // The index is gone; the same cached SQL must heap-scan and stay correct.
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  const auto plan = conn_->exec("EXPLAIN SELECT v FROM t WHERE k = 2");
  EXPECT_EQ(planText(plan).find("USING INDEX"), std::string::npos);
  EXPECT_TRUE(conn_->database().verifyIntegrity().empty());
}

TEST_F(StatementCacheTest, RollbackOfDroppedIndexKeepsIndexPlansValid) {
  // The mirror case: DROP INDEX inside a rolled-back transaction. After
  // rollback the index is back, and plans must be able to use it again.
  conn_->exec("CREATE INDEX t_by_k ON t (k)");
  const char* q = "SELECT v FROM t WHERE k = ?";
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  conn_->begin();
  conn_->exec("DROP INDEX t_by_k");
  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);  // scan plan
  conn_->rollback();

  EXPECT_EQ(conn_->execPrepared(q, {Value(2)}).rows.size(), 2u);
  const auto plan = conn_->exec("EXPLAIN SELECT v FROM t WHERE k = 2");
  EXPECT_NE(planText(plan).find("USING INDEX t_by_k"), std::string::npos);
  EXPECT_TRUE(conn_->database().verifyIntegrity().empty());
}

TEST_F(StatementCacheTest, CachedDmlKeepsWorking) {
  const char* ins = "INSERT INTO t (k, v) VALUES (?, ?)";
  conn_->execPrepared(ins, {Value(7), Value("x")});
  conn_->execPrepared(ins, {Value(7), Value("y")});
  EXPECT_EQ(conn_->queryInt("SELECT COUNT(*) FROM t WHERE k = ?", {Value(7)}), 2);
  const char* del = "DELETE FROM t WHERE v = ?";
  EXPECT_EQ(conn_->execPrepared(del, {Value("x")}).rows_affected, 1);
  EXPECT_EQ(conn_->queryInt("SELECT COUNT(*) FROM t WHERE k = ?", {Value(7)}), 1);
}

}  // namespace
}  // namespace perftrack::dbal
