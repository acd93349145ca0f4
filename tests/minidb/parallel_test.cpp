// Morsel-driven parallel execution: differential correctness against the
// serial path, morsel-boundary edge cases, the shared ExecPool, cursor-pin
// interplay, EXPLAIN rendering, and the exec metrics.
//
// Every test forces the degree explicitly (setOption("exec_threads", n))
// and disables the small-table gate (setOption("exec_min_pages", 0 or 1))
// — the suite must behave identically on a 1-core CI box and a 64-core workstation.
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "minidb/sql/exec_pool.h"
#include "minidb/sql/executor.h"
#include "minidb/sql/pipeline.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

std::string planText(const ResultSet& rs) {
  std::string text;
  for (const auto& row : rs.rows) {
    text += row[0].asText();
    text += '\n';
  }
  return text;
}

/// Renders a result set to a canonical string for exact differential
/// comparison (column order and row order both matter).
std::string canon(const ResultSet& rs) {
  std::string out;
  for (const Row& row : rs.rows) {
    for (const Value& v : row) {
      out += v.isNull() ? "NULL" : v.toDisplayString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, "
        "r REAL, tag TEXT)");
    // Enough rows to span many heap pages and several morsels; grp has a
    // NULL stripe and val has deliberate ties for ORDER BY tie-break tests.
    std::string insert;
    for (int i = 0; i < 9000; ++i) {
      insert += insert.empty() ? "INSERT INTO m (grp, val, r, tag) VALUES "
                               : ",";
      const bool null_grp = i % 11 == 0;
      insert += "(" + (null_grp ? std::string("NULL") : std::to_string(i % 7)) +
                "," + std::to_string(i % 50) + "," +
                std::to_string(i % 13) + ".5,'t" + std::to_string(i % 5) + "')";
      if (insert.size() > 60000) {
        sql_.exec(insert);
        insert.clear();
      }
    }
    if (!insert.empty()) sql_.exec(insert);
    sql_.setOption("exec_min_pages", 1);
  }

  /// Drains `query` through the vectorized fetchBatch() cursor surface.
  ResultSet drainBatches(const std::string& query) {
    Cursor cur = sql_.openCursor(query);
    ResultSet rs;
    RowBatch batch;
    Row row;
    while (cur.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        batch.materializeRow(i, row);
        rs.rows.push_back(row);
      }
    }
    return rs;
  }

  /// Runs `query` serially and at several degrees; expects identical
  /// output — materialized, cursor-stepped, and batch-fetched.
  void expectDifferentialMatch(const std::string& query) {
    sql_.setOption("exec_threads", 1);
    const std::string serial = canon(sql_.exec(query));
    for (const int degree : {2, 3, 8}) {
      sql_.setOption("exec_threads", degree);
      EXPECT_EQ(canon(sql_.exec(query)), serial)
          << "materialized mismatch at degree " << degree << ": " << query;
      // Cursor-stepped: same pipeline pulled one row at a time.
      Cursor cur = sql_.openCursor(query);
      ResultSet stepped;
      Row row;
      while (cur.next(row)) stepped.rows.push_back(row);
      EXPECT_EQ(canon(stepped), serial)
          << "cursor mismatch at degree " << degree << ": " << query;
      // Batch-fetched: same pipeline pulled a columnar batch at a time.
      EXPECT_EQ(canon(drainBatches(query)), serial)
          << "batch cursor mismatch at degree " << degree << ": " << query;
    }
    sql_.setOption("exec_threads", 1);
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

// --- differential: parallel output must be bit-identical to serial ---------

TEST_F(ParallelExecTest, GroupedAggregatesMatchSerial) {
  expectDifferentialMatch(
      "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) "
      "FROM m GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, NullGroupIsOneGroup) {
  sql_.setOption("exec_threads", 8);
  const ResultSet rs =
      sql_.exec("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
  // groups: NULL plus 0..6.
  ASSERT_EQ(rs.rows.size(), 8u);
  EXPECT_TRUE(rs.rows[0][0].isNull());
  EXPECT_EQ(rs.rows[0][1].asInt(), 9000 / 11 + 1);  // i % 11 == 0 stripe
  expectDifferentialMatch("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, BareColumnPicksTheSerialGroupRepresentative) {
  // SQLite bare-column semantics: the group's first row in scan order
  // supplies non-aggregated columns. The parallel merge must pick the same
  // (minimum-rank) representative as the serial scan.
  expectDifferentialMatch(
      "SELECT grp, id, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, DistinctAggregatesMatchSerial) {
  expectDifferentialMatch(
      "SELECT grp, COUNT(DISTINCT tag), SUM(DISTINCT val) "
      "FROM m GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, RealSumsMatchSerialMergeOrder) {
  // rsum merges in worker-state order (deterministic states_ indexing), and
  // the per-worker partials each sum ranks in increasing order; with the
  // .5-valued reals here the result is exact either way.
  expectDifferentialMatch("SELECT grp, SUM(r), AVG(r) FROM m GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, HavingAppliesAfterTheMerge) {
  expectDifferentialMatch(
      "SELECT grp, COUNT(*) FROM m GROUP BY grp "
      "HAVING COUNT(*) > 1200 ORDER BY grp");
}

TEST_F(ParallelExecTest, OrderByLimitWithTiesMatchesSerial) {
  // val has 180 duplicates of each value; the tie-break must reproduce the
  // serial (stable, scan-order) tie resolution through the top-K pushdown.
  expectDifferentialMatch("SELECT id, val FROM m ORDER BY val LIMIT 25");
  expectDifferentialMatch("SELECT id, val FROM m ORDER BY val DESC LIMIT 25 OFFSET 10");
}

TEST_F(ParallelExecTest, OrderByWithoutLimitMatchesSerial) {
  expectDifferentialMatch("SELECT val, id FROM m ORDER BY val, id DESC");
}

TEST_F(ParallelExecTest, DistinctMatchesSerial) {
  expectDifferentialMatch("SELECT DISTINCT tag FROM m ORDER BY tag");
  expectDifferentialMatch("SELECT DISTINCT val FROM m");  // blocking distinct
}

TEST_F(ParallelExecTest, FilteredScanMatchesSerial) {
  expectDifferentialMatch(
      "SELECT grp, COUNT(*) FROM m WHERE val >= 25 AND tag <> 't3' "
      "GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, IndexRangePathMatchesSerial) {
  // id is the PK; a range predicate turns table 0 into an index-range
  // source, exercising CursorMorselSource chunking.
  expectDifferentialMatch(
      "SELECT grp, COUNT(*) FROM m WHERE id > 1000 AND id < 8000 "
      "GROUP BY grp ORDER BY grp");
}

TEST_F(ParallelExecTest, JoinAboveParallelScanMatchesSerial) {
  sql_.exec("CREATE TABLE names (grp INTEGER, label TEXT)");
  sql_.exec(
      "INSERT INTO names VALUES (0,'zero'),(1,'one'),(2,'two'),(3,'three'),"
      "(4,'four'),(5,'five'),(6,'six')");
  expectDifferentialMatch(
      "SELECT n.label, COUNT(*) FROM m, names n WHERE m.grp = n.grp "
      "GROUP BY n.label ORDER BY n.label");
  expectDifferentialMatch(
      "SELECT m.id, n.label FROM m LEFT JOIN names n ON m.grp = n.grp "
      "ORDER BY m.id LIMIT 40");
}

TEST_F(ParallelExecTest, SubqueryInListMatchesSerial) {
  sql_.exec("CREATE TABLE wanted (g INTEGER)");
  sql_.exec("INSERT INTO wanted VALUES (1),(3),(5)");
  expectDifferentialMatch(
      "SELECT grp, COUNT(*) FROM m WHERE grp IN (SELECT g FROM wanted) "
      "GROUP BY grp ORDER BY grp");
}

// --- morsel boundary edges --------------------------------------------------

TEST_F(ParallelExecTest, EmptyTable) {
  sql_.exec("CREATE TABLE empty (a INTEGER, b INTEGER)");
  sql_.setOption("exec_threads", 8);
  EXPECT_EQ(sql_.exec("SELECT a, COUNT(*) FROM empty GROUP BY a ORDER BY a").rows.size(),
            0u);
  // Fully-aggregated SELECT over zero rows still yields the one empty-input row.
  const ResultSet rs = sql_.exec("SELECT COUNT(*), SUM(b) FROM empty ORDER BY 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 0);
  EXPECT_TRUE(rs.rows[0][1].isNull());
}

TEST_F(ParallelExecTest, TableSmallerThanOneMorsel) {
  sql_.exec("CREATE TABLE tiny (a INTEGER)");
  sql_.exec("INSERT INTO tiny VALUES (3),(1),(2)");
  sql_.setOption("exec_threads", 8);
  const ResultSet rs = sql_.exec("SELECT a FROM tiny ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].asInt(), 1);
  EXPECT_EQ(rs.rows[2][0].asInt(), 3);
}

TEST_F(ParallelExecTest, DegreeExceedsMorselCount) {
  // 9000 rows span only a handful of page morsels; degree 64 must clamp,
  // not hang or duplicate.
  sql_.setOption("exec_threads", 64);
  const ResultSet rs =
      sql_.exec("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
  EXPECT_EQ(rs.rows.size(), 8u);
  std::int64_t total = 0;
  for (const Row& row : rs.rows) total += row[1].asInt();
  EXPECT_EQ(total, 9000);
}

TEST_F(ParallelExecTest, LimitZero) {
  sql_.setOption("exec_threads", 8);
  EXPECT_EQ(sql_.exec("SELECT id FROM m ORDER BY val LIMIT 0").rows.size(), 0u);
}

TEST_F(ParallelExecTest, MinPagesGateKeepsSmallTablesSerial) {
  sql_.setOption("exec_threads", 8);
  sql_.setOption("exec_min_pages", 100000);  // nothing is this big
  EXPECT_EQ(planText(sql_.exec("EXPLAIN SELECT grp, COUNT(*) FROM m GROUP BY grp"))
                .find("GATHER"),
            std::string::npos);
  sql_.setOption("exec_min_pages", 1);
  EXPECT_NE(planText(sql_.exec("EXPLAIN SELECT grp, COUNT(*) FROM m GROUP BY grp"))
                .find("GATHER"),
            std::string::npos);
}

// --- batch-size edge cases ---------------------------------------------------

TEST_F(ParallelExecTest, BatchSizeOneMatchesSerial) {
  sql_.setOption("exec_batch_rows", 1);
  expectDifferentialMatch("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
  expectDifferentialMatch("SELECT id, val FROM m WHERE val < 10 ORDER BY id");
}

TEST_F(ParallelExecTest, BatchLargerThanTableMatchesSerial) {
  sql_.setOption("exec_batch_rows", kMaxExecBatchRows);  // 65536 > the 9000-row table
  expectDifferentialMatch("SELECT id, val FROM m WHERE grp = 3 ORDER BY id");
  expectDifferentialMatch("SELECT DISTINCT tag FROM m ORDER BY tag");
}

TEST_F(ParallelExecTest, LimitCutsMidBatch) {
  sql_.setOption("exec_batch_rows", 10);
  // 23 = two full batches plus a partial third; the limit lands mid-batch.
  expectDifferentialMatch("SELECT id, val FROM m ORDER BY val, id LIMIT 23");
  expectDifferentialMatch("SELECT id FROM m ORDER BY id LIMIT 23 OFFSET 5");
}

TEST_F(ParallelExecTest, FullyFilteredBatchesAreSkipped) {
  sql_.setOption("exec_batch_rows", 8);
  // One matching row in 9000: nearly every batch compacts to an empty
  // selection vector, which must not surface as a premature end-of-stream.
  expectDifferentialMatch("SELECT id, tag FROM m WHERE id = 4567");
  // No matching rows at all: every batch is empty.
  expectDifferentialMatch("SELECT id FROM m WHERE val = 999 ORDER BY id");
}

TEST_F(ParallelExecTest, SetExecBatchRowsValidates) {
  EXPECT_THROW(sql_.setOption("exec_batch_rows", 0), util::SqlError);
  EXPECT_THROW(sql_.setOption("exec_batch_rows", kMaxExecBatchRows + 1), util::SqlError);
  sql_.setOption("exec_batch_rows", 1);                  // boundary values are accepted
  sql_.setOption("exec_batch_rows", kMaxExecBatchRows);
}

// --- plan shape gating -------------------------------------------------------

TEST_F(ParallelExecTest, StreamingShapesStaySerial) {
  sql_.setOption("exec_threads", 8);
  // Plain projection streams; no blocking operator above -> no gather.
  EXPECT_EQ(planText(sql_.exec("EXPLAIN SELECT id FROM m")).find("GATHER"),
            std::string::npos);
  // LIMIT without ORDER BY stops the scan early; parallelism is waste.
  EXPECT_EQ(planText(sql_.exec("EXPLAIN SELECT id FROM m LIMIT 5")).find("GATHER"),
            std::string::npos);
  // Degree 1 is exactly the serial path.
  sql_.setOption("exec_threads", 1);
  EXPECT_EQ(
      planText(sql_.exec("EXPLAIN SELECT grp, COUNT(*) FROM m GROUP BY grp"))
          .find("GATHER"),
      std::string::npos);
}

TEST_F(ParallelExecTest, ExplainShowsGatherSubtree) {
  sql_.setOption("exec_threads", 4);
  const std::string plan = planText(
      sql_.exec("EXPLAIN SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp"));
  EXPECT_NE(plan.find("GATHER (workers=4, partial aggregate)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("PARTIAL AGGREGATE"), std::string::npos) << plan;
  EXPECT_NE(plan.find("SCAN m AS m"), std::string::npos) << plan;

  const std::string topk =
      planText(sql_.exec("EXPLAIN SELECT id FROM m ORDER BY val LIMIT 7"));
  EXPECT_NE(topk.find("GATHER (workers=4, top-k 7)"), std::string::npos) << topk;
}

TEST_F(ParallelExecTest, ExplainAnalyzeShowsPerWorkerStats) {
  sql_.setOption("exec_threads", 4);
  const std::string plan = planText(sql_.exec(
      "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp"));
  EXPECT_NE(plan.find("GATHER (workers=4, partial aggregate) (actual rows=8"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("PER-WORKER rows=["), std::string::npos) << plan;
  // The scan line aggregates all workers: every row is scanned exactly once.
  EXPECT_NE(plan.find("SCAN m AS m (actual rows=9000"), std::string::npos) << plan;
}

// --- cursor-pin interplay ----------------------------------------------------

TEST_F(ParallelExecTest, OpenCursorDuringParallelQueryKeepsPin) {
  sql_.setOption("exec_threads", 4);
  // A stepping cursor over a parallel SELECT holds the storage pin from
  // open to close; DDL must fail while it is open and succeed after.
  Cursor cur = sql_.openCursor("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
  Row row;
  ASSERT_TRUE(cur.next(row));  // triggers the parallel run under the pin
  EXPECT_GT(db_->openCursorCount(), 0u);
  EXPECT_THROW(sql_.exec("DROP TABLE m"), util::StorageError);
  while (cur.next(row)) {
  }
  // Exhaustion auto-closes and releases the pin.
  EXPECT_EQ(db_->openCursorCount(), 0u);
  EXPECT_NO_THROW(sql_.exec("CREATE TABLE after_pin (x INTEGER)"));
}

// --- metrics -----------------------------------------------------------------

TEST_F(ParallelExecTest, ExecMetricsMove) {
  auto& reg = obs::Registry::global();
  const auto morsels0 = reg.counter("pt_exec_morsels_dispatched_total").value();
  const auto queries0 = reg.counter("pt_exec_parallel_queries_total").value();
  const auto waits0 = reg.histogram("pt_exec_gather_wait_ms").count();
  sql_.setOption("exec_threads", 4);
  sql_.exec("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
  EXPECT_GT(reg.counter("pt_exec_morsels_dispatched_total").value(), morsels0);
  EXPECT_EQ(reg.counter("pt_exec_parallel_queries_total").value(), queries0 + 1);
  EXPECT_EQ(reg.histogram("pt_exec_gather_wait_ms").count(), waits0 + 1);
  EXPECT_GE(reg.gauge("pt_exec_pool_threads").value(), 1);
}

// --- ExecPool unit tests ------------------------------------------------------

TEST(ExecPoolTest, RunsEverySlotExactlyOnce) {
  auto& pool = ExecPool::shared();
  std::vector<std::atomic<int>> hits(9);
  pool.run(8, [&](std::size_t slot) { hits[slot].fetch_add(1); });
  for (std::size_t s = 0; s < hits.size(); ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(ExecPoolTest, SlotsRunOnDistinctThreadsWhenPoolIsFree) {
  auto& pool = ExecPool::shared();
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.run(3, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // The caller always participates; pool threads may add more (all four on
  // a multicore box, fewer when the pool is contended or single-core).
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
  EXPECT_GE(pool.threadCount(), 3u);
}

TEST(ExecPoolTest, WorkerExceptionPropagatesToTheCaller) {
  auto& pool = ExecPool::shared();
  EXPECT_THROW(
      pool.run(4,
               [&](std::size_t slot) {
                 if (slot == 2) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool survives a failed job and serves the next one.
  std::atomic<int> ran{0};
  pool.run(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ExecPoolTest, CallerExceptionWinsAndBarrierStillHolds) {
  auto& pool = ExecPool::shared();
  std::atomic<int> others{0};
  try {
    pool.run(3, [&](std::size_t slot) {
      if (slot == 0) throw std::logic_error("caller");
      others.fetch_add(1);
    });
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  // run() only returns after the barrier: every pool slot finished.
  EXPECT_EQ(others.load(), 3);
}

TEST(ExecPoolTest, ZeroExtraRunsInline) {
  auto& pool = ExecPool::shared();
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id seen;
  pool.run(0, [&](std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, self);
}

TEST(ExecPoolTest, ConcurrentJobsShareThePool) {
  // Two "sessions" issue jobs concurrently; both must complete (no lost
  // wakeups, no cross-job slot mixups).
  auto& pool = ExecPool::shared();
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread other([&] { pool.run(4, [&](std::size_t) { b.fetch_add(1); }); });
  pool.run(4, [&](std::size_t) { a.fetch_add(1); });
  other.join();
  EXPECT_EQ(a.load(), 5);
  EXPECT_EQ(b.load(), 5);
}

}  // namespace
}  // namespace perftrack::minidb::sql
