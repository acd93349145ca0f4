// Cursor lifetime semantics: streaming SELECT cursors from Engine /
// PreparedStatement, the storage-level pull cursors they are built on, and
// the open-cursor guards that keep DDL/VACUUM/DML from invalidating a scan
// in progress.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

using util::SqlError;
using util::StorageError;

class CursorTest : public ::testing::Test {
 protected:
  CursorTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, machine TEXT, secs REAL)");
    sql_.exec("INSERT INTO runs (machine, secs) VALUES "
              "('frost', 10.0), ('mcr', 5.0), ('frost', 12.0), ('bgl', 7.0)");
    sql_.exec("CREATE INDEX runs_by_machine ON runs (machine)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

// --- basic streaming ---------------------------------------------------------

TEST_F(CursorTest, StreamsRowsInOrderAndAutoCloses) {
  Cursor cur = sql_.openCursor("SELECT id, machine FROM runs ORDER BY id");
  ASSERT_EQ(cur.columns().size(), 2u);
  EXPECT_EQ(cur.columns()[0], "id");
  EXPECT_TRUE(cur.isOpen());
  Row row;
  std::vector<std::int64_t> ids;
  while (cur.next(row)) {
    ASSERT_EQ(row.size(), 2u);
    ids.push_back(row[0].asInt());
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3, 4}));
  // Exhaustion auto-closes: the pin is gone and next() keeps returning false.
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
  EXPECT_FALSE(cur.next(row));
}

TEST_F(CursorTest, CursorAgreesWithExec) {
  const char* kSql =
      "SELECT machine, COUNT(*), SUM(secs) FROM runs "
      "GROUP BY machine HAVING COUNT(*) >= 1 ORDER BY machine";
  const ResultSet rs = sql_.exec(kSql);
  Cursor cur = sql_.openCursor(kSql);
  EXPECT_EQ(cur.columns(), rs.columns);
  Row row;
  std::size_t i = 0;
  while (cur.next(row)) {
    ASSERT_LT(i, rs.rows.size());
    ASSERT_EQ(row.size(), rs.rows[i].size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], rs.rows[i][c]) << "row " << i << " col " << c;
    }
    ++i;
  }
  EXPECT_EQ(i, rs.rows.size());
}

TEST_F(CursorTest, OpenCursorRejectsNonSelectAndUnboundParams) {
  EXPECT_THROW(sql_.openCursor("INSERT INTO runs (machine, secs) VALUES ('x', 1)"),
               SqlError);
  EXPECT_THROW(sql_.openCursor("SELECT * FROM runs WHERE machine = ?"), SqlError);
  PreparedStatement stmt = sql_.prepare("SELECT * FROM runs WHERE machine = ?");
  EXPECT_THROW(stmt.openCursor(), SqlError);  // param never bound
  stmt.bind(1, Value("frost"));
  Cursor cur = stmt.openCursor();
  Row row;
  std::size_t n = 0;
  while (cur.next(row)) ++n;
  EXPECT_EQ(n, 2u);
}

// --- DDL/VACUUM/DML guards ---------------------------------------------------

TEST_F(CursorTest, DdlWhileCursorOpenThrowsCleanly) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_THROW(sql_.exec("CREATE INDEX runs_by_secs ON runs (secs)"), StorageError);
  EXPECT_THROW(sql_.exec("DROP INDEX runs_by_machine"), StorageError);
  EXPECT_THROW(sql_.exec("CREATE TABLE t2 (id INTEGER PRIMARY KEY)"), StorageError);
  EXPECT_THROW(sql_.exec("DROP TABLE runs"), StorageError);
  // The scan is undisturbed by the failed DDL and finishes normally.
  std::size_t rest = 0;
  while (cur.next(row)) ++rest;
  EXPECT_EQ(rest, 3u);
  // With the cursor closed, the same DDL goes through.
  sql_.exec("CREATE INDEX runs_by_secs ON runs (secs)");
}

TEST_F(CursorTest, VacuumAndDmlWhileCursorOpenThrowCleanly) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_THROW(sql_.exec("VACUUM"), StorageError);
  EXPECT_THROW(sql_.exec("INSERT INTO runs (machine, secs) VALUES ('x', 1)"),
               StorageError);
  EXPECT_THROW(sql_.exec("UPDATE runs SET secs = 0"), StorageError);
  EXPECT_THROW(sql_.exec("DELETE FROM runs"), StorageError);
  cur.close();
  sql_.exec("VACUUM");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs").rows[0][0].asInt(), 4);
}

TEST_F(CursorTest, EarlyCloseReleasesPinAndIsIdempotent) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  // The cursor's own pin plus the storage-level scan cursor's pin.
  EXPECT_GE(db_->openCursorCount(), 1u);
  cur.close();
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
  EXPECT_FALSE(cur.next(row));
  cur.close();  // idempotent
  sql_.exec("DROP TABLE runs");
}

TEST_F(CursorTest, DestructorReleasesPin) {
  {
    Cursor cur = sql_.openCursor("SELECT id FROM runs");
    Row row;
    ASSERT_TRUE(cur.next(row));
    EXPECT_GE(db_->openCursorCount(), 1u);
  }
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

// --- interleaving ------------------------------------------------------------

TEST_F(CursorTest, TwoInterleavedCursorsProduceIndependentStreams) {
  Cursor asc = sql_.openCursor("SELECT id FROM runs ORDER BY id");
  Cursor desc = sql_.openCursor("SELECT id FROM runs ORDER BY id DESC");
  EXPECT_EQ(db_->openCursorCount(), 2u);
  Row a, d;
  std::vector<std::int64_t> got_asc, got_desc;
  // Strict lock-step interleave.
  while (true) {
    const bool more_a = asc.next(a);
    const bool more_d = desc.next(d);
    if (more_a) got_asc.push_back(a[0].asInt());
    if (more_d) got_desc.push_back(d[0].asInt());
    if (!more_a && !more_d) break;
  }
  EXPECT_EQ(got_asc, (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(got_desc, (std::vector<std::int64_t>{4, 3, 2, 1}));
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

TEST_F(CursorTest, InnerCursorWhileOuterScansSameTable) {
  // The nested pattern the exporter uses: an index probe per outer row.
  PreparedStatement inner = sql_.prepare("SELECT secs FROM runs WHERE machine = ?");
  Cursor outer = sql_.openCursor("SELECT machine FROM runs ORDER BY id");
  Row row;
  std::size_t pairs = 0;
  while (outer.next(row)) {
    inner.bind(1, row[0]);
    Cursor probe = inner.openCursor();
    Row inner_row;
    while (probe.next(inner_row)) ++pairs;
  }
  // frost matches 2 per frost run (x2) + mcr 1 + bgl 1.
  EXPECT_EQ(pairs, 6u);
}

TEST_F(CursorTest, OnePreparedStatementOneCursorAtATime) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs");
  Cursor first = stmt.openCursor();
  EXPECT_TRUE(stmt.hasOpenCursor());
  // Bindings live in the shared statement AST, so a second simultaneous
  // cursor would corrupt the first scan; it is refused instead.
  EXPECT_THROW(stmt.openCursor(), SqlError);
  first.close();
  EXPECT_FALSE(stmt.hasOpenCursor());
  Cursor second = stmt.openCursor();
  Row row;
  std::size_t n = 0;
  while (second.next(row)) ++n;
  EXPECT_EQ(n, 4u);
}

TEST_F(CursorTest, CursorOutlivesItsPreparedStatement) {
  Cursor cur = [&] {
    PreparedStatement stmt = sql_.prepare("SELECT id FROM runs ORDER BY id");
    return stmt.openCursor();
  }();  // stmt destroyed here; the cursor shares the statement and plan
  Row row;
  std::vector<std::int64_t> ids;
  while (cur.next(row)) ids.push_back(row[0].asInt());
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3, 4}));
}

// --- EXPLAIN cursors ---------------------------------------------------------

TEST_F(CursorTest, ExplainCursorHoldsNoPin) {
  Cursor cur = sql_.openCursor("EXPLAIN SELECT * FROM runs WHERE machine = 'x'");
  EXPECT_EQ(db_->openCursorCount(), 0u);  // plan text only, no storage scan
  // DDL is allowed while an EXPLAIN cursor is open.
  sql_.exec("CREATE TABLE side (id INTEGER PRIMARY KEY)");
  Row row;
  std::size_t lines = 0;
  while (cur.next(row)) ++lines;
  EXPECT_GT(lines, 0u);
}

TEST_F(CursorTest, ExplainCursorStepsAndBatchesTheSameLines) {
  const char* kSql = "EXPLAIN SELECT r.machine FROM runs r JOIN runs s ON s.id = r.id";
  const ResultSet rs = sql_.exec(kSql);
  ASSERT_GE(rs.rows.size(), 3u);
  // next() first, then fetchBatch() for the rest, then next() at the end.
  Cursor cur = sql_.openCursor(kSql);
  std::vector<std::string> lines;
  Row row;
  ASSERT_TRUE(cur.next(row));
  lines.push_back(row[0].asText());
  RowBatch batch;
  batch.capacity = 1;
  ASSERT_TRUE(cur.fetchBatch(batch));
  for (const std::uint32_t i : batch.sel) lines.push_back(batch.cols[0][i].asText());
  while (cur.next(row)) lines.push_back(row[0].asText());
  ASSERT_EQ(lines.size(), rs.rows.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], rs.rows[i][0].asText());
  }
  EXPECT_FALSE(cur.isOpen());
}

// --- row stepping over batches ---------------------------------------------
//
// Cursor::next() hands out rows of batches pulled through fetchBatch(); the
// first pulls are small (32 rows, doubling up to exec_batch_rows) so that a
// consumer stepping a few rows does not pay for a full batch of scanning.

class CursorAdapterTest : public CursorTest {
 protected:
  CursorAdapterTest() {
    sql_.exec("CREATE TABLE big (id INTEGER PRIMARY KEY, run_id INTEGER, v INTEGER)");
    std::string insert;
    for (int i = 1; i <= 6000; ++i) {
      insert += insert.empty() ? "INSERT INTO big VALUES " : ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 6) + ", " +
                std::to_string(i % 97) + ")";
    }
    sql_.exec(insert);
  }

  /// Page reads the pager served while `fn` ran (a proxy for rows scanned).
  static std::uint64_t pageReads(const std::function<void()>& fn) {
    const obs::Counter& reads =
        obs::Registry::global().counter("pt_pager_page_reads_total");
    const std::uint64_t before = reads.value();
    fn();
    return reads.value() - before;
  }

  static std::string render(const Row& row) {
    std::string out;
    for (const Value& v : row) out += (v.isNull() ? "NULL" : v.toDisplayString()) + "|";
    return out;
  }
};

TEST_F(CursorAdapterTest, MixingNextAndFetchBatchOnAJoinYieldsThePureDrain) {
  // run_id 0 and 5 match no run; 1..4 match one each.
  const char* kSql =
      "SELECT b.id, r.machine, b.v FROM big b JOIN runs r ON b.run_id = r.id "
      "WHERE b.v < 90";
  for (const int batch_rows : {1, 7, 1024}) {
    sql_.setOption("exec_batch_rows", batch_rows);
    std::vector<std::string> expected;
    for (const Row& row : sql_.exec(kSql).rows) expected.push_back(render(row));
    ASSERT_GT(expected.size(), 3000u);
    Cursor cur = sql_.openCursor(kSql);
    std::vector<std::string> got;
    Row row;
    RowBatch batch;
    for (std::size_t step = 0;; ++step) {
      if (step % 3 == 2) {
        batch.capacity = step % 2 == 0 ? 5 : 0;  // a small cap, then the default
        if (!cur.fetchBatch(batch)) break;
        for (const std::uint32_t i : batch.sel) {
          batch.materializeRow(i, row);
          got.push_back(render(row));
        }
      } else {
        if (!cur.next(row)) break;
        got.push_back(render(row));
      }
    }
    EXPECT_EQ(got, expected) << "exec_batch_rows=" << batch_rows;
    EXPECT_FALSE(cur.isOpen());
  }
}

TEST_F(CursorAdapterTest, RowSteppedLimitWithoutOrderByDoesNotOverScan) {
  const std::uint64_t full = pageReads([&] { sql_.exec("SELECT id FROM big"); });
  for (const char* sql :
       {"SELECT id FROM big LIMIT 3",
        "SELECT b.id, r.machine FROM big b JOIN runs r ON b.run_id = r.id LIMIT 3"}) {
    std::vector<std::int64_t> ids;
    const std::uint64_t stepped = pageReads([&] {
      Cursor cur = sql_.openCursor(sql);
      Row row;
      while (cur.next(row)) ids.push_back(row[0].asInt());
    });
    EXPECT_EQ(ids.size(), 3u) << sql;
    EXPECT_LT(stepped * 20, full) << sql << ": " << stepped << " of " << full;
  }
}

TEST_F(CursorAdapterTest, ClosingAfterThreeRowsStopsTheScan) {
  const std::uint64_t full = pageReads([&] { sql_.exec("SELECT id, v FROM big"); });
  for (const char* sql :
       {"SELECT id, v FROM big",
        "SELECT b.id, r.machine FROM big b JOIN runs r ON b.run_id = r.id"}) {
    const std::uint64_t stepped = pageReads([&] {
      Cursor cur = sql_.openCursor(sql);
      Row row;
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(cur.next(row)) << sql;
      cur.close();
    });
    EXPECT_LT(stepped * 20, full) << sql << ": " << stepped << " of " << full;
    EXPECT_EQ(db_->openCursorCount(), 0u);
  }
}

// --- storage-level cursors ---------------------------------------------------

TEST_F(CursorTest, TableCursorStreamsHeapRecords) {
  auto cur = db_->openCursor("runs");
  EXPECT_EQ(db_->openCursorCount(), 1u);
  RecordId rid;
  Row row;
  std::size_t n = 0;
  while (cur.next(rid, row)) ++n;
  EXPECT_EQ(n, 4u);
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

TEST_F(CursorTest, IndexCursorEqualProbeStreamsMatches) {
  const auto* index = db_->catalog().findIndex("runs_by_machine");
  ASSERT_NE(index, nullptr);
  auto cur = db_->openIndexEqual(*index, {Value("frost")});
  RecordId rid;
  Row row;
  std::size_t n = 0;
  while (cur.next(rid, row)) {
    EXPECT_EQ(row[1].asText(), "frost");
    ++n;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

}  // namespace
}  // namespace perftrack::minidb::sql
