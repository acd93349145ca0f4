// Differential SQL fuzzing: the literal path vs the prepared path vs the
// streaming cursor path vs the batch cursor path, plus an in-place (None)
// vs WAL durability differential over the same statement stream
// (DurabilityFuzz below).
//
// Five twin in-memory databases receive the same seeded random statement
// stream. One executes every statement with inlined literals through
// Engine::exec; the second executes the parameterized form ('?'
// placeholders) through prepare()/bind/execute; the third also prepares, but
// drains every SELECT one row at a time through openCursor()/next(), the
// cursor's row adapter over its own ramped batch pulls; the fourth drains
// through fetchBatch() with a deliberately odd batch size (7) so every query
// ends on a partial batch; the fifth prepares with use_indexes = 0, so every
// SELECT, UPDATE and DELETE reads through a SeqScan: the oracle for the
// others' index paths. The paths share the parser but diverge at
// parameter substitution, plan caching, epoch revalidation, access paths,
// and (for the cursor twins) the materializing wrapper vs the cursor's row
// adapter vs direct batch pulls. Any divergence (different rows, different
// rows_affected, an error on one side only) is a bug in one of the paths.
//
// Statement mix: INSERT (with NULLs, negative ints, reals, text); UPDATE and
// DELETE by primary-key equality, by key comparisons and two-sided ranges,
// by IN lists with duplicate and NULL keys, and by IN (SELECT ...), with
// operands of any type; point/range/IN SELECTs with ORDER BY, occasional
// CREATE/DROP INDEX, transaction brackets with rollbacks, and deliberately
// invalid statements (unknown table/column) that must fail identically on
// every path. Every 40 statements the full table contents and storage
// integrity of the twins are compared.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack::minidb::sql {
namespace {

/// One generated statement: literal SQL for the exec twin, parameterized SQL
/// plus bindings for the prepared twin.
struct GenStmt {
  std::string literal;
  std::string parameterized;
  std::vector<Value> params;
};

std::string renderLiteral(const Value& v) {
  if (v.isNull()) return "NULL";
  if (v.isText()) return "'" + v.asText() + "'";  // generator emits quote-free text
  return v.toDisplayString();
}

/// Substitutes each '?' in `sql` with the rendered literal of the matching
/// parameter, producing the literal twin of a parameterized statement.
std::string inlineParams(const std::string& sql, const std::vector<Value>& params) {
  std::string out;
  std::size_t next = 0;
  for (char c : sql) {
    if (c == '?') {
      out += renderLiteral(params.at(next++));
    } else {
      out += c;
    }
  }
  return out;
}

class FuzzGen {
 public:
  explicit FuzzGen(std::uint64_t seed) : rng_(seed) {}

  Value randomValue() {
    switch (rng_.uniformInt(0, 3)) {
      case 0: return Value(rng_.uniformInt(-50, 50));
      case 1: // reals with exact binary representations round-trip as text
        return Value(static_cast<double>(rng_.uniformInt(-40, 40)) + 0.5);
      case 2: return Value("s" + std::to_string(rng_.uniformInt(0, 30)));
      default: return Value::null();
    }
  }

  GenStmt next() {
    GenStmt g;
    const int kind = static_cast<int>(rng_.uniformInt(0, 99));
    if (kind < 40) {  // INSERT
      g.parameterized = "INSERT INTO t (k, v, r) VALUES (?, ?, ?)";
      g.params = {Value(rng_.uniformInt(0, 9)), randomValue(), randomValue()};
    } else if (kind < 55) {  // UPDATE, one WHERE shape per access path
      g.params = {randomValue()};
      switch (rng_.uniformInt(0, 5)) {
        case 0:
          g.parameterized = "UPDATE t SET v = ? WHERE k " + comparator() + " ?";
          g.params.push_back(key());
          break;
        case 1:  // primary-key equality
          g.parameterized = "UPDATE t SET r = ?, v = v WHERE id = ?";
          g.params.push_back(Value(rng_.uniformInt(1, 200)));
          break;
        case 2:  // IN list with duplicate and NULL keys
          g.parameterized = "UPDATE t SET v = ? WHERE k IN (?, ?, ?)";
          appendInKeys(g.params);
          break;
        case 3:  // two-sided range
          g.parameterized = "UPDATE t SET r = ? WHERE k > ? AND k <= ?";
          g.params.push_back(key());
          g.params.push_back(key());
          break;
        case 4:
          g.parameterized = "UPDATE t SET v = ? WHERE k IN (SELECT k FROM t WHERE v = ?)";
          g.params.push_back(randomValue());
          break;
        default:  // moves keys inside the range it reads
          g.parameterized = "UPDATE t SET k = ? WHERE k >= ?";
          g.params = {Value(rng_.uniformInt(0, 9)), key()};
          break;
      }
    } else if (kind < 65) {  // DELETE (bounded so the table keeps growing)
      const Value id_bound(rng_.uniformInt(5, 200));
      switch (rng_.uniformInt(0, 4)) {
        case 0:
          g.parameterized = "DELETE FROM t WHERE k = ? AND id > ?";
          g.params = {key(), id_bound};
          break;
        case 1:  // primary-key equality
          g.parameterized = "DELETE FROM t WHERE id = ?";
          g.params = {Value(rng_.uniformInt(1, 300))};
          break;
        case 2:
          g.parameterized = "DELETE FROM t WHERE k IN (?, ?, ?) AND id > ?";
          appendInKeys(g.params);
          g.params.push_back(id_bound);
          break;
        case 3: {  // two-sided range, two keys wide when the bound is an integer
          g.parameterized = "DELETE FROM t WHERE k >= ? AND k < ? AND id > ?";
          const Value lo = key();
          g.params = {lo, lo.isInt() ? Value(lo.asInt() + 2) : key(), id_bound};
          break;
        }
        default:
          g.parameterized =
              "DELETE FROM t WHERE k IN (SELECT k FROM t WHERE id = ?) AND id > ?";
          g.params = {Value(rng_.uniformInt(1, 200)), id_bound};
          break;
      }
    } else if (kind < 90) {  // SELECT
      switch (rng_.uniformInt(0, 3)) {
        case 0:
          g.parameterized = "SELECT id, k, v FROM t WHERE k = ? ORDER BY id";
          g.params = {Value(rng_.uniformInt(0, 9))};
          break;
        case 1:
          g.parameterized =
              "SELECT id, v FROM t WHERE k >= ? AND k <= ? ORDER BY id";
          g.params = {Value(rng_.uniformInt(0, 5)), Value(rng_.uniformInt(5, 9))};
          break;
        case 2:
          g.parameterized = "SELECT COUNT(*) FROM t WHERE k IN (?, ?, ?)";
          g.params = {Value(rng_.uniformInt(0, 9)), Value(rng_.uniformInt(0, 9)),
                      Value(rng_.uniformInt(0, 9))};
          break;
        default:
          g.parameterized = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
          break;
      }
    } else if (kind < 94) {  // index DDL: flips the schema epoch mid-stream
      if (index_exists_) {
        g.parameterized = "DROP INDEX t_by_k";
      } else {
        g.parameterized = "CREATE INDEX t_by_k ON t (k)";
      }
      index_exists_ = !index_exists_;
    } else {  // invalid: must fail identically on both paths
      if (rng_.chance(0.5)) {
        g.parameterized = "SELECT nosuch FROM t WHERE k = ?";
        g.params = {Value(rng_.uniformInt(0, 9))};
      } else {
        g.parameterized = "INSERT INTO missing (k) VALUES (?)";
        g.params = {Value(1)};
      }
    }
    g.literal = inlineParams(g.parameterized, g.params);
    return g;
  }

  util::Rng& rng() { return rng_; }

 private:
  /// A key operand: mostly an integer key of t, sometimes any type.
  Value key() { return rng_.chance(0.8) ? Value(rng_.uniformInt(0, 9)) : randomValue(); }

  /// Three IN-list keys; the second sometimes repeats the first.
  void appendInKeys(std::vector<Value>& params) {
    const Value first = key();
    params.push_back(first);
    params.push_back(rng_.chance(0.3) ? first : key());
    params.push_back(rng_.chance(0.2) ? Value::null() : key());
  }

  std::string comparator() {
    switch (rng_.uniformInt(0, 2)) {
      case 0: return "=";
      case 1: return "<";
      default: return ">=";
    }
  }

  util::Rng rng_;
  bool index_exists_ = false;
};

void expectSameResult(const ResultSet& a, const ResultSet& b, const std::string& sql) {
  SCOPED_TRACE("statement: " + sql);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.rows_affected, b.rows_affected);
  EXPECT_EQ(a.last_insert_id, b.last_insert_id);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
    for (std::size_t j = 0; j < a.rows[i].size(); ++j) {
      EXPECT_EQ(a.rows[i][j], b.rows[i][j])
          << "row " << i << " col " << j << " diverged";
    }
  }
}

/// The cursor twin's executor: prepares `sql`, then drains SELECTs row by
/// row through the streaming cursor instead of the materializing execute().
/// Non-SELECT statements run through the prepared path so all twins apply
/// identical mutations.
ResultSet runViaCursor(Engine& eng, const std::string& sql,
                       const std::vector<Value>& params) {
  PreparedStatement stmt = eng.prepare(sql);
  if (stmt.kind() != Statement::Kind::Select) return stmt.execute(params);
  stmt.bindAll(params);
  Cursor cur = stmt.openCursor();
  ResultSet rs;
  rs.columns = cur.columns();
  Row row;
  while (cur.next(row)) rs.rows.push_back(row);
  return rs;
}

/// The batch-cursor twin's executor: like runViaCursor, but drains SELECTs
/// through the vectorized fetchBatch() surface, materializing rows from the
/// columnar batches.
ResultSet runViaBatchCursor(Engine& eng, const std::string& sql,
                            const std::vector<Value>& params) {
  PreparedStatement stmt = eng.prepare(sql);
  if (stmt.kind() != Statement::Kind::Select) return stmt.execute(params);
  stmt.bindAll(params);
  Cursor cur = stmt.openCursor();
  ResultSet rs;
  rs.columns = cur.columns();
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

class SqlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlFuzz, LiteralPreparedAndCursorPathsAgree) {
  auto db_lit = Database::openMemory();
  auto db_par = Database::openMemory();
  auto db_cur = Database::openMemory();
  auto db_bat = Database::openMemory();
  auto db_seq = Database::openMemory();
  Engine lit(*db_lit);
  Engine par(*db_par);
  Engine cur(*db_cur);
  Engine bat(*db_bat);
  Engine seq(*db_seq);
  // Every statement of this twin, UPDATE and DELETE included, takes the
  // SeqScan path: the oracle for the indexed twins' access paths.
  seq.setOption("use_indexes", 0);
  // Odd batch size so nearly every SELECT ends on a partial final batch.
  bat.setOption("exec_batch_rows", 7);
  const char* ddl =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT, r REAL)";
  lit.exec(ddl);
  par.exec(ddl);
  cur.exec(ddl);
  bat.exec(ddl);
  seq.exec(ddl);

  FuzzGen gen(GetParam());
  int in_txn = 0;
  for (int step = 0; step < 400; ++step) {
    // Transaction brackets: both twins enter/leave together; one in three
    // brackets ends in ROLLBACK, exercising the undo journal + epoch paths.
    if (in_txn == 0 && gen.rng().chance(0.15)) {
      db_lit->begin();
      db_par->begin();
      db_cur->begin();
      db_bat->begin();
      db_seq->begin();
      in_txn = static_cast<int>(gen.rng().uniformInt(3, 10));
    } else if (in_txn > 0 && --in_txn == 0) {
      if (gen.rng().chance(0.33)) {
        db_lit->rollback();
        db_par->rollback();
        db_cur->rollback();
        db_bat->rollback();
        db_seq->rollback();
      } else {
        db_lit->commit();
        db_par->commit();
        db_cur->commit();
        db_bat->commit();
        db_seq->commit();
      }
    }

    const GenStmt g = gen.next();
    std::optional<ResultSet> ra, rb, rc, rd, re;
    std::string err_a, err_b, err_c, err_d, err_e;
    try {
      ra = lit.exec(g.literal);
    } catch (const util::PTError& e) {
      err_a = e.what();
    }
    try {
      PreparedStatement stmt = par.prepare(g.parameterized);
      ASSERT_EQ(stmt.paramCount(), static_cast<int>(g.params.size()));
      rb = stmt.execute(g.params);
    } catch (const util::PTError& e) {
      err_b = e.what();
    }
    try {
      rc = runViaCursor(cur, g.parameterized, g.params);
    } catch (const util::PTError& e) {
      err_c = e.what();
    }
    try {
      rd = runViaBatchCursor(bat, g.parameterized, g.params);
    } catch (const util::PTError& e) {
      err_d = e.what();
    }
    try {
      re = seq.prepare(g.parameterized).execute(g.params);
    } catch (const util::PTError& e) {
      err_e = e.what();
    }
    ASSERT_EQ(ra.has_value(), rb.has_value())
        << "one path errored: literal=[" << err_a << "] prepared=[" << err_b
        << "] for: " << g.literal;
    ASSERT_EQ(ra.has_value(), rc.has_value())
        << "one path errored: literal=[" << err_a << "] cursor=[" << err_c
        << "] for: " << g.literal;
    ASSERT_EQ(ra.has_value(), rd.has_value())
        << "one path errored: literal=[" << err_a << "] batch=[" << err_d
        << "] for: " << g.literal;
    ASSERT_EQ(ra.has_value(), re.has_value())
        << "one path errored: literal=[" << err_a << "] seqscan=[" << err_e
        << "] for: " << g.literal;
    if (ra) {
      expectSameResult(*ra, *rb, g.literal);
      {
        SCOPED_TRACE("seqscan twin");
        expectSameResult(*ra, *re, g.literal);
      }
      {
        SCOPED_TRACE("cursor path");
        ASSERT_EQ(ra->columns, rc->columns);
        ASSERT_EQ(ra->rows.size(), rc->rows.size()) << "for: " << g.literal;
        for (std::size_t i = 0; i < ra->rows.size(); ++i) {
          for (std::size_t j = 0; j < ra->rows[i].size(); ++j) {
            EXPECT_EQ(ra->rows[i][j], rc->rows[i][j])
                << "cursor row " << i << " col " << j << " diverged for: "
                << g.literal;
          }
        }
      }
      {
        SCOPED_TRACE("batch cursor path");
        ASSERT_EQ(ra->columns, rd->columns);
        ASSERT_EQ(ra->rows.size(), rd->rows.size()) << "for: " << g.literal;
        for (std::size_t i = 0; i < ra->rows.size(); ++i) {
          for (std::size_t j = 0; j < ra->rows[i].size(); ++j) {
            EXPECT_EQ(ra->rows[i][j], rd->rows[i][j])
                << "batch row " << i << " col " << j << " diverged for: "
                << g.literal;
          }
        }
      }
    } else {
      EXPECT_EQ(err_a, err_b) << "error text diverged for: " << g.literal;
      EXPECT_EQ(err_a, err_c) << "cursor error text diverged for: " << g.literal;
      EXPECT_EQ(err_a, err_d) << "batch error text diverged for: " << g.literal;
      EXPECT_EQ(err_a, err_e) << "seqscan error text diverged for: " << g.literal;
    }

    if (step % 40 == 39) {
      const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
      expectSameResult(lit.exec(all), par.exec(all), all);
      expectSameResult(lit.exec(all), runViaCursor(cur, all, {}), all);
      expectSameResult(lit.exec(all), runViaBatchCursor(bat, all, {}), all);
      expectSameResult(lit.exec(all), seq.exec(all), all);
      EXPECT_TRUE(db_lit->verifyIntegrity().empty());
      EXPECT_TRUE(db_par->verifyIntegrity().empty());
      EXPECT_TRUE(db_cur->verifyIntegrity().empty());
      EXPECT_TRUE(db_bat->verifyIntegrity().empty());
    }
  }
  if (in_txn > 0) {
    db_lit->commit();
    db_par->commit();
    db_cur->commit();
    db_bat->commit();
    db_seq->commit();
  }
  const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
  const ResultSet fin = lit.exec(all);
  expectSameResult(fin, par.exec(all), all);
  expectSameResult(fin, runViaCursor(cur, all, {}), all);
  expectSameResult(fin, runViaBatchCursor(bat, all, {}), all);
  expectSameResult(fin, seq.exec(all), all);
  EXPECT_GT(fin.rows.size(), 50u) << "workload degenerated; generator is off";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzz,
                         ::testing::Values(1u, 2u, 3u, 17u, 20260805u));

// Durability differential: the same seeded statement stream against an
// in-place store (Durability::None, file-backed) and a WAL store (tiny
// autocheckpoint so the log folds mid-stream). The two persistence paths
// share nothing below the pager — in-place page writes vs redo frames +
// checkpoint folds — so any divergence in results, table contents, or
// post-reopen state is a bug in one of them.
class DurabilityFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurabilityFuzz, InPlaceAndWalStoresAgree) {
  util::TempDir tmp;
  const std::string inplace_path = tmp.file("inplace.db").string();
  const std::string wal_path = tmp.file("wal.db").string();
  OpenOptions inplace_options;
  inplace_options.durability = Durability::None;
  OpenOptions wal_options;
  wal_options.durability = Durability::Wal;
  wal_options.wal_autocheckpoint = 16;

  auto db_p = Database::open(inplace_path, inplace_options);
  auto db_w = Database::open(wal_path, wal_options);
  Engine inp(*db_p);
  Engine wal(*db_w);
  const char* ddl =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT, r REAL)";
  inp.exec(ddl);
  wal.exec(ddl);

  FuzzGen gen(GetParam());
  int in_txn = 0;
  for (int step = 0; step < 300; ++step) {
    if (in_txn == 0 && gen.rng().chance(0.2)) {
      db_p->begin();
      db_w->begin();
      in_txn = static_cast<int>(gen.rng().uniformInt(3, 10));
    } else if (in_txn > 0 && --in_txn == 0) {
      if (gen.rng().chance(0.33)) {
        db_p->rollback();
        db_w->rollback();
      } else {
        db_p->commit();
        db_w->commit();
      }
    }

    const GenStmt g = gen.next();
    std::optional<ResultSet> rp, rw;
    std::string err_p, err_w;
    try {
      rp = inp.exec(g.literal);
    } catch (const util::PTError& e) {
      err_p = e.what();
    }
    try {
      rw = wal.exec(g.literal);
    } catch (const util::PTError& e) {
      err_w = e.what();
    }
    ASSERT_EQ(rp.has_value(), rw.has_value())
        << "one durability mode errored: in-place=[" << err_p << "] wal=["
        << err_w << "] for: " << g.literal;
    if (rp) {
      expectSameResult(*rp, *rw, g.literal);
    } else {
      EXPECT_EQ(err_p, err_w) << "error text diverged for: " << g.literal;
    }

    if (step % 40 == 39) {
      const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
      expectSameResult(inp.exec(all), wal.exec(all), all);
      EXPECT_TRUE(db_p->verifyIntegrity().empty());
      EXPECT_TRUE(db_w->verifyIntegrity().empty());
    }
  }
  if (in_txn > 0) {
    db_p->commit();
    db_w->commit();
  }

  // Close both stores and reopen: the on-disk state (in-place pages vs
  // WAL's close-time checkpoint fold) must read back identically, and the
  // clean WAL close must leave no log behind.
  db_p.reset();
  db_w.reset();
  EXPECT_FALSE(std::filesystem::exists(wal_path + ".wal"));
  db_p = Database::open(inplace_path, inplace_options);
  db_w = Database::open(wal_path, wal_options);
  EXPECT_FALSE(db_p->recoveryStats().wal_replayed);
  EXPECT_FALSE(db_w->recoveryStats().wal_replayed);
  Engine inp2(*db_p);
  Engine wal2(*db_w);
  const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
  const ResultSet fin = inp2.exec(all);
  expectSameResult(fin, wal2.exec(all), all);
  EXPECT_GT(fin.rows.size(), 40u) << "workload degenerated; generator is off";
  EXPECT_TRUE(db_p->verifyIntegrity().empty());
  EXPECT_TRUE(db_w->verifyIntegrity().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityFuzz,
                         ::testing::Values(5u, 23u, 4242u));

}  // namespace
}  // namespace perftrack::minidb::sql
