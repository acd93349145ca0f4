// ptserverd integration tests: a real PtServer on an ephemeral port, driven
// through dbal::RemoteConnection and through raw sockets (for the protocol
// edge cases a well-behaved client never produces).
#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/datastore.h"
#include "core/diag.h"
#include "dbal/connection.h"
#include "dbal/remote.h"
#include "minidb/database.h"
#include "obs/trace.h"
#include "server/net.h"
#include "server/protocol.h"
#include "util/error.h"
#include "util/tempdir.h"

namespace perftrack {
namespace {

using dbal::Connection;
using dbal::RemoteConnection;
using server::ErrCode;
using server::Frame;
using server::Op;
using server::WireReader;
using server::WireWriter;

/// One in-memory store behind one server, torn down per fixture.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = minidb::Database::openMemory();
    server::ServerConfig config;
    config.port = 0;  // ephemeral
    config.workers = 4;
    config.limits.lock_timeout = std::chrono::milliseconds(2000);
    server_ = std::make_unique<server::PtServer>(*db_, config);
    server_->start();
    target_ = "127.0.0.1:" + std::to_string(server_->boundPort());
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<Connection> connect() {
    return Connection::open("pt://" + target_);
  }

  /// Raw socket with the handshake already done.
  server::Socket rawClient() {
    server::Socket sock =
        server::connectTo(target_, std::chrono::milliseconds(5000));
    WireWriter hello;
    hello.u32(server::kProtocolVersion);
    sock.sendFrame(server::makeFrame(Op::Hello, std::move(hello)));
    auto reply = sock.recvFrame();
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(reply->op, Op::HelloOk);
    return sock;
  }

  std::uint64_t frames() const { return server_->counters().frames_served.load(); }
  std::uint32_t openCursors() const { return server_->counters().open_cursors.load(); }

  /// Table `t (v INTEGER)` with values 1..n.
  static void fillTable(Connection& conn, int n) {
    conn.exec("CREATE TABLE t (v INTEGER)");
    for (int i = 1; i <= n; ++i) {
      conn.execPrepared("INSERT INTO t VALUES (?)", {minidb::Value(i)});
    }
  }

  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> server_;
  std::string target_;
};

/// More rows than one default batch (256), so a cursor over them stays open
/// on the server after the first batch.
constexpr int kMultiBatchRows = 300;

TEST_F(ServerTest, ExecAndQueryRoundTrip) {
  auto conn = connect();
  conn->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)");
  const auto ins = conn->exec("INSERT INTO t (name) VALUES ('alpha')");
  EXPECT_EQ(ins.rows_affected, 1);
  EXPECT_EQ(ins.last_insert_id, 1);
  conn->execPrepared("INSERT INTO t (name) VALUES (?)", {minidb::Value("beta")});

  // exec() of a SELECT materializes (columns + rows), like the local backend.
  const auto rs = conn->exec("SELECT id, name FROM t");
  ASSERT_EQ(rs.columns.size(), 2u);
  EXPECT_EQ(rs.columns[0], "id");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[1][1].asText(), "beta");

  // query() streams through a server-side cursor.
  auto cur = conn->query("SELECT name FROM t WHERE id = ?",
                         {minidb::Value(std::int64_t{2})});
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asText(), "beta");
  EXPECT_FALSE(cur.next(row));
}

TEST_F(ServerTest, ScalarHelpersWork) {
  auto conn = connect();
  conn->exec("CREATE TABLE n (v INTEGER)");
  conn->exec("INSERT INTO n VALUES (41)");
  EXPECT_EQ(conn->queryInt("SELECT v + 1 FROM n"), 42);
  EXPECT_TRUE(conn->queryValue("SELECT v FROM n WHERE v > 100").isNull());
}

TEST_F(ServerTest, TransactionsRejectedOverWire) {
  auto conn = connect();
  EXPECT_THROW(conn->begin(), util::SqlError);
  EXPECT_THROW(conn->exec("BEGIN"), util::SqlError);
  EXPECT_FALSE(conn->inTransaction());
  // Autocommit means the write is durable without an explicit commit.
  conn->exec("CREATE TABLE t (v INTEGER)");
  conn->exec("INSERT INTO t VALUES (1)");
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), 1);
}

TEST_F(ServerTest, SqlErrorsComeBackTyped) {
  auto conn = connect();
  EXPECT_THROW(conn->exec("SELEKT nonsense"), util::SqlError);
  EXPECT_THROW(conn->exec("SELECT * FROM missing_table"), util::SqlError);
  // The connection survives server-side errors.
  conn->exec("CREATE TABLE ok (v INTEGER)");
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM ok"), 0);
}

TEST_F(ServerTest, ExpressionMistakesComeBackAsSqlErrors) {
  auto conn = connect();
  conn->exec("CREATE TABLE u (a INTEGER, s TEXT)");
  conn->exec("INSERT INTO u VALUES (1, 'x')");
  // A column ref in INSERT values names nothing: ErrCode::Sql, not Internal.
  try {
    conn->exec("INSERT INTO u VALUES (3, k)");
    ADD_FAILURE() << "INSERT of a column ref succeeded";
  } catch (const util::SqlError& e) {
    EXPECT_STREQ(e.what(), "unknown column: k");
  }
  // Arithmetic on TEXT is a SQL mistake (ErrCode::Sql), not an I/O or
  // integrity failure (ErrCode::Storage), materialized or streamed.
  try {
    conn->exec("SELECT s + 1 FROM u");
    ADD_FAILURE() << "TEXT arithmetic succeeded";
  } catch (const util::SqlError& e) {
    EXPECT_NE(std::string(e.what()).find("'+'"), std::string::npos) << e.what();
  }
  try {
    auto cur = conn->query("SELECT a FROM u WHERE s * 2 > 0");
    minidb::Row row;
    while (cur.next(row)) {
    }
    ADD_FAILURE() << "TEXT arithmetic succeeded";
  } catch (const util::SqlError& e) {
    EXPECT_NE(std::string(e.what()).find("'*'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM u"), 1);
}

TEST_F(ServerTest, BusyStatementFallbackExecDuringOpenCursor) {
  // exec()/execPrepared() on a statement whose remote cursor is still
  // streaming must not re-enter it (the server-side statement would throw
  // "cursor already open").
  auto conn = connect();
  fillTable(*conn, kMultiBatchRows);

  auto cur = conn->query("SELECT v FROM t");
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));  // the cursor is now mid-stream
  ASSERT_EQ(openCursors(), 1u);

  // Same SQL text while the cursor is open: must take the temporary-
  // statement path, not corrupt the stream.
  const auto rs = conn->exec("SELECT v FROM t");
  EXPECT_EQ(rs.rows.size(), static_cast<std::size_t>(kMultiBatchRows));

  // An interleaved write is also safe (it waits on the gate until the
  // reader's hold drains, so drain the cursor first).
  int streamed = 1;
  while (cur.next(row)) ++streamed;
  EXPECT_EQ(streamed, kMultiBatchRows);
  EXPECT_EQ(openCursors(), 0u);
  conn->exec("INSERT INTO t VALUES (-1)");
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), kMultiBatchRows + 1);
}

TEST_F(ServerTest, QueryDuringOpenCursorUsesFreshStatement) {
  auto conn = connect();
  fillTable(*conn, kMultiBatchRows);

  auto a = conn->query("SELECT v FROM t");
  ASSERT_EQ(openCursors(), 1u);  // a is mid-stream: its statement is busy
  auto b = conn->query("SELECT v FROM t");  // same text, cursor a still open
  ASSERT_EQ(openCursors(), 2u);
  minidb::Row ra, rb;
  ASSERT_TRUE(a.next(ra));
  ASSERT_TRUE(b.next(rb));
  EXPECT_EQ(ra[0].asInt(), rb[0].asInt());
  a.close();
  EXPECT_EQ(openCursors(), 1u);
  ASSERT_TRUE(b.next(rb));
  EXPECT_EQ(rb[0].asInt(), 2);
}

TEST_F(ServerTest, LargeResultStreamsInBatches) {
  auto conn = connect();
  conn->exec("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)");
  for (int i = 1; i <= 2000; ++i) {
    conn->execPrepared("INSERT INTO big (v) VALUES (?)", {minidb::Value(i * 7)});
  }
  // 2000 rows > the 256-row default batch: exercises repeated FETCH.
  auto cur = conn->query("SELECT id, v FROM big");
  minidb::Row row;
  int n = 0;
  while (cur.next(row)) {
    ++n;
    EXPECT_EQ(row[1].asInt(), row[0].asInt() * 7);
  }
  EXPECT_EQ(n, 2000);
}

TEST_F(ServerTest, SetUseIndexesIsSessionScoped) {
  auto conn = connect();
  conn->exec("CREATE TABLE t (v INTEGER)");
  conn->exec("CREATE INDEX idx_v ON t (v)");
  conn->exec("INSERT INTO t VALUES (5)");
  conn->setOption("use_indexes", false);
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t WHERE v = 5"), 1);
  conn->setOption("use_indexes", true);
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t WHERE v = 5"), 1);
}

TEST_F(ServerTest, SizeBytesAndRecoveryStats) {
  auto conn = connect();
  EXPECT_GT(conn->sizeBytes(), 0u);
  EXPECT_FALSE(conn->recoveryStats().wal_replayed);
  EXPECT_THROW(conn->database(), util::SqlError);
}

TEST_F(ServerTest, StatReportsSessionsCursorsAndUptime) {
  auto a = dbal::RemoteConnection::connect(target_);
  auto b = dbal::RemoteConnection::connect(target_);
  a->exec("CREATE TABLE t (v INTEGER)");
  for (int i = 0; i < 600; ++i) {
    a->execPrepared("INSERT INTO t VALUES (?)", {minidb::Value(i)});
  }

  dbal::ServerStat stat = a->serverStat();
  ASSERT_TRUE(stat.extended);
  EXPECT_EQ(stat.sessions, 2u);
  EXPECT_EQ(stat.open_cursors, 0u);
  EXPECT_GT(stat.frames_served, 0u);
  EXPECT_LT(stat.uptime_ms, 10u * 60 * 1000);  // sane, not garbage
  EXPECT_EQ(stat.size_bytes, a->sizeBytes());

  // A streaming cursor (600 rows > one batch) holds a server-side cursor
  // open; STAT must see it, and see it gone after the stream is drained.
  auto cur = b->query("SELECT v FROM t");
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));
  stat = a->serverStat();
  EXPECT_EQ(stat.open_cursors, 1u);
  while (cur.next(row)) {
  }
  stat = a->serverStat();
  EXPECT_EQ(stat.open_cursors, 0u);
}

TEST(ServerStatFile, ReportsDbFileAndWalSizes) {
  // WAL (the default): commits land in the log, not the db file. None:
  // commits rewrite the db file in place, so it holds the whole store.
  for (const minidb::Durability durability :
       {minidb::Durability::Wal, minidb::Durability::None}) {
    util::TempDir tmp;
    minidb::OpenOptions options;
    options.durability = durability;
    auto db = minidb::Database::open(tmp.file("stat.db").string(), options);
    server::ServerConfig config;
    config.port = 0;
    server::PtServer srv(*db, config);
    srv.start();
    {
      auto conn = dbal::RemoteConnection::connect(
          "127.0.0.1:" + std::to_string(srv.boundPort()));
      conn->exec("CREATE TABLE t (v INTEGER)");
      conn->exec("INSERT INTO t VALUES (1)");
      const dbal::ServerStat stat = conn->serverStat();
      ASSERT_TRUE(stat.extended);
      EXPECT_GT(stat.size_bytes, 0u);
      if (durability == minidb::Durability::Wal) {
        EXPECT_GT(stat.wal_bytes, sizeof(minidb::WalHeader));
      } else {
        EXPECT_EQ(stat.wal_bytes, 0u);
        EXPECT_EQ(stat.db_file_bytes, stat.size_bytes);
      }
    }
    srv.stop();
  }
}

TEST_F(ServerTest, MetricsVerbReturnsLiveCounters) {
  auto conn = dbal::RemoteConnection::connect(target_);
  conn->exec("CREATE TABLE t (v INTEGER)");
  const std::string before = conn->serverMetrics();
  EXPECT_NE(before.find("# TYPE pt_sql_queries_total counter"), std::string::npos);
  EXPECT_NE(before.find("pt_server_sessions 1"), std::string::npos);
  EXPECT_NE(before.find("pt_server_frames_served_total"), std::string::npos);
  EXPECT_NE(before.find("pt_server_uptime_ms"), std::string::npos);

  auto countersOf = [](const std::string& text, const std::string& name) {
    const std::size_t pos = text.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << name;
    return std::stoull(text.substr(pos + name.size() + 2));
  };
  const auto frames_before = countersOf(before, "pt_server_frames_served_total");
  for (int i = 0; i < 5; ++i) conn->exec("INSERT INTO t VALUES (1)");
  const std::string after = conn->serverMetrics();
  EXPECT_GT(countersOf(after, "pt_server_frames_served_total"), frames_before);
}

TEST_F(ServerTest, RemoteExplainAnalyzeStreamsAnnotatedPlan) {
  auto conn = connect();
  conn->exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, app TEXT)");
  conn->exec("INSERT INTO runs (app) VALUES ('irs'), ('smg'), ('irs')");
  auto cur = conn->query("EXPLAIN ANALYZE SELECT * FROM runs WHERE app = 'irs'");
  ASSERT_EQ(cur.columns().size(), 1u);
  EXPECT_EQ(cur.columns()[0], "plan");
  minidb::Row row;
  std::size_t lines = 0;
  bool saw_actuals = false;
  while (cur.next(row)) {
    ++lines;
    if (row[0].asText().find("actual rows=2") != std::string::npos) {
      saw_actuals = true;
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_actuals);
  // Plain EXPLAIN over the wire stays annotation-free.
  auto plain = conn->query("EXPLAIN SELECT * FROM runs WHERE app = 'irs'");
  while (plain.next(row)) {
    EXPECT_EQ(row[0].asText().find("actual"), std::string::npos);
  }
}

TEST(ServerMetricsHttp, EndpointServesPrometheusAndTraces) {
  // The workload below runs back to back inside one coarse clock tick, so
  // defeat the tracer's one-sample-per-tick rate limiter: this test asserts
  // that specific statements land in the /traces ring.
  obs::Tracer::global().setAlwaysSample(true);
  struct SamplerReset {
    ~SamplerReset() { obs::Tracer::global().setAlwaysSample(false); }
  } sampler_reset;

  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.port = 0;
  config.metrics_port = 0;  // ephemeral
  server::PtServer srv(*db, config);
  srv.start();
  ASSERT_GT(srv.boundMetricsPort(), 0);

  auto httpGet = [&srv](const std::string& path) {
    server::Socket sock = server::connectTo(
        "127.0.0.1:" + std::to_string(srv.boundMetricsPort()),
        std::chrono::milliseconds(5000));
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    sock.sendAll(request.data(), request.size());
    std::string response;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  };

  {
    auto conn = dbal::RemoteConnection::connect(
        "127.0.0.1:" + std::to_string(srv.boundPort()));
    conn->exec("CREATE TABLE t (v INTEGER)");
    conn->exec("INSERT INTO t VALUES (7)");
    conn->exec("SELECT * FROM t");
  }

  // The poller reaps the disconnected session asynchronously, so the gauge
  // may still read 1 on the first scrape under load; retry until it drops.
  std::string metrics = httpGet("/metrics");
  for (int i = 0; i < 100 && metrics.find("pt_server_sessions 0") == std::string::npos;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    metrics = httpGet("/metrics");
  }
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("pt_sql_queries_total"), std::string::npos);
  EXPECT_NE(metrics.find("pt_server_sessions 0"), std::string::npos);

  const std::string traces = httpGet("/traces");
  EXPECT_NE(traces.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(traces.find("== recent queries"), std::string::npos);
  EXPECT_NE(traces.find("SELECT * FROM t"), std::string::npos);

  EXPECT_NE(httpGet("/nope").find("HTTP/1.0 404"), std::string::npos);
  srv.stop();
}

TEST_F(ServerTest, TwoClientsSeeEachOthersWrites) {
  auto a = connect();
  auto b = connect();
  a->exec("CREATE TABLE shared (v INTEGER)");
  a->exec("INSERT INTO shared VALUES (123)");
  EXPECT_EQ(b->queryInt("SELECT v FROM shared"), 123);
}

TEST_F(ServerTest, VacuumRunsExclusively) {
  auto conn = connect();
  conn->exec("CREATE TABLE t (v INTEGER)");
  for (int i = 0; i < 50; ++i) {
    conn->execPrepared("INSERT INTO t VALUES (?)", {minidb::Value(i)});
  }
  conn->exec("DELETE FROM t WHERE v < 25");
  conn->exec("VACUUM");
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), 25);
}

// --- frames per operation ------------------------------------------------------
// frames_served counts request frames; each one is one round trip.

TEST_F(ServerTest, CachedPointQueryIsOneFrame) {
  auto conn = connect();
  conn->exec("CREATE TABLE p (id INTEGER PRIMARY KEY, v REAL)");
  for (int i = 1; i <= 5; ++i) {
    conn->execPrepared("INSERT INTO p (v) VALUES (?)", {minidb::Value(i * 1.5)});
  }
  const char* sql = "SELECT v FROM p WHERE id = ?";
  std::uint64_t f0 = frames();
  EXPECT_EQ(conn->queryValue(sql, {minidb::Value(std::int64_t{2})}).asReal(), 3.0);
  EXPECT_EQ(frames() - f0, 2u);  // first use: PREPARE + EXECUTE
  EXPECT_EQ(openCursors(), 0u);
  for (std::int64_t id = 1; id <= 5; ++id) {
    f0 = frames();
    EXPECT_EQ(conn->queryValue(sql, {minidb::Value(id)}).asReal(), id * 1.5);
    EXPECT_EQ(frames() - f0, 1u);  // cached: EXECUTE alone
    EXPECT_EQ(openCursors(), 0u);
  }
}

TEST_F(ServerTest, AutocommitUpdateIsOneFrame) {
  auto conn = connect();
  fillTable(*conn, 3);
  const char* sql = "UPDATE t SET v = ? WHERE v = ?";
  conn->execPrepared(sql, {minidb::Value(10), minidb::Value(1)});
  const std::uint64_t f0 = frames();
  const auto rs = conn->execPrepared(sql, {minidb::Value(20), minidb::Value(2)});
  EXPECT_EQ(frames() - f0, 1u);
  EXPECT_EQ(rs.rows_affected, 1);
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t WHERE v = 20"), 1);
}

TEST_F(ServerTest, ExplainOfDmlReturnsThePlanAndChangesNothing) {
  auto conn = connect();
  conn->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  conn->exec("INSERT INTO t (v) VALUES (1), (2), (3)");
  const auto del =
      conn->execPrepared("EXPLAIN DELETE FROM t WHERE id = ?", {minidb::Value(2)});
  // The probe answers `id = ?` itself, so no FILTER re-applies it.
  ASSERT_EQ(del.rows.size(), 1u);
  EXPECT_EQ(del.rows[0][0].asText(), "SEARCH t AS t USING INDEX t__pk (id=?)");
  const auto upd = conn->execPrepared("EXPLAIN UPDATE t SET v = ? WHERE id = ?",
                                      {minidb::Value(9), minidb::Value(2)});
  ASSERT_EQ(upd.rows.size(), 1u);
  EXPECT_EQ(upd.rows[0][0].asText(), "SEARCH t AS t USING INDEX t__pk (id=?)");
  auto cur = conn->query("EXPLAIN DELETE FROM t WHERE id = ?", {minidb::Value(3)});
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asText(), "SEARCH t AS t USING INDEX t__pk (id=?)");
  EXPECT_FALSE(cur.next(row));
  cur.close();
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), 3);
  EXPECT_EQ(conn->queryInt("SELECT v FROM t WHERE id = 2"), 2);
  EXPECT_EQ(openCursors(), 0u);
  EXPECT_THROW(conn->exec("EXPLAIN INSERT INTO t (v) VALUES (4)"), util::SqlError);
  EXPECT_THROW(conn->exec("EXPLAIN ANALYZE DELETE FROM t"), util::SqlError);
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), 3);
}

TEST_F(ServerTest, RemoteDiffIsOneFrame) {
  auto conn = connect();
  core::PTDataStore store(*conn);
  store.initialize();
  for (const char* exec : {"runA", "runB"}) {
    store.addExecution(exec, "app");
    const std::string proc = std::string("/") + exec + "/p0";
    store.addResource(proc, "execution/process");
    store.addPerformanceResult(exec, {{{proc}, core::FocusType::Primary}}, "tool",
                               "wall_ms", exec == std::string("runA") ? 100.0 : 250.0);
  }
  core::diag::Request req;
  req.exec_a = "runA";
  req.exec_b = "runB";
  const std::uint64_t f0 = frames();
  const core::diag::Report report = conn->diff(req);
  EXPECT_EQ(frames() - f0, 1u);  // DIFF_OK carries the ranked rows
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].metric, "wall_ms");
  EXPECT_EQ(openCursors(), 0u);
}

TEST_F(ServerTest, MultiBatchResultTakesOneFramePerBatch) {
  auto conn = connect();
  fillTable(*conn, 600);  // default batch 256: 256 + 256 + 88
  (void)conn->query("SELECT v FROM t");  // prepares and caches the text

  std::uint64_t f0 = frames();
  auto cur = conn->query("SELECT v FROM t");
  EXPECT_EQ(frames() - f0, 1u);  // EXECUTE, first batch inline
  minidb::Row row;
  int n = 0;
  while (cur.next(row)) ++n;
  EXPECT_EQ(n, 600);
  EXPECT_EQ(frames() - f0, 3u);  // 1 + (3 - 1) FETCHes
  EXPECT_EQ(openCursors(), 0u);

  // exec() materializes, so it asks for the server's largest batch (4096).
  f0 = frames();
  EXPECT_EQ(conn->exec("SELECT v FROM t").rows.size(), 600u);
  EXPECT_EQ(frames() - f0, 1u);
}

TEST_F(ServerTest, CompleteResultHoldsNoServerCursor) {
  auto conn = connect();
  fillTable(*conn, 3);
  auto cur = conn->query("SELECT v FROM t");
  // The 3 rows arrived with EXECUTE: the server cursor, its gate hold and
  // its snapshot are gone although the client has not read a row yet.
  EXPECT_EQ(openCursors(), 0u);
  EXPECT_TRUE(cur.isOpen());

  // So a writer needing the exclusive gate is not queued behind it.
  auto writer = connect();
  writer->exec("INSERT INTO t VALUES (4)");

  const std::uint64_t f0 = frames();
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asInt(), 1);
  cur.close();
  EXPECT_EQ(frames() - f0, 0u);  // no FETCH, no CLOSE_CURSOR
  EXPECT_FALSE(cur.isOpen());
}

TEST(RemoteQuery, NonSelectIsRefusedAndWritesNothingOnBothBackends) {
  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.port = 0;
  server::PtServer srv(*db, config);
  srv.start();
  const std::string remote = "pt://127.0.0.1:" + std::to_string(srv.boundPort());
  for (const std::string& target : {std::string(":memory:"), remote}) {
    SCOPED_TRACE(target);
    auto conn = Connection::open(target);
    conn->exec("CREATE TABLE t (v INTEGER)");
    for (int with_params = 0; with_params < 2; ++with_params) {
      try {
        if (with_params != 0) {
          (void)conn->query("INSERT INTO t VALUES (?)", {minidb::Value(1)});
        } else {
          (void)conn->query("INSERT INTO t VALUES (1)");
        }
        ADD_FAILURE() << "query() ran a non-SELECT";
      } catch (const util::SqlError& e) {
        EXPECT_STREQ(e.what(), "openCursor: statement is not a SELECT");
      }
    }
    EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM t"), 0);
  }
  srv.stop();
}

// --- raw-socket protocol edge cases ------------------------------------------

TEST_F(ServerTest, HelloRequiredFirst) {
  server::Socket sock =
      server::connectTo(target_, std::chrono::milliseconds(5000));
  sock.sendFrame(Frame{Op::Ping, {}});
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::Protocol);
}

TEST_F(ServerTest, UnknownOpcodeKeepsConnectionAlive) {
  server::Socket sock = rawClient();
  Frame bogus;
  bogus.op = static_cast<Op>(200);
  sock.sendFrame(bogus);
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::UnknownOpcode);

  // The same connection still serves requests.
  sock.sendFrame(Frame{Op::Ping, {}});
  reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op, Op::Pong);
}

TEST_F(ServerTest, OversizedFrameRejectedThenClosed) {
  server::Socket sock = rawClient();
  // Hand-build a header advertising a payload beyond kMaxFrameBytes.
  std::uint8_t header[server::kFrameHeaderBytes];
  const std::uint32_t lie = server::kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(lie >> (8 * i));
  header[4] = static_cast<std::uint8_t>(Op::Ping);
  sock.sendAll(header, sizeof(header));

  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::TooBig);
  // The stream cannot be resynced: the server closes after the error frame.
  EXPECT_FALSE(sock.recvFrame().has_value());
}

TEST_F(ServerTest, TruncatedFrameDoesNotKillServer) {
  {
    server::Socket sock = rawClient();
    // A header promising 100 bytes, then a hangup after 3.
    std::uint8_t header[server::kFrameHeaderBytes] = {100, 0, 0, 0,
                                                      static_cast<std::uint8_t>(Op::Prepare)};
    sock.sendAll(header, sizeof(header));
    const std::uint8_t partial[3] = {1, 2, 3};
    sock.sendAll(partial, sizeof(partial));
    sock.close();
  }
  // The daemon must shrug it off and serve the next client.
  auto conn = connect();
  conn->exec("CREATE TABLE after_truncation (v INTEGER)");
  EXPECT_EQ(conn->queryInt("SELECT COUNT(*) FROM after_truncation"), 0);
}

TEST_F(ServerTest, MalformedPayloadGetsProtocolError) {
  server::Socket sock = rawClient();
  WireWriter w;
  w.u8(7);  // PREPARE wants {str sql}; one stray byte is a truncated string
  sock.sendFrame(server::makeFrame(Op::Prepare, std::move(w)));
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::Protocol);
}

TEST_F(ServerTest, FetchAfterCloseIsBadState) {
  fillTable(*connect(), 3);
  server::Socket sock = rawClient();

  WireWriter prep;
  prep.str("SELECT v FROM t");
  sock.sendFrame(server::makeFrame(Op::Prepare, std::move(prep)));
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value() && reply->op == Op::StmtOk);
  WireReader sr(reply->payload);
  const std::uint32_t stmt_id = sr.u32();

  // A row budget of 1 leaves the 3-row result open on the server.
  WireWriter ex;
  ex.u32(stmt_id);
  ex.u32(1);
  ex.row({});
  sock.sendFrame(server::makeFrame(Op::Execute, std::move(ex)));
  reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value() && reply->op == Op::CursorOk);
  WireReader cr(reply->payload);
  const std::uint32_t cursor_id = cr.u32();
  ASSERT_EQ(cr.u32(), 1u);
  EXPECT_EQ(cr.str(), "v");
  EXPECT_EQ(cr.u8(), 0);   // not done
  EXPECT_EQ(cr.u32(), 1u);  // one row inline
  EXPECT_EQ(cr.row()[0].asInt(), 1);
  ASSERT_EQ(openCursors(), 1u);

  WireWriter close;
  close.u32(cursor_id);
  sock.sendFrame(server::makeFrame(Op::CloseCursor, std::move(close)));
  reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value() && reply->op == Op::Ok);
  EXPECT_EQ(openCursors(), 0u);

  WireWriter fetch;
  fetch.u32(cursor_id);
  fetch.u32(10);
  sock.sendFrame(server::makeFrame(Op::Fetch, std::move(fetch)));
  reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::BadState);
}

TEST_F(ServerTest, MalformedExecutePayloadsGetTypedErrors) {
  // Seeded, so every run sends the same payloads.
  std::mt19937 rng(20051112);
  {
    auto conn = connect();
    conn->exec("CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c REAL)");
    for (int i = 0; i < 20; ++i) {
      conn->execPrepared("INSERT INTO r (a, b, c) VALUES (?, ?, ?)",
                         {minidb::Value(i % 7), minidb::Value("n" + std::to_string(i)),
                          minidb::Value(i * 0.5)});
    }
  }
  server::Socket sock = rawClient();
  WireWriter prep;
  prep.str("SELECT id FROM r WHERE a = ? OR b = ? OR c < ? OR a = ?");
  sock.sendFrame(server::makeFrame(Op::Prepare, std::move(prep)));
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value() && reply->op == Op::StmtOk);
  const std::uint32_t stmt_id = WireReader(reply->payload).u32();

  // One value of every tag: INTEGER, TEXT, REAL, NULL.
  const minidb::Row params = {
      minidb::Value(static_cast<std::int64_t>(rng() % 7)),
      minidb::Value("n" + std::to_string(rng() % 20)),
      minidb::Value(static_cast<double>(rng() % 10)), minidb::Value::null()};
  // Payload = u32 stmt_id, u32 max_rows, u32 n, then the values; records
  // where each value's tag byte lands.
  auto payloadFor = [&](std::uint32_t count, const minidb::Row& values,
                        std::vector<std::size_t>* tags) {
    WireWriter w;
    w.u32(stmt_id);
    w.u32(0);
    w.u32(count);
    for (const minidb::Value& v : values) {
      if (tags != nullptr) tags->push_back(w.size());
      w.value(v);
    }
    return w.take();
  };
  std::vector<std::size_t> tag_offsets;
  const std::vector<std::uint8_t> good = payloadFor(4, params, &tag_offsets);

  auto send = [&](std::vector<std::uint8_t> payload) {
    sock.sendFrame(Frame{Op::Execute, std::move(payload)});
    auto r = sock.recvFrame();
    EXPECT_TRUE(r.has_value());
    return r.value_or(Frame{});
  };
  // After every bad request: the session still serves the good one, and no
  // cursor or gate hold was left behind.
  auto expectHealthy = [&](const std::string& what) {
    const Frame ok = send(good);
    ASSERT_EQ(ok.op, Op::CursorOk) << what;
    WireReader r(ok.payload);
    r.u32();
    ASSERT_EQ(r.u32(), 1u);
    r.str();
    EXPECT_EQ(r.u8(), 1) << what;  // complete inline
    EXPECT_EQ(openCursors(), 0u) << what;
    ASSERT_TRUE(server_->gate().lockExclusive(std::chrono::milliseconds(500))) << what;
    server_->gate().unlockExclusive();
  };
  auto expectError = [&](std::vector<std::uint8_t> payload, ErrCode code,
                         const std::string& what) {
    const Frame bad = send(std::move(payload));
    ASSERT_EQ(bad.op, Op::Error) << what;
    EXPECT_EQ(server::readError(bad).first, code) << what;
    expectHealthy(what);
  };

  expectHealthy("baseline");
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    expectError({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut)},
                ErrCode::Protocol, "truncated at " + std::to_string(cut));
  }
  for (const std::size_t at : tag_offsets) {
    std::vector<std::uint8_t> bad = good;
    bad[at] = static_cast<std::uint8_t>(4 + rng() % 252);  // tags are 0..3
    expectError(std::move(bad), ErrCode::Protocol, "bad tag at " + std::to_string(at));
  }
  const minidb::Row three(params.begin(), params.begin() + 3);
  minidb::Row five = params;
  five.push_back(minidb::Value(std::int64_t{1}));
  expectError(payloadFor(3, three, nullptr), ErrCode::Sql, "3 of 4 params");
  expectError(payloadFor(5, five, nullptr), ErrCode::Sql, "5 of 4 params");
  expectError(payloadFor(0, {}, nullptr), ErrCode::Sql, "0 of 4 params");
  expectError(payloadFor(3, params, nullptr), ErrCode::Protocol, "count 3, 4 values");
  expectError(payloadFor(0xffffffffu, params, nullptr), ErrCode::Protocol,
              "count beyond the payload");
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(static_cast<std::uint8_t>(rng()));
  expectError(std::move(trailing), ErrCode::Protocol, "trailing byte");
}

TEST_F(ServerTest, VersionOneClientIsRefusedByName) {
  server::Socket sock =
      server::connectTo(target_, std::chrono::milliseconds(5000));
  WireWriter hello;
  hello.u32(1);
  sock.sendFrame(server::makeFrame(Op::Hello, std::move(hello)));
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  const auto [code, message] = server::readError(*reply);
  EXPECT_EQ(code, ErrCode::Protocol);
  EXPECT_NE(message.find("version 1"), std::string::npos) << message;
  EXPECT_NE(message.find("speaks " + std::to_string(server::kProtocolVersion)),
            std::string::npos)
      << message;
  EXPECT_EQ(server::kProtocolVersion, 2u);

  // Opcode 3 (version 1's BIND) is gone.
  server::Socket v2 = rawClient();
  v2.sendFrame(Frame{static_cast<Op>(3), {}});
  reply = v2.recvFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->op, Op::Error);
  EXPECT_EQ(server::readError(*reply).first, ErrCode::UnknownOpcode);
}

TEST_F(ServerTest, AbandonedCursorReleasesLockOnDisconnect) {
  auto writer = connect();
  fillTable(*writer, kMultiBatchRows);
  {
    auto reader = connect();
    auto cur = reader->query("SELECT v FROM t");
    minidb::Row row;
    ASSERT_TRUE(cur.next(row));
    ASSERT_EQ(openCursors(), 1u);
    // Abrupt disconnect with the cursor (and its shared gate hold) still
    // open: kill the connection first, so the cursor never sends CLOSE.
    reader.reset();
  }
  // The disconnect teardown released the hold; a write must get through
  // within the lock timeout.
  writer->exec("INSERT INTO t VALUES (-1)");
  EXPECT_EQ(writer->queryInt("SELECT COUNT(*) FROM t"), kMultiBatchRows + 1);
}

TEST_F(ServerTest, RemoteShutdownDrains) {
  auto conn = connect();
  conn->exec("CREATE TABLE t (v INTEGER)");
  dynamic_cast<RemoteConnection&>(*conn).shutdownServer();
  server_->waitUntilStopped();
  EXPECT_FALSE(server_->running());
  // The store is still intact in-process.
  minidb::sql::Engine engine(*db_);
  EXPECT_EQ(engine.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt(), 0);
}

TEST(ServerLimits, ConnectionCapSendsBusy) {
  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.port = 0;
  config.max_connections = 2;
  server::PtServer srv(*db, config);
  srv.start();
  const std::string target = "127.0.0.1:" + std::to_string(srv.boundPort());

  auto a = Connection::open("pt://" + target);
  auto b = Connection::open("pt://" + target);
  // Third connection: the server answers with a BUSY error frame and closes.
  EXPECT_THROW(Connection::open("pt://" + target), dbal::ServerBusyError);
  srv.stop();
}

TEST(ServerLimits, UnixSocketEndToEnd) {
  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.tcp = false;
  config.unix_path = ::testing::TempDir() + "ptserverd_test.sock";
  server::PtServer srv(*db, config);
  srv.start();

  auto conn = Connection::open("pt://unix:" + config.unix_path);
  conn->exec("CREATE TABLE t (v INTEGER)");
  conn->exec("INSERT INTO t VALUES (9)");
  EXPECT_EQ(conn->queryInt("SELECT v FROM t"), 9);
  srv.stop();
}

}  // namespace
}  // namespace perftrack
