// The DIFF wire verb: a remote dbal::Connection::diff() against ptserverd
// must reproduce the in-process engine's report byte-for-byte (stats, row
// order, REAL fidelity), honor the request knobs, map unknown executions to
// SqlError, and leave no server-side cursor behind.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>

#include "core/datastore.h"
#include "core/diag.h"
#include "dbal/connection.h"
#include "dbal/remote.h"
#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/error.h"

namespace perftrack {
namespace {

class DiffWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = minidb::Database::openMemory();
    server::ServerConfig config;
    config.port = 0;
    server_ = std::make_unique<server::PtServer>(*db_, config);
    server_->start();
    conn_ = dbal::Connection::open("pt://127.0.0.1:" +
                                   std::to_string(server_->boundPort()));
    store_ = std::make_unique<core::PTDataStore>(*conn_);
    store_->initialize();

    // Two runs with per-run execution resources plus a planted divergence.
    for (const char* exec : {"runA", "runB"}) {
      const bool is_b = exec == std::string("runB");
      store_->addExecution(exec, "app");
      const std::string root = std::string("/") + exec;
      store_->addResource(root + "/p0", "execution/process");
      store_->addResource(root + "/p1", "execution/process");
      addResult(exec, root + "/p0", "wall_ms", is_b ? 250.0 : 100.0);
      addResult(exec, root + "/p1", "wall_ms", is_b ? 55.0 : 50.0);
      addResult(exec, root + "/p0", "rss_kb", 2048.0);
    }
    addResult("runA", "/runA/p1", "a_only_metric", 1.0);
  }

  void addResult(const std::string& exec, const std::string& resource,
                 const std::string& metric, double value) {
    store_->addPerformanceResult(exec, {{{resource}, core::FocusType::Primary}},
                                 "tool", metric, value);
  }

  void TearDown() override {
    store_.reset();
    conn_.reset();
    server_->stop();
  }

  core::diag::Request request(std::uint32_t top_k = 0, double ratio = 0.10,
                              double abs = 0.0) {
    core::diag::Request r;
    r.exec_a = "runA";
    r.exec_b = "runB";
    r.top_k = top_k;
    r.ratio_threshold = ratio;
    r.abs_threshold = abs;
    return r;
  }

  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> server_;
  std::unique_ptr<dbal::Connection> conn_;
  std::unique_ptr<core::PTDataStore> store_;
};

TEST_F(DiffWireTest, WireReportMatchesLocalEngineByteForByte) {
  const auto remote = conn_->diff(request());
  minidb::sql::Engine engine(*db_);
  const auto local = core::diag::diagnose(engine, request());
  EXPECT_EQ(remote.toText(), local.toText());
  EXPECT_EQ(remote.stats.results_a, local.stats.results_a);
  EXPECT_EQ(remote.stats.aligned, local.stats.aligned);
  EXPECT_EQ(remote.stats.only_a, local.stats.only_a);
  EXPECT_EQ(remote.stats.divergent, local.stats.divergent);
  ASSERT_EQ(remote.rows.size(), local.rows.size());
  for (std::size_t i = 0; i < remote.rows.size(); ++i) {
    EXPECT_EQ(remote.rows[i].metric, local.rows[i].metric);
    EXPECT_EQ(remote.rows[i].context, local.rows[i].context);
    // REAL fidelity over the wire: exact, not formatted-and-reparsed.
    EXPECT_EQ(remote.rows[i].value_a, local.rows[i].value_a);
    EXPECT_EQ(remote.rows[i].value_b, local.rows[i].value_b);
    EXPECT_EQ(remote.rows[i].ratio, local.rows[i].ratio);
    EXPECT_EQ(remote.rows[i].contribution_pct, local.rows[i].contribution_pct);
  }
}

TEST_F(DiffWireTest, PlantedDivergenceIsRankedFirst) {
  const auto report = conn_->diff(request());
  ASSERT_GE(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].metric, "wall_ms");
  EXPECT_EQ(report.rows[0].context, "/$EXEC/p0");
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 2.5);
  EXPECT_EQ(report.stats.only_a, 1u);  // a_only_metric
}

TEST_F(DiffWireTest, KnobsSurviveTheWire) {
  // 10% threshold keeps both wall_ms changes; 50% keeps only the 2.5x one.
  EXPECT_EQ(conn_->diff(request(0, 0.05)).rows.size(), 2u);
  EXPECT_EQ(conn_->diff(request(0, 0.50)).rows.size(), 1u);
  const auto top = conn_->diff(request(1, 0.05));
  EXPECT_EQ(top.rows.size(), 1u);
  EXPECT_EQ(top.stats.divergent, 2u);
}

TEST_F(DiffWireTest, UnknownExecutionMapsToSqlError) {
  core::diag::Request bad = request();
  bad.exec_b = "no-such-run";
  EXPECT_THROW(conn_->diff(bad), util::SqlError);
  // The session must stay usable after the error.
  EXPECT_EQ(conn_->diff(request()).stats.aligned, 3u);
}

TEST_F(DiffWireTest, BadThresholdsMapToSqlErrorWithTheLocalMessage) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  minidb::sql::Engine engine(*db_);
  for (const auto& bad : {request(0, nan), request(0, inf), request(0, -1.0),
                          request(0, 0.10, nan), request(0, 0.10, inf)}) {
    std::string local_message;
    try {
      (void)core::diag::diagnose(engine, bad);
    } catch (const util::ModelError& e) {
      local_message = e.what();
    }
    ASSERT_FALSE(local_message.empty());
    try {
      (void)conn_->diff(bad);
      ADD_FAILURE() << "remote DIFF accepted " << local_message;
    } catch (const util::SqlError& e) {
      EXPECT_EQ(std::string(e.what()), local_message);
    }
    // The session keeps serving after each rejection.
    EXPECT_EQ(conn_->diff(request()).stats.aligned, 3u);
  }
}

TEST_F(DiffWireTest, NonNumericThresholdIsAProtocolError) {
  server::Socket sock = server::connectTo(
      "127.0.0.1:" + std::to_string(server_->boundPort()),
      std::chrono::milliseconds(5000));
  server::WireWriter hello;
  hello.u32(server::kProtocolVersion);
  sock.sendFrame(server::makeFrame(server::Op::Hello, std::move(hello)));
  ASSERT_TRUE(sock.recvFrame().has_value());

  for (const minidb::Value& bad : {minidb::Value("0.1"), minidb::Value::null()}) {
    server::WireWriter w;
    w.str("runA");
    w.str("runB");
    w.u32(0);
    w.value(bad);
    w.value(minidb::Value(0.0));
    sock.sendFrame(server::makeFrame(server::Op::Diff, std::move(w)));
    auto reply = sock.recvFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->op, server::Op::Error);
    EXPECT_EQ(server::readError(*reply).first, server::ErrCode::Protocol);
  }
  // Same connection, well-formed request: still served.
  server::WireWriter w;
  w.str("runA");
  w.str("runB");
  w.u32(0);
  w.value(minidb::Value(std::int64_t{0}));  // integers are numbers too
  w.value(minidb::Value(0.0));
  sock.sendFrame(server::makeFrame(server::Op::Diff, std::move(w)));
  auto reply = sock.recvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op, server::Op::DiffOk);
  EXPECT_EQ(conn_->diff(request()).stats.aligned, 3u);
}

TEST_F(DiffWireTest, DiffLeaksNoServerCursor) {
  for (int i = 0; i < 5; ++i) (void)conn_->diff(request());
  EXPECT_EQ(server_->counters().open_cursors.load(), 0u);
}

}  // namespace
}  // namespace perftrack
