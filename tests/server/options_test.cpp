// The execution-option table (minidb/sql/options.h) across backends: for
// every row, a local and a remote connection accept and refuse the same
// values with the same SqlError, the server applies the same table to raw
// SET_OPTION frames, and the client's frames keep the protocol-v2 bytes.
#include "minidb/sql/options.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dbal/connection.h"
#include "minidb/database.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/error.h"

namespace perftrack {
namespace {

using minidb::sql::OptionSpec;
using minidb::sql::optionTable;
using server::ErrCode;
using server::Frame;
using server::Op;
using server::WireWriter;

enum class Edge { BelowMin, Min, Max, AboveMax };

std::int64_t edgeValue(const OptionSpec& spec, Edge edge) {
  switch (edge) {
    case Edge::BelowMin: return spec.min - 1;
    case Edge::Min: return spec.min;
    case Edge::Max: return spec.max;
    case Edge::AboveMax: return spec.max + 1;
  }
  return 0;
}

const char* edgeName(Edge edge) {
  switch (edge) {
    case Edge::BelowMin: return "BelowMin";
    case Edge::Min: return "Min";
    case Edge::Max: return "Max";
    case Edge::AboveMax: return "AboveMax";
  }
  return "?";
}

void PrintTo(Edge edge, std::ostream* os) { *os << edgeName(edge); }

/// "ok", or "SqlError: <message>"; any other exception fails the test.
std::string outcome(const std::function<void()>& fn) {
  try {
    fn();
    return "ok";
  } catch (const util::SqlError& e) {
    return std::string("SqlError: ") + e.what();
  }
}

Frame setOptionFrame(std::uint8_t id, std::int64_t value) {
  WireWriter w;
  w.u8(id);
  w.i64(value);
  return server::makeFrame(Op::SetOption, std::move(w));
}

/// One in-memory store behind one server, plus a local in-memory store.
class OptionBackends : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = minidb::Database::openMemory();
    server::ServerConfig config;
    config.port = 0;
    config.workers = 2;
    server_ = std::make_unique<server::PtServer>(*db_, config);
    server_->start();
    target_ = "127.0.0.1:" + std::to_string(server_->boundPort());
    local_ = dbal::Connection::open(":memory:");
    remote_ = dbal::Connection::open("pt://" + target_);
  }

  void TearDown() override {
    remote_.reset();
    server_->stop();
  }

  /// Sends one SET_OPTION on a fresh raw session and returns the reply.
  Frame rawSetOption(std::uint8_t id, std::int64_t value) {
    server::Socket sock = server::connectTo(target_, std::chrono::milliseconds(5000));
    WireWriter hello;
    hello.u32(server::kProtocolVersion);
    sock.sendFrame(server::makeFrame(Op::Hello, std::move(hello)));
    EXPECT_EQ(sock.recvFrame()->op, Op::HelloOk);
    sock.sendFrame(setOptionFrame(id, value));
    return *sock.recvFrame();
  }

  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> server_;
  std::string target_;
  std::unique_ptr<dbal::Connection> local_;
  std::unique_ptr<dbal::Connection> remote_;
};

class OptionEdgeTest : public OptionBackends,
                       public ::testing::WithParamInterface<std::tuple<std::size_t, Edge>> {};

TEST_P(OptionEdgeTest, LocalAndRemoteAgree) {
  const auto [row, edge] = GetParam();
  const OptionSpec& spec = optionTable()[row];
  const std::int64_t value = edgeValue(spec, edge);
  const bool in_range = edge == Edge::Min || edge == Edge::Max;

  const std::string local = outcome([&] { local_->setOption(spec.name, value); });
  const std::string remote = outcome([&] { remote_->setOption(spec.name, value); });
  EXPECT_EQ(local, remote);
  if (in_range) {
    EXPECT_EQ(local, "ok");
  } else {
    EXPECT_EQ(local, "SqlError: option " + std::string(spec.name) + " must be in [" +
                         std::to_string(spec.min) + ", " + std::to_string(spec.max) +
                         "], got " + std::to_string(value));
  }

  // The server validates too: a frame the client would have refused gets
  // the same message under ErrCode::Sql.
  const Frame reply = rawSetOption(static_cast<std::uint8_t>(row + 1), value);
  if (in_range) {
    EXPECT_EQ(reply.op, Op::Ok);
  } else {
    ASSERT_EQ(reply.op, Op::Error);
    const auto [code, message] = server::readError(reply);
    EXPECT_EQ(code, ErrCode::Sql);
    EXPECT_EQ("SqlError: " + message, local);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryRow, OptionEdgeTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, minidb::sql::kOptionCount),
                       ::testing::Values(Edge::BelowMin, Edge::Min, Edge::Max,
                                         Edge::AboveMax)),
    [](const ::testing::TestParamInfo<OptionEdgeTest::ParamType>& info) {
      return std::string(optionTable()[std::get<0>(info.param)].name) + "_" +
             edgeName(std::get<1>(info.param));
    });

TEST_F(OptionBackends, UnknownNameIsSqlErrorOnBothSides) {
  const std::string local = outcome([&] { local_->setOption("exec_bogus", 1); });
  EXPECT_EQ(local, "SqlError: unknown option 'exec_bogus'");
  EXPECT_EQ(outcome([&] { remote_->setOption("exec_bogus", 1); }), local);
}

TEST_F(OptionBackends, UnknownWireIdIsProtocolError) {
  for (const std::uint8_t id : {std::uint8_t{0}, std::uint8_t{6}, std::uint8_t{255}}) {
    const Frame reply = rawSetOption(id, 1);
    ASSERT_EQ(reply.op, Op::Error);
    EXPECT_EQ(server::readError(reply).first, ErrCode::Protocol) << int(id);
  }
}

// SessionLimits::exec_options (ptserverd's --<option> flags) seed every new
// session's engine.
TEST(OptionServerDefaults, SeedNewSessions) {
  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.port = 0;
  config.limits.exec_options.use_indexes = false;
  server::PtServer srv(*db, config);
  srv.start();
  {
    auto conn = dbal::Connection::open("pt://127.0.0.1:" + std::to_string(srv.boundPort()));
    conn->exec("CREATE TABLE t (v INTEGER)");
    conn->exec("CREATE INDEX t_v ON t (v)");
    const auto plan = [&] {
      std::string text;
      for (const auto& row : conn->exec("EXPLAIN SELECT v FROM t WHERE v = 1").rows) {
        text += row[0].asText() + "\n";
      }
      return text;
    };
    EXPECT_EQ(plan().find("USING INDEX"), std::string::npos) << plan();
    conn->setOption("use_indexes", 1);
    EXPECT_NE(plan().find("USING INDEX"), std::string::npos) << plan();
  }
  srv.stop();
}

// The client's SET_OPTION frames for the protocol-v2 ids (1-4) are byte for
// byte what v2 clients sent: opcode 8, {u8 id, i64 value little-endian}.
TEST(OptionWire, SetOptionFramesMatchProtocolV2) {
  server::Listener listener = server::Listener::tcp("127.0.0.1", 0);
  std::vector<Frame> seen;
  std::thread peer([&] {
    server::Socket sock = listener.accept();
    auto hello = sock.recvFrame();
    ASSERT_TRUE(hello.has_value());
    WireWriter w;
    w.u32(server::kProtocolVersion);
    w.str("capture");
    sock.sendFrame(server::makeFrame(Op::HelloOk, std::move(w)));
    while (auto frame = sock.recvFrame()) {
      seen.push_back(*frame);
      sock.sendFrame(Frame{Op::Ok, {}});
    }
  });
  // No exception may skip the join below.
  EXPECT_NO_THROW({
    auto conn = dbal::Connection::open("pt://127.0.0.1:" +
                                       std::to_string(listener.boundPort()));
    conn->setOption("use_indexes", 0);
    conn->setOption("exec_threads", 8);
    conn->setOption("exec_batch_rows", 256);
    conn->setInvidxEnabled(true);
  });
  peer.join();

  const std::vector<std::vector<std::uint8_t>> expected = {
      {1, 0, 0, 0, 0, 0, 0, 0, 0},
      {2, 8, 0, 0, 0, 0, 0, 0, 0},
      {3, 0, 1, 0, 0, 0, 0, 0, 0},
      {4, 1, 0, 0, 0, 0, 0, 0, 0},
  };
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<int>(seen[i].op), 8);
    EXPECT_EQ(seen[i].payload, expected[i]) << "frame " << i;
  }
}

}  // namespace
}  // namespace perftrack
