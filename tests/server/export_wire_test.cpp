// PTdf export over ptserverd (`ptexport --connect`): exportExecution through
// a remote session must write the same bytes as the local exporter on an
// identically loaded store, in a bounded number of round trips that does
// not grow with the exported line count.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/datastore.h"
#include "dbal/connection.h"
#include "minidb/database.h"
#include "ptdf/export.h"
#include "ptdf/ptdf.h"
#include "server/server.h"
#include "sim/irs_gen.h"
#include "sim/machines.h"
#include "sim/paradyn_gen.h"
#include "tools/irs_parser.h"
#include "tools/paradyn_parser.h"
#include "util/error.h"
#include "util/tempdir.h"

namespace perftrack {
namespace {

/// Round trips one remote export may take, whatever its size: every
/// statement prepared (first use) and executed once, with room for the
/// IN-list chunks of a larger resource closure.
constexpr std::uint64_t kMaxFramesPerExport = 32;

class ExportWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = minidb::Database::openMemory();
    server::ServerConfig config;
    config.port = 0;
    server_ = std::make_unique<server::PtServer>(*db_, config);
    server_->start();
    remote_conn_ = dbal::Connection::open("pt://127.0.0.1:" +
                                          std::to_string(server_->boundPort()));
    remote_ = std::make_unique<core::PTDataStore>(*remote_conn_);
    remote_->initialize();
    local_conn_ = dbal::Connection::open(":memory:");
    local_ = std::make_unique<core::PTDataStore>(*local_conn_);
    local_->initialize();

    // The same PTdf, loaded in the same order, gives both stores the same
    // rows under the same ids.
    util::TempDir workspace("export-wire");
    std::ostringstream text;
    ptdf::Writer writer(text);
    irs_exec_ = sim::generateIrsRun({sim::frostConfig(), 16, "MPI", 1, ""},
                                    workspace.file("irs"))
                    .exec_name;
    tools::convertIrsRun(workspace.file("irs"), sim::frostConfig(), writer);
    sim::ParadynRunSpec pd;
    pd.machine = sim::mcrConfig();
    pd.nprocs = 4;
    pd.histogram_bins = 40;
    pd.metric_focus_pairs = 10;
    pd.code_resources = 120;
    paradyn_exec_ = sim::generateParadynRun(pd, workspace.file("pd")).exec_name;
    tools::convertParadynRun(workspace.file("pd"), paradyn_exec_, "app", writer,
                             tools::BinMode::HistogramResults);
    for (core::PTDataStore* store : {local_.get(), remote_.get()}) {
      std::istringstream in(text.str());
      ptdf::load(*store, in);
    }
  }

  void TearDown() override {
    remote_.reset();
    remote_conn_.reset();
    server_->stop();
  }

  static std::string exported(core::PTDataStore& store, const std::string& exec,
                              std::size_t* lines = nullptr) {
    std::ostringstream out;
    ptdf::Writer writer(out);
    ptdf::exportExecution(store, exec, writer);
    if (lines != nullptr) *lines = writer.linesWritten();
    return out.str();
  }

  std::uint64_t frames() const { return server_->counters().frames_served.load(); }

  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> server_;
  std::unique_ptr<dbal::Connection> remote_conn_;
  std::unique_ptr<core::PTDataStore> remote_;
  std::unique_ptr<dbal::Connection> local_conn_;
  std::unique_ptr<core::PTDataStore> local_;
  std::string irs_exec_;
  std::string paradyn_exec_;
};

TEST_F(ExportWireTest, RemoteExportIsByteIdenticalToLocal) {
  const std::string irs = exported(*remote_, irs_exec_);
  EXPECT_EQ(irs, exported(*local_, irs_exec_));
  const std::string paradyn = exported(*remote_, paradyn_exec_);
  EXPECT_NE(paradyn.find("PerfHistogram"), std::string::npos);
  EXPECT_EQ(paradyn, exported(*local_, paradyn_exec_));
}

TEST_F(ExportWireTest, RemoteExportTakesABoundedNumberOfFrames) {
  // A fresh session: every statement is prepared on first use.
  auto conn = dbal::Connection::open("pt://127.0.0.1:" +
                                     std::to_string(server_->boundPort()));
  core::PTDataStore store(*conn);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "first export" : "cached statements");
    std::size_t lines = 0;
    const std::uint64_t f0 = frames();
    exported(store, irs_exec_, &lines);
    const std::uint64_t used = frames() - f0;
    EXPECT_GE(lines, 1000u);
    EXPECT_LE(used, kMaxFramesPerExport) << lines << " lines";
  }
}

TEST_F(ExportWireTest, UnknownExecutionFailsWithTheLocalMessage) {
  for (core::PTDataStore* store : {local_.get(), remote_.get()}) {
    try {
      exported(*store, "no-such-run");
      FAIL() << "expected ModelError";
    } catch (const util::ModelError& e) {
      EXPECT_STREQ(e.what(), "no such execution: no-such-run");
    }
  }
}

}  // namespace
}  // namespace perftrack
