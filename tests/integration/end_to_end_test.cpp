// Integration tests: the full pipeline for each supported data source —
// generate tool output, batch-convert through the PTdfGen driver, load into
// a *file-backed* store, reopen it from disk, and query — plus a combined
// multi-tool store mirroring the paper's "single performance analysis
// session" claim.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

#include "analyze/compare.h"
#include "core/query_session.h"
#include "dbal/schema.h"
#include "ptdf/ptdf.h"
#include "util/error.h"
#include "sim/irs_gen.h"
#include "sim/paradyn_gen.h"
#include "sim/smg_gen.h"
#include "tools/ptdfgen.h"
#include "util/tempdir.h"

namespace perftrack {
namespace {

/// (kind, machine) pairs covering every converter and platform combination.
/// std::string, not const char*: gtest prints a string parameter's value but
/// a char pointer's address, and the printed value is part of the test name.
class PipelineTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(PipelineTest, GenerateConvertLoadReopenQuery) {
  const auto& [kind, machine_name] = GetParam();
  util::TempDir workspace("pipeline");
  const sim::MachineConfig machine = tools::machineByName(machine_name);

  // 1. Generate the run and a PTdfGen index entry for it.
  std::string exec_name;
  const auto run_dir = workspace.file("run");
  if (kind == "irs") {
    exec_name = sim::generateIrsRun({machine, 8, "MPI", 2, ""}, run_dir).exec_name;
  } else if (kind == "smg") {
    sim::SmgRunSpec spec;
    spec.machine = machine;
    spec.nprocs = 8;
    spec.with_mpip = machine.name == "UV";
    spec.with_pmapi = machine.name == "UV";
    spec.seed = 2;
    exec_name = sim::generateSmgRun(spec, run_dir).exec_name;
  } else {
    sim::ParadynRunSpec spec;
    spec.machine = machine;
    spec.nprocs = 4;
    spec.seed = 2;
    spec.metric_focus_pairs = 6;
    spec.histogram_bins = 50;
    spec.code_resources = 100;
    exec_name = sim::generateParadynRun(spec, run_dir).exec_name;
  }
  const auto index = workspace.file("index.txt");
  {
    std::ofstream out(index);
    out << kind << " " << run_dir.string() << " " << machine_name;
    if (kind == "paradyn") out << " " << exec_name;
    out << "\n";
  }

  // 2. Batch-convert.
  const auto generated = tools::generateFromIndex(index, workspace.file("ptdf"));
  ASSERT_EQ(generated.size(), 1u);
  EXPECT_GT(generated[0].perf_results, 0u);

  // 3. Load into a file-backed store.
  const std::string db_path = workspace.file("store.db").string();
  {
    auto conn = dbal::Connection::open(db_path);
    core::PTDataStore store(*conn);
    store.initialize();
    conn->begin();
    const auto stats = ptdf::loadFile(store, generated[0].ptdf_file.string());
    conn->commit();
    EXPECT_EQ(stats.perf_results, generated[0].perf_results);
  }

  // 4. Reopen from disk; everything must still be there and queryable.
  auto conn = dbal::Connection::open(db_path);
  core::PTDataStore store(*conn);
  ASSERT_TRUE(dbal::hasPerfTrackSchema(*conn));
  const auto execs = store.executions();
  ASSERT_EQ(execs.size(), 1u);
  EXPECT_EQ(execs[0], exec_name);
  EXPECT_EQ(store.resultsForExecution(exec_name).size(), generated[0].perf_results);

  core::QuerySession session(store);
  session.addFamily(core::ResourceFilter::byName("/" + exec_name,
                                                 core::Expansion::Descendants));
  EXPECT_GT(session.totalMatchCount(), 0u);
  core::ResultTable table = session.run();
  EXPECT_EQ(table.size(), session.totalMatchCount());
}

INSTANTIATE_TEST_SUITE_P(
    Sources, PipelineTest,
    ::testing::Values(std::pair<std::string, std::string>{"irs", "frost"},
                      std::pair<std::string, std::string>{"irs", "mcr"},
                      std::pair<std::string, std::string>{"smg", "bgl"},
                      std::pair<std::string, std::string>{"smg", "uv"},
                      std::pair<std::string, std::string>{"paradyn", "mcr"}));

TEST(CombinedStore, ThreeToolsInOneAnalysisSession) {
  // The paper's headline: "data collected in different locations and
  // formats can be compared and viewed in a single performance analysis
  // session". Load IRS, SMG (BGL + UV w/ mpiP+PMAPI), and Paradyn data into
  // one store and cross-query.
  util::TempDir workspace("combined");
  auto conn = dbal::Connection::open(":memory:");
  core::PTDataStore store(*conn);
  store.initialize();

  auto loadEntry = [&](const tools::IndexEntry& entry) {
    const auto gen = tools::generateEntry(entry, workspace.file("out"));
    return ptdf::loadFile(store, gen.ptdf_file.string());
  };

  sim::generateIrsRun({sim::frostConfig(), 8, "MPI", 1, ""}, workspace.file("irs"));
  loadEntry({"irs", workspace.file("irs"), "frost", ""});

  sim::SmgRunSpec smg;
  smg.machine = sim::uvConfig();
  smg.nprocs = 8;
  smg.with_mpip = true;
  smg.with_pmapi = true;
  sim::generateSmgRun(smg, workspace.file("smg"));
  loadEntry({"smg", workspace.file("smg"), "uv", ""});

  sim::ParadynRunSpec pd;
  pd.machine = sim::mcrConfig();
  pd.nprocs = 4;
  pd.metric_focus_pairs = 4;
  pd.histogram_bins = 40;
  pd.code_resources = 60;
  const auto pd_run = sim::generateParadynRun(pd, workspace.file("pd"));
  loadEntry({"paradyn", workspace.file("pd"), "mcr", pd_run.exec_name});

  // Five tools contributed results.
  const auto rs = conn->exec("SELECT COUNT(DISTINCT name) FROM performance_tool");
  EXPECT_GE(rs.rows[0][0].asInt(), 5);  // IRS-benchmark, SMG2000, PMAPI, mpiP, Paradyn
  EXPECT_EQ(store.executions().size(), 3u);

  // One query spanning data from different tools: everything measured on a
  // build-hierarchy function, regardless of origin.
  core::QuerySession session(store);
  session.addFamily(core::ResourceFilter::byType("build/module/function"));
  core::ResultTable table = session.run();
  std::set<std::string> tools_seen;
  for (const auto& row : table.rows()) tools_seen.insert(row.tool);
  EXPECT_GE(tools_seen.size(), 3u);  // IRS timings, mpiP callsites, Paradyn bins
}

TEST(CombinedStore, TransactionalLoadRollsBackCleanly) {
  // A failed load must leave no partial execution behind.
  util::TempDir workspace("txn-load");
  auto conn = dbal::Connection::open(":memory:");
  core::PTDataStore store(*conn);
  store.initialize();
  const auto good = workspace.file("good.ptdf");
  {
    std::ofstream out(good);
    ptdf::Writer writer(out);
    writer.application("app");
    writer.execution("ok-run", "app");
    writer.resource("/ok-run", "execution");
    writer.perfResult("ok-run", {{{"/ok-run"}, core::FocusType::Primary}}, "t", "m",
                      1.0, "s");
  }
  const auto bad = workspace.file("bad.ptdf");
  {
    std::ofstream out(bad);
    ptdf::Writer writer(out);
    writer.application("app");
    writer.execution("bad-run", "app");
    writer.resource("/bad-run", "execution");
    writer.perfResult("bad-run", {{{"/bad-run"}, core::FocusType::Primary}}, "t", "m",
                      1.0, "s");
    out << "PerfResult bad-run /ghost(primary) t m 1 s\n";  // unknown resource
  }
  conn->begin();
  ptdf::loadFile(store, good.string());
  conn->commit();

  conn->begin();
  EXPECT_THROW(ptdf::loadFile(store, bad.string()), util::ParseError);
  conn->rollback();
  store.clearCache();  // caches may hold rolled-back ids

  EXPECT_EQ(store.executions(), std::vector<std::string>{"ok-run"});
  EXPECT_FALSE(store.findResource("/bad-run").has_value());
  // The store remains fully usable.
  EXPECT_EQ(store.resultsForExecution("ok-run").size(), 1u);
}

}  // namespace
}  // namespace perftrack
