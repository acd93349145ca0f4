// Differential test of the set-at-a-time PTdf exporter (ptdf::exportStore,
// ptdf::exportExecution) against a per-result oracle: a minimal copy of the
// exporter that reads every result, focus, member, resource, attribute and
// histogram one at a time through PTDataStore.
//
// Both must write the same bytes, and fail with the same message when a
// result's metric, tool or resource row is missing. Seeded random stores
// cover the ordering contract's edge cases: results with zero, one and
// several foci, foci shared across results (so a result's link order is
// not its focus-id order), empty foci, duplicate attribute names,
// resource-typed attributes, histograms with NaN holes and duplicate bins.
// Simulated IRS, SMG and Paradyn runs cover realistic shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/datastore.h"
#include "core/typesystem.h"
#include "dbal/connection.h"
#include "minidb/sql/row_batch.h"
#include "ptdf/export.h"
#include "ptdf/ptdf.h"
#include "sim/irs_gen.h"
#include "sim/paradyn_gen.h"
#include "sim/smg_gen.h"
#include "tools/paradyn_parser.h"
#include "tools/ptdfgen.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack::ptdf {
namespace {

// --- the oracle ---------------------------------------------------------------

namespace oracle {

const std::set<std::string>& baseTypePaths() {
  static const std::set<std::string> kBase = [] {
    std::set<std::string> base;
    for (const std::string& path : core::baseHierarchicalTypes()) {
      std::string prefix;
      for (const std::string& segment : core::splitTypePath(path)) {
        if (!prefix.empty()) prefix.push_back('/');
        prefix.append(segment);
        base.insert(prefix);
      }
    }
    for (const std::string& path : core::baseSingleLevelTypes()) base.insert(path);
    return base;
  }();
  return kBase;
}

void emitResource(core::PTDataStore& store, Writer& writer,
                  const core::ResourceInfo& info) {
  writer.resource(info.full_name, info.type_path);
  for (const core::AttributeInfo& attr : store.attributesOf(info.id)) {
    if (attr.attr_type == "resource") continue;
    writer.resourceAttribute(info.full_name, attr.name, attr.value, attr.attr_type);
  }
}

void emitResults(core::PTDataStore& store, const std::string& exec_name, Writer& writer) {
  dbal::Connection& conn = store.connection();
  for (std::int64_t id : store.resultsForExecution(exec_name)) {
    const core::PerfResultRecord rec = store.getResult(id);
    std::vector<core::ResourceSetSpec> sets;
    for (const minidb::Row& focus :
         conn.execPrepared(
                 "SELECT focus_id FROM performance_result_has_focus WHERE result_id = ?",
                 {minidb::Value(id)})
             .rows) {
      core::ResourceSetSpec spec;
      for (const minidb::Row& member :
           conn.execPrepared(
                   "SELECT resource_id, focus_type FROM focus_has_resource "
                   "WHERE focus_id = ?",
                   {focus[0]})
               .rows) {
        spec.resource_names.push_back(store.resourceInfo(member[0].asInt()).full_name);
        spec.set_type = core::focusTypeFromName(member[1].asText());
      }
      if (!spec.resource_names.empty()) sets.push_back(std::move(spec));
    }
    if (const auto hist = store.getHistogram(id)) {
      std::vector<double> bins(static_cast<std::size_t>(hist->num_bins),
                               std::numeric_limits<double>::quiet_NaN());
      for (const auto& [bin, value] : hist->bins) {
        bins.at(static_cast<std::size_t>(bin)) = value;
      }
      writer.perfHistogram(exec_name, sets, rec.tool, rec.metric, hist->bin_width,
                           rec.units, bins);
    } else {
      writer.perfResult(exec_name, sets, rec.tool, rec.metric, rec.value, rec.units,
                        rec.start_time, rec.end_time);
    }
  }
}

void exportStore(core::PTDataStore& store, Writer& writer) {
  dbal::Connection& conn = store.connection();
  writer.comment("PTdf export: full store");
  for (const std::string& type : store.resourceTypes()) {
    if (!baseTypePaths().contains(type)) writer.resourceType(type);
  }
  for (const minidb::Row& row :
       conn.exec("SELECT e.name, a.name FROM execution e JOIN application a "
                 "ON e.application_id = a.id ORDER BY e.id")
           .rows) {
    writer.application(row[1].asText());
    writer.execution(row[0].asText(), row[1].asText());
  }
  const auto ids = conn.exec("SELECT id FROM resource_item ORDER BY id").rows;
  for (const minidb::Row& row : ids) {
    emitResource(store, writer, store.resourceInfo(row[0].asInt()));
  }
  for (const minidb::Row& row : ids) {
    const core::ResourceInfo info = store.resourceInfo(row[0].asInt());
    for (core::ResourceId other : store.constraintsOf(info.id)) {
      writer.resourceConstraint(info.full_name, store.resourceInfo(other).full_name);
    }
  }
  for (const std::string& exec : store.executions()) emitResults(store, exec, writer);
}

/// The exporter as it was before set-at-a-time reads, except that it does
/// not write an empty export for an unknown or result-less execution.
void exportExecution(core::PTDataStore& store, const std::string& exec_name,
                     Writer& writer) {
  writer.comment("PTdf export: execution " + exec_name);
  std::set<core::ResourceId> needed;
  for (std::int64_t id : store.resultsForExecution(exec_name)) {
    for (const auto& context : store.getResult(id).contexts) {
      for (core::ResourceId rid : context) {
        if (!needed.insert(rid).second) continue;
        for (core::ResourceId anc : store.ancestorsOf(rid)) needed.insert(anc);
      }
    }
  }
  std::vector<core::ResourceInfo> infos;
  for (core::ResourceId rid : needed) infos.push_back(store.resourceInfo(rid));
  std::set<std::string> types;
  for (const core::ResourceInfo& info : infos) types.insert(info.type_path);
  for (const std::string& type : types) {
    if (!baseTypePaths().contains(type)) writer.resourceType(type);
  }
  const auto ids = store.resultsForExecution(exec_name);
  const std::string app = store.getResult(ids.at(0)).application;
  writer.application(app);
  writer.execution(exec_name, app);
  for (const core::ResourceInfo& info : infos) emitResource(store, writer, info);
  emitResults(store, exec_name, writer);
}

}  // namespace oracle

// --- helpers --------------------------------------------------------------------

/// The PTdf `fn` writes, or "error: <message>" when it throws.
std::string render(const std::function<void(Writer&)>& fn) {
  std::ostringstream out;
  Writer writer(out);
  try {
    fn(writer);
  } catch (const util::PTError& e) {
    return std::string("error: ") + e.what();
  }
  return out.str();
}

std::string exportedExecution(core::PTDataStore& store, const std::string& exec) {
  return render([&](Writer& w) { exportExecution(store, exec, w); });
}

std::string exportedStore(core::PTDataStore& store) {
  return render([&](Writer& w) { exportStore(store, w); });
}

struct MemoryStore {
  MemoryStore() : conn(dbal::Connection::open(":memory:")), store(*conn) {
    store.initialize();
  }
  std::unique_ptr<dbal::Connection> conn;
  core::PTDataStore store;
};

/// Byte-compares both exports of `store` with the oracle and, with
/// `reload`, checks that each execution's export loads into a fresh store
/// and re-exports to the same bytes.
void checkStore(core::PTDataStore& store, bool reload = true) {
  EXPECT_EQ(exportedStore(store),
            render([&](Writer& w) { oracle::exportStore(store, w); }));
  for (const std::string& exec : store.executions()) {
    SCOPED_TRACE(exec);
    if (store.resultsForExecution(exec).empty()) continue;
    const std::string text = exportedExecution(store, exec);
    ASSERT_EQ(text.rfind("error: ", 0), std::string::npos) << text;
    EXPECT_EQ(text, render([&](Writer& w) { oracle::exportExecution(store, exec, w); }));
    if (!reload) continue;
    MemoryStore copy;
    std::istringstream in(text);
    load(copy.store, in);
    EXPECT_EQ(exportedExecution(copy.store, exec), text);
  }
}

/// Executions "runA" and "runB" with results drawn from small pools of
/// resources, foci, metrics and tools, so that every edge case recurs. The
/// two executions' results interleave, so each one's result ids have gaps.
/// With `bare`, some results have no focus at all; PTdf cannot carry those,
/// so such an export does not load back.
void fillRandomStore(core::PTDataStore& store, dbal::Connection& conn,
                     std::uint64_t seed, bool bare) {
  util::Rng rng(seed);
  auto pickFrom = [&](const std::vector<std::string>& pool) -> const std::string& {
    return pool[static_cast<std::size_t>(rng.uniformInt(0, pool.size() - 1))];
  };
  store.addResourceType("lab/bench");
  store.addResource("/bench0/rig", "lab/bench");
  for (int n = 0; n < 3; ++n) {
    store.addResource("/mach/n" + std::to_string(n), "grid/machine");
  }
  const std::vector<std::string> metrics = {"wall_ms", "cpu_ms", "msgs", "faults"};
  const std::vector<std::string> tools = {"toolA", "toolB"};
  const std::vector<std::string> attr_names = {"alpha", "beta", "beta", "gamma"};

  struct Run {
    std::string name;
    std::int64_t id = 0;
    std::vector<std::string> pool;  // resources its contexts draw from
    std::int64_t empty_focus = 0;
  };
  std::vector<Run> runs(2);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    Run& run = runs[r];
    run.name = r == 0 ? "runA" : "runB";
    store.addExecution(run.name, "app");
    run.id = conn.queryInt("SELECT id FROM execution WHERE name = ?",
                           {minidb::Value(run.name)});
    run.pool = {"/mach/n0", "/mach/n1", "/mach/n2", "/bench0/rig"};
    for (int p = 0; p < 3; ++p) {
      run.pool.push_back("/" + run.name + "/p" + std::to_string(p));
      store.addResource(run.pool.back(), "execution/process");
    }
    // Attributes in random name order: duplicate names must keep their
    // insertion order after the sort by name.
    for (const std::string& res : run.pool) {
      const std::int64_t n_attrs = rng.uniformInt(0, 4);
      for (std::int64_t a = 0; a < n_attrs; ++a) {
        if (rng.chance(0.2)) {
          store.addResourceConstraint(res, pickFrom(run.pool));
        } else {
          store.addResourceAttribute(res, pickFrom(attr_names),
                                     std::to_string(rng.uniformInt(0, 99)));
        }
      }
    }
    // A focus without members (the store API never makes one): results
    // linked to it export without that set.
    run.empty_focus =
        conn.execPrepared(
                "INSERT INTO focus (execution_id, signature) VALUES (?, 'empty')",
                {minidb::Value(run.id)})
            .last_insert_id;
  }

  const int n_results = static_cast<int>(rng.uniformInt(40, 100));
  for (int i = 0; i < n_results; ++i) {
    const Run& run = runs[static_cast<std::size_t>(rng.uniformInt(0, 1))];
    const std::string& metric = pickFrom(metrics);
    const std::string& tool = pickFrom(tools);
    const double value = rng.uniform(0.0, 100.0);
    const std::int64_t n_foci = rng.uniformInt(bare ? 0 : 1, 3);
    if (n_foci == 0) {
      // The store API requires a context; a bare row is still a result.
      conn.execPrepared(
          "INSERT INTO performance_result (execution_id, metric_id, "
          "performance_tool_id, value, units, start_time, end_time) "
          "VALUES (?, ?, ?, ?, 'ms', 0.5, 2.5)",
          {minidb::Value(run.id), minidb::Value(store.addMetric(metric)),
           minidb::Value(store.addPerformanceTool(tool)), minidb::Value(value)});
      continue;
    }
    std::vector<core::ResourceSetSpec> sets;
    for (std::int64_t f = 0; f < n_foci; ++f) {
      core::ResourceSetSpec spec;
      const std::int64_t members = rng.uniformInt(1, 3);
      for (std::int64_t m = 0; m < members; ++m) {
        spec.resource_names.push_back(pickFrom(run.pool));
      }
      spec.set_type = f == 0 ? core::FocusType::Primary : core::FocusType::Sender;
      sets.push_back(std::move(spec));
    }
    std::int64_t id = 0;
    if (rng.chance(0.25)) {
      std::vector<double> bins(static_cast<std::size_t>(rng.uniformInt(1, 8)));
      for (double& b : bins) {
        b = rng.chance(0.3) ? std::numeric_limits<double>::quiet_NaN()
                            : rng.uniform(0.0, 10.0);
      }
      bins[0] = 1.0;  // at least one recorded bin
      id = store.addHistogramResult(run.name, sets, tool, metric, bins, 0.25, "s");
      if (rng.chance(0.5)) {
        // A duplicate bin: the later row wins.
        conn.execPrepared(
            "INSERT INTO performance_result_bin (result_id, bin, value) "
            "VALUES (?, 0, ?)",
            {minidb::Value(id), minidb::Value(rng.uniform(20.0, 30.0))});
      }
    } else {
      id = store.addPerformanceResult(run.name, sets, tool, metric, value, "ms",
                                      rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.0));
    }
    if (rng.chance(0.1)) {
      conn.execPrepared(
          "INSERT INTO performance_result_has_focus (result_id, focus_id) "
          "VALUES (?, ?)",
          {minidb::Value(id), minidb::Value(run.empty_focus)});
    }
  }
}

// --- tests ----------------------------------------------------------------------

TEST(ExportOracleTest, RandomStoresMatchThePerResultExporter) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemoryStore s;
    const bool bare = seed % 2 == 1;
    fillRandomStore(s.store, *s.conn, seed, bare);
    checkStore(s.store, /*reload=*/!bare);
  }
}

TEST(ExportOracleTest, SimulatedRunsMatchThePerResultExporter) {
  util::TempDir workspace("export_oracle");
  MemoryStore s;
  auto loadRun = [&](const std::string& kind, const std::string& dir,
                     const std::string& machine) {
    const auto gen = tools::generateEntry({kind, workspace.file(dir), machine, ""},
                                          workspace.file("out"));
    loadFile(s.store, gen.ptdf_file.string());
  };
  sim::generateIrsRun({sim::frostConfig(), 8, "MPI", 1, ""}, workspace.file("frost"));
  loadRun("irs", "frost", "frost");
  sim::generateIrsRun({sim::mcrConfig(), 8, "MPI", 2, ""}, workspace.file("mcr"));
  loadRun("irs", "mcr", "mcr");
  sim::SmgRunSpec smg;
  smg.machine = sim::uvConfig();
  smg.nprocs = 8;
  smg.with_mpip = true;
  smg.with_pmapi = true;
  sim::generateSmgRun(smg, workspace.file("smg"));
  loadRun("smg", "smg", "uv");
  ASSERT_EQ(s.store.executions().size(), 3u);
  checkStore(s.store);
}

TEST(ExportOracleTest, ParadynHistogramsMatchThePerResultExporter) {
  util::TempDir workspace("export_oracle_paradyn");
  sim::ParadynRunSpec spec;
  spec.machine = sim::mcrConfig();
  spec.nprocs = 4;
  spec.histogram_bins = 40;
  spec.metric_focus_pairs = 10;
  spec.code_resources = 120;
  const auto run = sim::generateParadynRun(spec, workspace.file("pd"));
  std::ostringstream text;
  Writer writer(text);
  tools::convertParadynRun(workspace.file("pd"), run.exec_name, "app", writer,
                           tools::BinMode::HistogramResults);
  MemoryStore s;
  std::istringstream in(text.str());
  load(s.store, in);
  const std::string exported = exportedExecution(s.store, run.exec_name);
  ASSERT_NE(exported.find("PerfHistogram"), std::string::npos);
  ASSERT_NE(exported.find("nan"), std::string::npos);  // holes survive
  checkStore(s.store);
}

TEST(ExportOracleTest, DanglingRowsFailWithThePerResultMessage) {
  // Each case deletes the row that `victim` selects.
  struct Case {
    const char* table;
    const char* victim;
  };
  const Case cases[] = {
      {"metric", "SELECT MIN(metric_id) FROM performance_result"},
      {"performance_tool", "SELECT MAX(performance_tool_id) FROM performance_result"},
      {"resource_item", "SELECT id FROM resource_item WHERE full_name = '/runA/p1'"},
      {"resource_item", "SELECT id FROM resource_item WHERE full_name = '/mach'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.victim);
    MemoryStore s;
    fillRandomStore(s.store, *s.conn, 7, /*bare=*/true);
    s.conn->execPrepared(std::string("DELETE FROM ") + c.table + " WHERE id = ?",
                         {minidb::Value(s.conn->queryInt(c.victim))});
    const std::string got = exportedExecution(s.store, "runA");
    EXPECT_EQ(got.rfind("error: no ", 0), 0u) << got;
    EXPECT_EQ(got,
              render([&](Writer& w) { oracle::exportExecution(s.store, "runA", w); }));
    EXPECT_EQ(exportedStore(s.store),
              render([&](Writer& w) { oracle::exportStore(s.store, w); }));
  }
}

TEST(ExportOracleTest, UnknownExecutionThrows) {
  MemoryStore s;
  fillRandomStore(s.store, *s.conn, 3, /*bare=*/true);
  std::ostringstream out;
  Writer writer(out);
  try {
    exportExecution(s.store, "no-such-run", writer);
    FAIL() << "expected ModelError";
  } catch (const util::ModelError& e) {
    EXPECT_STREQ(e.what(), "no such execution: no-such-run");
  }
  EXPECT_EQ(out.str(), "");
}

TEST(ExportOracleTest, ExecutionWithoutResultsKeepsItsRecords) {
  MemoryStore s;
  s.store.addExecution("idle", "app");
  std::ostringstream out;
  Writer writer(out);
  const ExportStats stats = exportExecution(s.store, "idle", writer);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.perf_results, 0u);

  MemoryStore copy;
  std::istringstream in(out.str());
  load(copy.store, in);
  EXPECT_EQ(copy.store.executions(), std::vector<std::string>{"idle"});
  EXPECT_EQ(exportedExecution(copy.store, "idle"), out.str());
}

}  // namespace
}  // namespace perftrack::ptdf
