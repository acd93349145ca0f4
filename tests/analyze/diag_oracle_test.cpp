// Differential test of the DIFF engine (core::diag::diagnose) against
// analyze::compareExecutions, an independent implementation of the same
// alignment that reads every result one at a time through PTDataStore.
//
// Seeded random stores cover the alignment's edge cases: duplicate samples
// per context, results with zero, one and several foci, foci shared across
// results, two resources that canonicalize to one $EXEC name, and zero
// baselines. Simulated IRS and SMG runs cover realistic shapes. At ratio
// threshold 0 with no top-K, the ranked rows must be exactly the oracle's
// changed pairs, with contribution_pct and rank recomputed from the
// oracle's rows in its (metric, context) map order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/compare.h"
#include "core/datastore.h"
#include "core/diag.h"
#include "dbal/connection.h"
#include "ptdf/ptdf.h"
#include "sim/irs_gen.h"
#include "sim/smg_gen.h"
#include "tools/ptdfgen.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack {
namespace {

using core::diag::Report;
using core::diag::Request;
using core::diag::Row;

/// The DIFF rows the oracle implies at ratio threshold 0, no top-K: every
/// changed pair, contribution over the metric's |delta| total summed in the
/// oracle's row order, ranked as the engine ranks.
std::vector<Row> expectedRows(const analyze::ComparisonReport& oracle) {
  std::map<std::string, double> total;
  for (const analyze::ComparisonRow& r : oracle.rows) {
    total[r.metric] += std::abs(r.value_b - r.value_a);
  }
  std::vector<Row> out;
  for (const analyze::ComparisonRow& r : oracle.rows) {
    Row row;
    row.metric = r.metric;
    row.context = r.context;
    row.value_a = r.value_a;
    row.value_b = r.value_b;
    row.has_ratio = r.value_a != 0.0;
    if (row.has_ratio) row.ratio = r.value_b / r.value_a;
    const double delta = std::abs(row.delta());
    const bool changed = row.has_ratio ? std::abs(row.ratio - 1.0) > 0.0 : delta != 0.0;
    if (!changed) continue;
    const double t = total[row.metric];
    row.contribution_pct = t > 0.0 ? delta / t * 100.0 : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const Row& x, const Row& y) {
    if (x.contribution_pct != y.contribution_pct) {
      return x.contribution_pct > y.contribution_pct;
    }
    const double dx = std::abs(x.delta());
    const double dy = std::abs(y.delta());
    if (dx != dy) return dx > dy;
    if (x.metric != y.metric) return x.metric < y.metric;
    return x.context < y.context;
  });
  return out;
}

using PairKey = std::tuple<std::string, std::string, double, double>;

std::set<PairKey> pairSet(const std::vector<Row>& rows) {
  std::set<PairKey> out;
  for (const Row& r : rows) out.emplace(r.metric, r.context, r.value_a, r.value_b);
  return out;
}

/// Diffs a -> b both ways and checks each against the oracle.
void checkAgainstOracle(core::PTDataStore& store, dbal::Connection& conn,
                        const std::string& a, const std::string& b) {
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    SCOPED_TRACE(x + " -> " + y);
    const analyze::ComparisonReport oracle = analyze::compareExecutions(store, x, y);
    Request request;
    request.exec_a = x;
    request.exec_b = y;
    request.ratio_threshold = 0.0;
    const Report report = conn.diff(request);

    EXPECT_EQ(report.stats.aligned, oracle.rows.size());
    EXPECT_EQ(report.stats.only_a, oracle.unmatched_a);
    EXPECT_EQ(report.stats.only_b, oracle.unmatched_b);

    const std::vector<Row> expected = expectedRows(oracle);
    EXPECT_EQ(pairSet(report.rows), pairSet(expected));
    ASSERT_EQ(report.rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(i + 1));
      EXPECT_EQ(report.rows[i].metric, expected[i].metric);
      EXPECT_EQ(report.rows[i].context, expected[i].context);
      EXPECT_EQ(report.rows[i].has_ratio, expected[i].has_ratio);
      EXPECT_EQ(report.rows[i].ratio, expected[i].ratio);
      EXPECT_EQ(report.rows[i].contribution_pct, expected[i].contribution_pct);
    }

    // Top-K is a prefix of the full ranking.
    request.top_k = 3;
    const Report top = conn.diff(request);
    EXPECT_EQ(top.stats.divergent, report.rows.size());
    ASSERT_EQ(top.rows.size(), std::min<std::size_t>(3, report.rows.size()));
    for (std::size_t i = 0; i < top.rows.size(); ++i) {
      EXPECT_EQ(top.rows[i].context, report.rows[i].context);
      EXPECT_EQ(top.rows[i].contribution_pct, report.rows[i].contribution_pct);
    }
  }
}

/// Two executions, "runA" and "runB", with random results drawn from a
/// small pool of contexts, metrics and values so that every edge case
/// recurs.
void fillRandomStore(core::PTDataStore& store, dbal::Connection& conn,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::string> metrics = {"wall_ms", "cpu_ms", "msgs", "faults"};
  const std::vector<double> values = {0.0, 1.0, 2.0, 2.5, 10.0, 40.0};
  const std::int64_t tool_id = store.addPerformanceTool("tool");
  for (const std::string exec : {"runA", "runB"}) {
    store.addExecution(exec, "app");
    // Per-run resources, plus one that is literally "$EXEC": it
    // canonicalizes to the same name as the per-run /<exec>/p0.
    for (int p = 0; p < 3; ++p) {
      store.addResource("/" + exec + "/p" + std::to_string(p), "execution/process");
    }
    store.addResource("/$EXEC/p0", "execution/process");
    for (int n = 0; n < 3; ++n) {
      store.addResource("/mach/n" + std::to_string(n), "grid/machine");
    }
    const std::vector<std::string> pool = {
        "/" + exec + "/p0", "/" + exec + "/p1", "/" + exec + "/p2",
        "/$EXEC/p0",        "/mach/n0",         "/mach/n1",
        "/mach/n2"};
    auto pick = [&]() { return pool[rng.uniformInt(0, pool.size() - 1)]; };

    const std::int64_t exec_id =
        conn.queryInt("SELECT id FROM execution WHERE name = ?", {minidb::Value(exec)});
    const int n_results = static_cast<int>(rng.uniformInt(20, 60));
    for (int i = 0; i < n_results; ++i) {
      const std::string& metric = metrics[rng.uniformInt(0, metrics.size() - 1)];
      const double value = rng.chance(0.2) ? rng.uniform(0.0, 100.0)
                                           : values[rng.uniformInt(0, values.size() - 1)];
      const std::int64_t n_foci = rng.uniformInt(0, 3);
      if (n_foci == 0) {
        // The store API requires a context; a bare row is still a result.
        const std::int64_t metric_id = store.addMetric(metric);
        conn.execPrepared(
            "INSERT INTO performance_result (execution_id, metric_id, "
            "performance_tool_id, value, units, start_time, end_time) "
            "VALUES (?, ?, ?, ?, '', -1.0, -1.0)",
            {minidb::Value(exec_id), minidb::Value(metric_id), minidb::Value(tool_id),
             minidb::Value(value)});
        continue;
      }
      std::vector<core::ResourceSetSpec> sets;
      for (std::int64_t f = 0; f < n_foci; ++f) {
        core::ResourceSetSpec spec;
        spec.resource_names.push_back(pick());
        if (rng.chance(0.4)) spec.resource_names.push_back(pick());
        spec.set_type = f == 0 ? core::FocusType::Primary : core::FocusType::Sender;
        sets.push_back(std::move(spec));
      }
      store.addPerformanceResult(exec, sets, "tool", metric, value);
    }
  }
}

TEST(DiagOracleTest, RandomStoresMatchCompareExecutions) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto conn = dbal::Connection::open(":memory:");
    core::PTDataStore store(*conn);
    store.initialize();
    fillRandomStore(store, *conn, seed);
    checkAgainstOracle(store, *conn, "runA", "runB");
    checkAgainstOracle(store, *conn, "runA", "runA");
  }
}

TEST(DiagOracleTest, SimulatedRunsMatchCompareExecutions) {
  util::TempDir workspace("diag_oracle");
  auto conn = dbal::Connection::open(":memory:");
  core::PTDataStore store(*conn);
  store.initialize();
  auto load = [&](const std::string& kind, const std::string& dir,
                  const std::string& machine) {
    const auto gen =
        tools::generateEntry({kind, workspace.file(dir), machine, ""}, workspace.file("out"));
    ptdf::loadFile(store, gen.ptdf_file.string());
  };

  std::vector<std::string> irs;
  std::vector<std::string> smg;
  for (std::uint64_t seed : {1, 2}) {
    const std::string irs_dir = "irs" + std::to_string(seed);
    irs.push_back(
        sim::generateIrsRun({sim::frostConfig(), 8, "MPI", seed, ""}, workspace.file(irs_dir))
            .exec_name);
    load("irs", irs_dir, "frost");

    sim::SmgRunSpec spec;
    spec.machine = sim::uvConfig();
    spec.nprocs = 8;
    spec.seed = seed;
    spec.with_mpip = true;
    spec.with_pmapi = true;
    const std::string smg_dir = "smg" + std::to_string(seed);
    smg.push_back(sim::generateSmgRun(spec, workspace.file(smg_dir)).exec_name);
    load("smg", smg_dir, "uv");
  }
  checkAgainstOracle(store, *conn, irs[0], irs[1]);
  checkAgainstOracle(store, *conn, smg[0], smg[1]);
  checkAgainstOracle(store, *conn, irs[0], smg[0]);
}

}  // namespace
}  // namespace perftrack
