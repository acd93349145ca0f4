// §2.2 query-cost study + the DESIGN.md §5 closure-table ablation.
//
// The paper adds resource_has_ancestor/resource_has_descendant "to avoid
// needing to traverse the resource hierarchy and follow the chain of
// parent_id's". This benchmark measures pr-filter evaluation with
// descendant expansion done two ways:
//   * via the closure table (production path),
//   * via recursive parent-chain traversal (the design the paper avoided),
// across store sizes, plus query latency as a function of filter
// selectivity. Expected shape: closure lookups scale with the subtree size
// only; parent-chain traversal pays one indexed query per tree node and
// falls behind as the hierarchy grows.
//
// The _Threads benchmarks at the bottom sweep the morsel-parallel degree
// {1,2,4,8} over a large synthetic aggregate (DESIGN.md §5.6) and record a
// `threads` counter per run, so BENCH_query_scaling.json carries the full
// per-degree timing matrix rather than a single-run median. The join rows
// last time the two join shapes the PerfTrack workloads run most.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>

#include "bench_util.h"
#include "core/filter.h"
#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"

using namespace perftrack;

namespace {

bench::Store& storeOfSize(int executions) {
  static std::map<int, bench::Store> stores;
  auto it = stores.find(executions);
  if (it == stores.end()) {
    it = stores.emplace(executions, bench::irsStore(executions, 16)).first;
  }
  return it->second;
}

/// Descendant expansion by walking children recursively (ablation arm).
std::vector<core::ResourceId> descendantsByParentChain(core::PTDataStore& store,
                                                       core::ResourceId root) {
  std::vector<core::ResourceId> out;
  std::function<void(core::ResourceId)> walk = [&](core::ResourceId id) {
    for (const core::ResourceInfo& child : store.childrenOf(id)) {
      out.push_back(child.id);
      walk(child.id);
    }
  };
  walk(root);
  return out;
}

void BM_DescendantsViaClosureTable(benchmark::State& state) {
  auto& s = storeOfSize(static_cast<int>(state.range(0)));
  const auto root = s.store->findResource("/SingleMachineFrost/Frost").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.store->descendantsOf(root));
  }
}
BENCHMARK(BM_DescendantsViaClosureTable)->Arg(2)->Arg(8);

void BM_DescendantsViaParentChain(benchmark::State& state) {
  auto& s = storeOfSize(static_cast<int>(state.range(0)));
  const auto root = s.store->findResource("/SingleMachineFrost/Frost").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(descendantsByParentChain(*s.store, root));
  }
}
BENCHMARK(BM_DescendantsViaParentChain)->Arg(2)->Arg(8);

void BM_PrFilterQuery_Narrow(benchmark::State& state) {
  // One function: high selectivity.
  auto& s = storeOfSize(static_cast<int>(state.range(0)));
  core::PrFilter filter;
  filter.families.push_back(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::queryResults(*s.store, filter));
  }
}
BENCHMARK(BM_PrFilterQuery_Narrow)->Arg(2)->Arg(8);

void BM_PrFilterQuery_Broad(benchmark::State& state) {
  // The whole machine subtree: low selectivity.
  auto& s = storeOfSize(static_cast<int>(state.range(0)));
  core::PrFilter filter;
  filter.families.push_back(
      core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::queryResults(*s.store, filter));
  }
}
BENCHMARK(BM_PrFilterQuery_Broad)->Arg(2)->Arg(8);

void BM_PrFilterQuery_Intersection(benchmark::State& state) {
  // Two families: machine subtree AND one function.
  auto& s = storeOfSize(static_cast<int>(state.range(0)));
  core::PrFilter filter;
  filter.families.push_back(
      core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
  filter.families.push_back(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::queryResults(*s.store, filter));
  }
}
BENCHMARK(BM_PrFilterQuery_Intersection)->Arg(2)->Arg(8);

// --- morsel-parallel degree sweep -------------------------------------------
// Grouped aggregates and top-K over a wide synthetic scan, at degrees
// {1,2,4,8}. Default table size is 1M rows (the acceptance sweep);
// PT_SCALING_ROWS shrinks it for smoke runs. Degree 1 takes exactly the
// serial pipeline, so the Arg(1) rows double as the pre-parallel baseline.

struct ScanFixture {
  std::unique_ptr<minidb::Database> db;
  std::unique_ptr<minidb::sql::Engine> sql;
  long rows = 0;
};

ScanFixture& scanFixture() {
  static ScanFixture f = [] {
    ScanFixture s;
    s.rows = 1'000'000;
    if (const char* env = std::getenv("PT_SCALING_ROWS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) s.rows = n;
    }
    s.db = minidb::Database::openMemory();
    s.sql = std::make_unique<minidb::sql::Engine>(*s.db);
    s.sql->exec(
        "CREATE TABLE scan_t (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)");
    std::string insert;
    for (long i = 0; i < s.rows; ++i) {
      insert += insert.empty() ? "INSERT INTO scan_t (grp, val) VALUES " : ",";
      insert += "(" + std::to_string(i % 64) + "," + std::to_string(i % 1000) + ")";
      if (insert.size() > 200000) {
        s.sql->exec(insert);
        insert.clear();
      }
    }
    if (!insert.empty()) s.sql->exec(insert);
    return s;
  }();
  return f;
}

void BM_GroupedAggregate_Threads(benchmark::State& state) {
  auto& f = scanFixture();
  const int threads = static_cast<int>(state.range(0));
  f.sql->setOption("exec_threads", threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sql->exec(
        "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) "
        "FROM scan_t GROUP BY grp"));
  }
  state.counters["threads"] = threads;
  state.counters["rows"] = static_cast<double>(f.rows);
  state.SetItemsProcessed(state.iterations() * f.rows);
  f.sql->setOption("exec_threads", 1);
}
BENCHMARK(BM_GroupedAggregate_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- vectorized batch-size sweep --------------------------------------------
// The same grouped aggregate and a filtered scan at batch sizes
// {64,256,1024,4096}, serial degree so the sweep isolates the batch-size
// knob from the parallel one. A `batch_rows` counter lands in
// BENCH_query_scaling.json next to `threads`, so the JSON carries both
// sweep matrices.

void BM_GroupedAggregate_BatchRows(benchmark::State& state) {
  auto& f = scanFixture();
  const auto batch_rows = static_cast<std::size_t>(state.range(0));
  f.sql->setOption("exec_threads", 1);
  f.sql->setOption("exec_batch_rows", batch_rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sql->exec(
        "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) "
        "FROM scan_t GROUP BY grp"));
  }
  state.counters["batch_rows"] = static_cast<double>(batch_rows);
  state.counters["rows"] = static_cast<double>(f.rows);
  state.SetItemsProcessed(state.iterations() * f.rows);
  f.sql->setOption("exec_batch_rows", 1024);
}
BENCHMARK(BM_GroupedAggregate_BatchRows)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_FilteredScan_BatchRows(benchmark::State& state) {
  auto& f = scanFixture();
  const auto batch_rows = static_cast<std::size_t>(state.range(0));
  f.sql->setOption("exec_threads", 1);
  f.sql->setOption("exec_batch_rows", batch_rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.sql->exec("SELECT id, val FROM scan_t WHERE grp < 8 AND val < 500"));
  }
  state.counters["batch_rows"] = static_cast<double>(batch_rows);
  state.counters["rows"] = static_cast<double>(f.rows);
  state.SetItemsProcessed(state.iterations() * f.rows);
  f.sql->setOption("exec_batch_rows", 1024);
}
BENCHMARK(BM_FilteredScan_BatchRows)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_TopK_Threads(benchmark::State& state) {
  auto& f = scanFixture();
  const int threads = static_cast<int>(state.range(0));
  f.sql->setOption("exec_threads", threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sql->exec(
        "SELECT id, val FROM scan_t WHERE grp < 32 "
        "ORDER BY val DESC, id LIMIT 25"));
  }
  state.counters["threads"] = threads;
  state.counters["rows"] = static_cast<double>(f.rows);
  state.SetItemsProcessed(state.iterations() * f.rows);
  f.sql->setOption("exec_threads", 1);
}
BENCHMARK(BM_TopK_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- joins -------------------------------------------------------------------
// The two join shapes the PerfTrack workloads lean on, over the 8-execution
// IRS store: PTDataStore::getResult's 5-way primary-key join as a point
// lookup (cycling through every result id), and the golden EXPLAIN ANALYZE
// query's resource_attribute ⋈ resource_item GROUP BY at degrees 1 and 4
// (exec_min_pages 1, so the small attribute table still goes parallel).

void BM_GetResultJoin(benchmark::State& state) {
  auto& s = storeOfSize(8);
  const std::int64_t results =
      s.conn->queryInt("SELECT COUNT(*) FROM performance_result");
  std::int64_t id = 0;
  for (auto _ : state) {
    id = id % results + 1;
    benchmark::DoNotOptimize(s.conn->execPrepared(
        "SELECT pr.id, e.name, a.name, m.name, t.name, pr.value, pr.units, "
        "pr.start_time, pr.end_time "
        "FROM performance_result pr "
        "JOIN execution e ON pr.execution_id = e.id "
        "JOIN application a ON e.application_id = a.id "
        "JOIN metric m ON pr.metric_id = m.id "
        "JOIN performance_tool t ON pr.performance_tool_id = t.id "
        "WHERE pr.id = ?",
        {minidb::Value(id)}));
  }
}
BENCHMARK(BM_GetResultJoin)->Unit(benchmark::kMicrosecond);

void BM_AttributeItemGroupBy_Threads(benchmark::State& state) {
  auto& s = storeOfSize(8);
  const int threads = static_cast<int>(state.range(0));
  s.conn->setOption("exec_threads", threads);
  s.conn->setOption("exec_min_pages", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.conn->exec(
        "SELECT ra.name, COUNT(*) FROM resource_attribute ra "
        "JOIN resource_item r ON ra.resource_id = r.id "
        "GROUP BY ra.name ORDER BY ra.name LIMIT 5"));
  }
  state.counters["threads"] = threads;
  const minidb::sql::ExecOptions& defaults = minidb::sql::processOptions();
  s.conn->setOption("exec_threads", defaults.degree);
  s.conn->setOption("exec_min_pages", static_cast<std::int64_t>(defaults.min_pages));
}
BENCHMARK(BM_AttributeItemGroupBy_Threads)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run can leave a metrics snapshot next
// to its JSON output (PT_METRICS_SNAPSHOT, scripts/bench_smoke.sh).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  obs::writeSnapshotIfRequested();
  return 0;
}
