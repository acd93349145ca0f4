// Figure 3 reproduction: the selection dialog's *live match counts*.
//
// "As resource families are added to a pr-filter, the GUI determines how
// many performance results in the database match each resource family by
// itself and how many match the entire pr-filter." Those counts are
// recomputed on every click, so their latency bounds GUI interactivity.
// This benchmark measures per-family and whole-filter count latency against
// a store of IRS executions, for each filter kind the dialog can produce.
//
// Every run records a `threads` counter in the JSON output; the _ThreadSweep
// variants re-run the count hot path at morsel-parallel degrees {1,2,4,8}
// (dbal::Connection::setOption("exec_threads", n)) so BENCH_fig3.json carries the
// per-degree timing matrix.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/query_session.h"
#include "obs/metrics.h"

using namespace perftrack;

namespace {

bench::Store& sharedStore() {
  static bench::Store s = bench::irsStore(/*executions=*/8, /*nprocs=*/16);
  return s;
}

void BM_FamilyCount_ByName(benchmark::State& state) {
  core::QuerySession session(*sharedStore().store);
  const auto fam =
      session.addFamily(core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.familyMatchCount(fam));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_FamilyCount_ByName);

void BM_FamilyCount_ByType(benchmark::State& state) {
  core::QuerySession session(*sharedStore().store);
  const auto fam = session.addFamily(
      core::ResourceFilter::byType("build/module/function", core::Expansion::None));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.familyMatchCount(fam));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_FamilyCount_ByType);

void BM_FamilyCount_ByAttribute(benchmark::State& state) {
  core::QuerySession session(*sharedStore().store);
  const auto fam = session.addFamily(core::ResourceFilter::byAttributes(
      {{"operating system", "=", "AIX"}}, "grid/machine", core::Expansion::Descendants));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.familyMatchCount(fam));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_FamilyCount_ByAttribute);

void BM_TotalCount_TwoFamilies(benchmark::State& state) {
  core::QuerySession session(*sharedStore().store);
  session.addFamily(core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
  session.addFamily(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.totalMatchCount());
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_TotalCount_TwoFamilies);

void BM_FamilyEvaluation_Expansion(benchmark::State& state) {
  // Re-evaluating a family after the user flips the N/A/D/B flag.
  for (auto _ : state) {
    core::QuerySession session(*sharedStore().store);
    const auto fam =
        session.addFamily(core::ResourceFilter::byName("Frost", core::Expansion::None));
    session.setExpansion(fam, core::Expansion::Descendants);
    benchmark::DoNotOptimize(session.familyMatchCount(fam));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_FamilyEvaluation_Expansion);

void BM_SessionRun(benchmark::State& state) {
  // Full retrieval (the "Get Data" button) for a moderate result set.
  core::QuerySession session(*sharedStore().store);
  session.addFamily(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    auto table = session.run();
    benchmark::DoNotOptimize(table.size());
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_SessionRun);

// --- morsel-parallel degree sweep -------------------------------------------
// The same count hot path, re-run at exec degrees {1,2,4,8}. Degree 1 is
// exactly the serial pipeline; higher degrees go through the Gather merge
// whenever the scanned table clears the small-table page gate.

void BM_TotalCount_ThreadSweep(benchmark::State& state) {
  auto& s = sharedStore();
  const int threads = static_cast<int>(state.range(0));
  s.conn->setOption("exec_threads", threads);
  core::QuerySession session(*s.store);
  session.addFamily(core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
  session.addFamily(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.totalMatchCount());
  }
  state.counters["threads"] = threads;
  s.conn->setOption("exec_threads", minidb::sql::processOptions().degree);
}
BENCHMARK(BM_TotalCount_ThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SessionRun_ThreadSweep(benchmark::State& state) {
  auto& s = sharedStore();
  const int threads = static_cast<int>(state.range(0));
  s.conn->setOption("exec_threads", threads);
  core::QuerySession session(*s.store);
  session.addFamily(
      core::ResourceFilter::byName("/IRS-1.4/irscg.c/cgsolve", core::Expansion::None));
  for (auto _ : state) {
    auto table = session.run();
    benchmark::DoNotOptimize(table.size());
  }
  state.counters["threads"] = threads;
  s.conn->setOption("exec_threads", minidb::sql::processOptions().degree);
}
BENCHMARK(BM_SessionRun_ThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

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
