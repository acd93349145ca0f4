// §4.2 load-time study + the DESIGN.md §5 index ablation.
//
// "Preliminary observations of data load time indicate this type of data as
// an area of focus for performance optimization." We measure PTdf load
// throughput as a function of results-per-execution and compare the
// B+-tree-assisted lookup path against full-scan lookups (SQL planner with
// indexes disabled). Expected shape: load time grows ~linearly with result
// count when lookups are index-assisted, and superlinearly (each insert's
// name lookups scan a growing table) without indexes.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sim/smg_gen.h"
#include "tools/smg_parser.h"

using namespace perftrack;

namespace {

/// Builds one SMG-UV PTdf file whose result count scales with nprocs
/// (mpiP emits ~3 results per callsite per rank).
std::filesystem::path makeSmgPtdf(const util::TempDir& workspace, int nprocs) {
  sim::SmgRunSpec spec;
  spec.machine = sim::uvConfig();
  spec.nprocs = nprocs;
  spec.with_mpip = true;
  spec.with_pmapi = true;
  spec.seed = 11;
  const auto dir = workspace.file("run-np" + std::to_string(nprocs));
  const sim::GeneratedRun run = sim::generateSmgRun(spec, dir);
  const auto ptdf_path = workspace.file(run.exec_name + ".ptdf");
  std::ofstream out(ptdf_path);
  ptdf::Writer writer(out);
  tools::convertSmgRun(dir, spec.machine, writer);
  return ptdf_path;
}

void BM_LoadSmgExecution(benchmark::State& state) {
  util::TempDir workspace("load-scaling");
  const auto ptdf_path = makeSmgPtdf(workspace, static_cast<int>(state.range(0)));
  std::size_t results = 0;
  for (auto _ : state) {
    bench::Store s = bench::Store::openMemory();
    const auto stats = ptdf::loadFile(*s.store, ptdf_path.string());
    results = stats.perf_results;
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["results/s"] = benchmark::Counter(
      static_cast<double>(results), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LoadSmgExecution)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_LoadSmgExecution_NoIndexes(benchmark::State& state) {
  // Ablation: the SQL planner falls back to heap scans for every lookup.
  util::TempDir workspace("load-scaling-noidx");
  const auto ptdf_path = makeSmgPtdf(workspace, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bench::Store s = bench::Store::openMemory();
    s.conn->setOption("use_indexes", false);
    const auto stats = ptdf::loadFile(*s.store, ptdf_path.string());
    benchmark::DoNotOptimize(stats.perf_results);
  }
}
BENCHMARK(BM_LoadSmgExecution_NoIndexes)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_LoadIrsExecution(benchmark::State& state) {
  // The Table-1 IRS shape (~1500 results/exec).
  util::TempDir workspace("load-irs");
  const auto ptdf_path = bench::makeIrsPtdf(workspace, sim::frostConfig(), 16, 3);
  for (auto _ : state) {
    bench::Store s = bench::Store::openMemory();
    const auto stats = ptdf::loadFile(*s.store, ptdf_path.string());
    benchmark::DoNotOptimize(stats.perf_results);
  }
}
BENCHMARK(BM_LoadIrsExecution)->Unit(benchmark::kMillisecond);

void BM_LoadIntoPopulatedStore(benchmark::State& state) {
  // Marginal cost of one more execution when the store already holds many —
  // the scalability concern the paper flags.
  util::TempDir workspace("load-marginal");
  const int preload = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    bench::Store s = bench::Store::openMemory();
    for (int i = 0; i < preload; ++i) {
      const auto path = bench::makeIrsPtdf(workspace, sim::frostConfig(), 16,
                                           static_cast<std::uint64_t>(100 + i));
      ptdf::loadFile(*s.store, path.string());
    }
    const auto fresh = bench::makeIrsPtdf(workspace, sim::frostConfig(), 16, 999);
    state.ResumeTiming();
    const auto stats = ptdf::loadFile(*s.store, fresh.string());
    benchmark::DoNotOptimize(stats.perf_results);
  }
}
BENCHMARK(BM_LoadIntoPopulatedStore)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
