// DIFF latency: the comparison-based diagnosis engine (core::diag, DESIGN.md
// §5.10) over the two pair shapes the paper's studies compare.
//
//   BM_Diff_FrostIrs  two Frost IRS runs at 16 processes (~1.5k results and
//                     ~80 foci per side, ~1.4k aligned pairs) — the pair the
//                     interactive DIFF of an analyst session sees
//   BM_Diff_SmgUv     two SMG2000 runs on UV at 128 processes with mpiP and
//                     PMAPI (~11k results per side) — the wide case
//
// Each request ranks the top 10 explanations at the default thresholds. The
// `results` counter is results_a + results_b and `aligned` the aligned pair
// count, so a change in time can be told apart from a change in work.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/diag.h"
#include "obs/metrics.h"
#include "sim/smg_gen.h"
#include "tools/ptdfgen.h"

using namespace perftrack;

namespace {

struct Pair {
  bench::Store store;
  std::string exec_a;
  std::string exec_b;
};

std::vector<std::string> executionNames(bench::Store& s) {
  std::vector<std::string> out;
  for (const auto& row : s.conn->exec("SELECT name FROM execution ORDER BY name").rows) {
    out.push_back(row[0].asText());
  }
  return out;
}

Pair& frostIrsPair() {
  static Pair p = [] {
    Pair pair{bench::irsStore(/*executions=*/2, /*nprocs=*/16), "", ""};
    const auto names = executionNames(pair.store);
    pair.exec_a = names.at(0);
    pair.exec_b = names.at(1);
    return pair;
  }();
  return p;
}

constexpr int kUvProcs = 128;

Pair& smgUvPair() {
  static Pair p = [] {
    util::TempDir workspace("bench-diag");
    Pair pair{bench::Store::openMemory(), "", ""};
    for (std::uint64_t seed : {1, 2}) {
      sim::SmgRunSpec spec;
      spec.machine = sim::uvConfig();
      spec.nprocs = kUvProcs;
      spec.seed = seed;
      spec.with_mpip = true;
      spec.with_pmapi = true;
      const auto run_dir = workspace.file("smg" + std::to_string(seed));
      const std::string exec = sim::generateSmgRun(spec, run_dir).exec_name;
      (seed == 1 ? pair.exec_a : pair.exec_b) = exec;
      const auto gen =
          tools::generateEntry({"smg", run_dir, "uv", ""}, workspace.file("ptdf"));
      ptdf::loadFile(*pair.store.store, gen.ptdf_file.string());
    }
    return pair;
  }();
  return p;
}

void runDiff(benchmark::State& state, Pair& pair) {
  core::diag::Request request;
  request.exec_a = pair.exec_a;
  request.exec_b = pair.exec_b;
  request.top_k = 10;
  core::diag::Report report;
  for (auto _ : state) {
    report = pair.store.conn->diff(request);
    benchmark::DoNotOptimize(report.rows.data());
  }
  state.counters["results"] =
      static_cast<double>(report.stats.results_a + report.stats.results_b);
  state.counters["aligned"] = static_cast<double>(report.stats.aligned);
}

void BM_Diff_FrostIrs(benchmark::State& state) { runDiff(state, frostIrsPair()); }
BENCHMARK(BM_Diff_FrostIrs);

void BM_Diff_SmgUv(benchmark::State& state) { runDiff(state, smgUvPair()); }
BENCHMARK(BM_Diff_SmgUv);

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
