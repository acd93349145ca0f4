// perfbench — the repository benchmark.
//
// Usage: perfbench --workload ingest|explore|serve --seed <n> --seconds <s>
//                  --trace 0|1 [--workdir <dir>] [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with the program's default
// observability settings; --trace 1 runs the traced pass that reports the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads and metric definitions.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "minidb/sql/executor.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ingest|explore|serve --seed <n> --seconds <s> "
               "--trace 0|1 [--workdir <dir>] [--out <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.workdir = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--out") {
      opt.out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.out.empty()) opt.out = opt.workdir / "out";
  if (opt.seconds <= 0) return usage(argv[0]);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  try {
    fs::create_directories(opt.workdir);
    RunResult result;
    if (opt.workload == "ingest") {
      result = runIngest(opt);
    } else if (opt.workload == "explore") {
      result = runExplore(opt);
    } else if (opt.workload == "serve") {
      result = runServe(opt);
    } else {
      return usage(argv[0]);
    }
    // Settings in effect, recorded beside the numbers they produced.
    result.settings.insert(
        result.settings.begin(),
        {{"seed", static_cast<double>(opt.seed)},
         {"run_seconds", opt.seconds},
         {"exec_threads", static_cast<double>(minidb::sql::defaultExecThreads())},
         {"exec_batch_rows", static_cast<double>(minidb::sql::defaultExecBatchRows())},
         {"invidx_default", minidb::sql::defaultInvidxEnabled() ? 1.0 : 0.0}});
    return emit(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
