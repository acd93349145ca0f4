// ptdfload — load PTdf files into a PerfTrack data store.
//
// Usage: ptdfload [--durability=wal|none] [--wal-autocheckpoint <n>]
//                 <database|:memory:> <file.ptdf>...
// Initializes the store (schema + base types) if needed, loads each file in
// one transaction, and prints per-file and final store statistics.
//
// --durability=wal (default) commits through a write-ahead log
// (checkpointed every --wal-autocheckpoint frames, default 512), so a crash
// mid-load leaves the store at the last loaded file; --durability=none is
// the fast, crash-unsafe legacy path. Any other flag exits 2 with usage. If
// the previous process died before its checkpoint, opening the store
// replays the committed WAL prefix and a "recovered" line reports it.
//
// PT_DEBUG_CRASH_AT=<n> (testing hook, used by scripts/crash_kill_test.sh):
// SIGKILL the process at the n-th disk write/sync/truncate, leaving a
// genuinely crashed store behind.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/reports.h"
#include "dbal/connection.h"
#include "minidb/vfs.h"
#include "ptdf/ptdf.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace perftrack;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--durability=wal|none] [--wal-autocheckpoint n] "
                 "<database|:memory:> <file.ptdf>...\n",
                 argv[0]);
    return 2;
  };
  minidb::OpenOptions options;
  int arg = 1;
  while (arg < argc && std::string(argv[arg]).rfind("--", 0) == 0) {
    const std::string flag = argv[arg];
    if (flag == "--durability=wal") {
      options.durability = minidb::Durability::Wal;
    } else if (flag == "--durability=none") {
      options.durability = minidb::Durability::None;
    } else if (flag == "--wal-autocheckpoint" && arg + 1 < argc) {
      options.wal_autocheckpoint = static_cast<std::uint32_t>(
          std::strtoul(argv[++arg], nullptr, 10));
    } else {
      std::fprintf(stderr, "ptdfload: unknown flag '%s'\n", flag.c_str());
      return usage();
    }
    ++arg;
  }
  if (argc - arg < 2) return usage();
  if (const char* crash_at = std::getenv("PT_DEBUG_CRASH_AT")) {
    // Deterministic crash harness: die with SIGKILL at the n-th disk op.
    static minidb::FaultInjectingVfs fault_vfs(minidb::PosixVfs::instance());
    minidb::FaultPlan plan;
    plan.fail_at_op = std::strtoull(crash_at, nullptr, 10);
    plan.action = minidb::FaultAction::Kill;
    fault_vfs.setPlan(plan);
    options.vfs = &fault_vfs;
  }
  try {
    auto conn = dbal::Connection::open(argv[arg], options);
    const auto& recovery = conn->recoveryStats();
    if (recovery.wal_replayed) {
      std::printf("recovered: replayed %u page(s) from a stale WAL "
                  "(previous load exited before its checkpoint)\n",
                  recovery.wal_frames_applied);
    }
    if (recovery.discarded_invalid_wal) {
      std::printf("recovered: discarded a torn WAL tail "
                  "(uncommitted frames from a crashed load)\n");
    }
    core::PTDataStore store(*conn);
    store.initialize();
    for (int i = arg + 1; i < argc; ++i) {
      util::Timer timer;
      conn->begin();
      const auto stats = ptdf::loadFile(store, argv[i]);
      conn->commit();
      std::printf("%s: %zu records (%zu resources, %zu attributes, %zu results) "
                  "in %.2f s\n",
                  argv[i], stats.records, stats.resources, stats.attributes,
                  stats.perf_results, timer.elapsedSeconds());
    }
    std::fputs(core::storeReport(store).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptdfload: %s\n", e.what());
    return 1;
  }
}
