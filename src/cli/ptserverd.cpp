// ptserverd — the PerfTrack query server.
//
// Owns one minidb database and serves it to many concurrent clients over
// the src/server wire protocol (see DESIGN.md §5.4). Clients connect with
// dbal connection string "pt://host:port" or "pt://unix:/path" — every
// ptquery/ptexport workflow runs unchanged against the daemon.
//
// Usage:
//   ptserverd [flags] <database|:memory:>
//     --listen <host:port>    TCP endpoint (default 127.0.0.1:7077; port 0
//                             picks an ephemeral port, printed on stdout)
//     --unix <path>           also listen on a Unix-domain socket
//     --workers <n>           worker threads (default 4)
//     --max-conn <n>          connection cap; excess gets a BUSY frame
//     --idle-timeout <ms>     reap connections idle this long (0 disables)
//     --lock-timeout <ms>     gate acquisition budget before BUSY
//     --durability=full|wal|none
//                             storage durability mode (default full). wal
//                             commits through a write-ahead log: SELECTs
//                             read pinned snapshots while writers commit,
//                             and concurrent commits share fsyncs (group
//                             commit)
//     --wal-autocheckpoint <n>
//                             fold the WAL back into the db file once it
//                             holds n frames (default 512; 0 disables)
//     --no-remote-shutdown    ignore SHUTDOWN frames (signals still work)
//     --metrics-port <n>      serve GET /metrics and /traces over HTTP on
//                             the listen host (0 picks an ephemeral port,
//                             printed on stdout; omit to disable)
//     --slow-query-ms <ms>    log queries slower than this to stderr and
//                             the slow-trace ring (0 disables; default 0)
//     --<option> <value>      per-server default of one execution option
//                             (minidb/sql/options.h name with dashes, e.g.
//                             --exec-threads 4, --invidx off); a value
//                             outside its type or range exits with status 2
//
// On startup the daemon prints "listening on <host>:<port>" (and the unix
// path if any) to stdout and flushes, so harnesses can scrape the ephemeral
// port. SIGTERM/SIGINT trigger a graceful drain: in-flight requests finish,
// their responses are sent, open cursors release their locks, and the
// store closes cleanly.
//
// PT_DEBUG_CRASH_AT=<n> (testing hook, used by scripts/server_kill_test.sh):
// SIGKILL the daemon at the n-th disk write/sync/truncate, leaving a
// genuinely crashed store for the restart-recovery test.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include <unistd.h>

#include "minidb/sql/options.h"
#include "minidb/vfs.h"
#include "obs/trace.h"
#include "server/server.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void onTerminate(int) {
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

bool parseHostPort(const std::string& spec, std::string& host, std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) return false;
  host = spec.substr(0, colon);
  const long value = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
  if (value < 0 || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

std::string optionFlag(const perftrack::minidb::sql::OptionSpec& spec) {
  std::string flag = "--" + std::string(spec.name);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen host:port] [--unix path] [--workers n]\n"
               "       [--max-conn n] [--idle-timeout ms] [--lock-timeout ms]\n"
               "       [--durability=full|wal|none] [--wal-autocheckpoint n]\n"
               "       [--no-remote-shutdown]\n"
               "       [--metrics-port n] [--slow-query-ms ms]\n"
               "       [--<option> value] <database|:memory:>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perftrack;

  // A client that disconnects mid-response must surface as EPIPE on the
  // worker's send, never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  server::ServerConfig config;
  config.port = 7077;
  minidb::OpenOptions options;
  bool explicit_listen = false;

  int arg = 1;
  auto nextValue = [&](const char* flag) -> const char* {
    if (arg + 1 >= argc) {
      std::fprintf(stderr, "ptserverd: %s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++arg];
  };
  for (; arg < argc && std::string(argv[arg]).rfind("--", 0) == 0; ++arg) {
    const std::string flag = argv[arg];
    if (flag == "--listen") {
      if (!parseHostPort(nextValue("--listen"), config.host, config.port)) {
        std::fprintf(stderr, "ptserverd: bad --listen spec (want host:port)\n");
        return 2;
      }
      explicit_listen = true;
    } else if (flag == "--unix") {
      config.unix_path = nextValue("--unix");
      // --unix alone means unix-only, unless --listen was also given.
      if (!explicit_listen) config.tcp = false;
    } else if (flag == "--workers") {
      config.workers = std::atoi(nextValue("--workers"));
      if (config.workers < 1) config.workers = 1;
    } else if (flag == "--max-conn") {
      config.max_connections =
          static_cast<std::size_t>(std::strtoul(nextValue("--max-conn"), nullptr, 10));
    } else if (flag == "--idle-timeout") {
      config.idle_timeout =
          std::chrono::milliseconds(std::atol(nextValue("--idle-timeout")));
    } else if (flag == "--lock-timeout") {
      config.limits.lock_timeout =
          std::chrono::milliseconds(std::atol(nextValue("--lock-timeout")));
    } else if (flag == "--durability=full") {
      options.durability = minidb::Durability::Full;
    } else if (flag == "--durability=wal") {
      options.durability = minidb::Durability::Wal;
    } else if (flag == "--durability=none") {
      options.durability = minidb::Durability::None;
    } else if (flag == "--wal-autocheckpoint") {
      options.wal_autocheckpoint = static_cast<std::uint32_t>(
          std::strtoul(nextValue("--wal-autocheckpoint"), nullptr, 10));
    } else if (flag == "--no-remote-shutdown") {
      config.limits.allow_shutdown = false;
    } else if (flag == "--metrics-port") {
      config.metrics_port = std::atoi(nextValue("--metrics-port"));
      if (config.metrics_port < 0 || config.metrics_port > 65535) {
        std::fprintf(stderr, "ptserverd: bad --metrics-port (want 0..65535)\n");
        return 2;
      }
    } else if (flag == "--slow-query-ms") {
      obs::Tracer::global().setSlowQueryMillis(
          static_cast<std::uint64_t>(std::atol(nextValue("--slow-query-ms"))));
    } else {
      const auto& table = minidb::sql::optionTable();
      const auto spec = std::find_if(table.begin(), table.end(), [&](const auto& row) {
        return optionFlag(row) == flag;
      });
      if (spec == table.end()) {
        std::fprintf(stderr, "ptserverd: unknown flag '%s'\n", flag.c_str());
        return usage(argv[0]);
      }
      const char* text = nextValue(flag.c_str());
      const auto value = minidb::sql::parseOptionValue(*spec, text);
      if (!value) {
        std::fprintf(stderr, "ptserverd: %s wants a value in [%lld, %lld], got '%s'\n",
                     flag.c_str(), static_cast<long long>(spec->min),
                     static_cast<long long>(spec->max), text);
        return 2;
      }
      spec->set(config.limits.exec_options, *value);
    }
  }
  if (arg != argc - 1) return usage(argv[0]);
  const std::string db_path = argv[arg];
  // --listen was given explicitly alongside nothing else: keep TCP on even
  // if a later --unix turned it off (flag order independence).
  if (explicit_listen) config.tcp = true;

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
    auto db = db_path == ":memory:" ? minidb::Database::openMemory()
                                    : minidb::Database::open(db_path, options);
    const auto& recovery = db->recoveryStats();
    if (recovery.recovered) {
      std::fprintf(stderr,
                   "ptserverd: recovered: rolled back %u page(s) from a hot "
                   "journal (previous process crashed mid-commit)\n",
                   recovery.pages_restored);
    }
    if (recovery.wal_replayed) {
      std::fprintf(stderr,
                   "ptserverd: recovered: replayed %u page(s) from a stale "
                   "WAL (previous process exited before its checkpoint)\n",
                   recovery.wal_frames_applied);
    }
    if (recovery.discarded_invalid_wal) {
      std::fprintf(stderr,
                   "ptserverd: recovered: discarded a torn WAL tail "
                   "(uncommitted frames from a crashed writer)\n");
    }

    server::PtServer srv(*db, config);
    srv.start();

    if (config.tcp) {
      std::printf("listening on %s:%u\n", config.host.c_str(), srv.boundPort());
    }
    if (!config.unix_path.empty()) {
      std::printf("listening on unix:%s\n", config.unix_path.c_str());
    }
    if (config.metrics_port >= 0) {
      std::printf("metrics on http://%s:%u/metrics\n", config.host.c_str(),
                  srv.boundMetricsPort());
    }
    std::fflush(stdout);

    if (::pipe(g_signal_pipe) != 0) {
      std::fprintf(stderr, "ptserverd: cannot create signal pipe\n");
      return 1;
    }
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);

    // Signals must not call into the server (locks are not async-signal
    // safe); the handler pokes a pipe and this relay does the real work.
    std::thread relay([&srv] {
      char byte = 0;
      if (::read(g_signal_pipe[0], &byte, 1) > 0 && byte == 1) {
        srv.requestStop();
      }
    });

    srv.waitUntilStopped();  // drains on SIGTERM/SIGINT or a SHUTDOWN frame

    // Unblock the relay if the stop came from a SHUTDOWN frame.
    const char quit = 0;
    (void)!::write(g_signal_pipe[1], &quit, 1);
    relay.join();

    std::printf("ptserverd: drained, closing store\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptserverd: %s\n", e.what());
    return 1;
  }
}
