// ptserverd concurrency bench: what does the daemon cost, and does it scale?
//
// Spins up an in-process PtServer over an in-memory store preloaded with a
// result table, then drives it with N concurrent clients (N = 1, 4, 8), each
// running a loop of point SELECTs (one prepared roundtrip per request) for a
// fixed wall-clock budget. Reports aggregate throughput and client-observed
// p50/p99 request latency per client count, plus one streaming row for a
// full-table scan (rows/s through FETCH batches). A flat p50 and rising
// aggregate throughput as N grows is the shared-read-gate claim (DESIGN.md
// §5.4) in numbers; p99 shows the queueing tail.
//
// A second sweep runs the same point-SELECT loop against a file-backed WAL
// store while one writer client commits a fat UPDATE in a loop. Readers
// stream pinned snapshots and never wait for the committing writer
// (DESIGN.md §5.7), so their p99 stays near the idle p99.
//
// An export_execution row runs ptdf::exportExecution of a 16-process Frost
// IRS run over the wire (`ptexport --connect`) in a loop, counting exported
// lines as its requests: lines/s, and p50/p99 per whole export.
//
// Every row also carries frames_per_req: the server's frame-counter delta
// over the phase divided by its requests (rows, for the scan; lines, for
// the export). A cached point SELECT is one EXECUTE frame, so the point
// rows read just above 1.00 (each client's HELLO and PREPARE ride on top);
// an export reads its execution in a fixed handful of statements, so its
// row reads far below 1.
//
// PT_SERVER_JSON=<path>: also emit the cells as JSON (one object per row)
// for scripts/bench_smoke.sh and before/after comparisons.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/datastore.h"
#include "dbal/connection.h"
#include "dbal/remote.h"
#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "ptdf/export.h"
#include "ptdf/ptdf.h"
#include "server/server.h"
#include "sim/irs_gen.h"
#include "sim/machines.h"
#include "tools/irs_parser.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace perftrack;

namespace {

constexpr std::int64_t kTableRows = 20000;
constexpr auto kBudget = std::chrono::milliseconds(400);

struct Cell {
  std::string phase;
  int clients = 0;
  std::int64_t requests = 0;  // completed requests (or rows, for the scan)
  double seconds = 0.0;
  double throughput = 0.0;  // requests (rows) per second, all clients summed
  double p50_us = 0.0;
  double p99_us = 0.0;
  double frames_per_req = 0.0;  // server frames served / requests
};

/// Server frames served so far (request frames; one per round trip).
std::uint64_t framesServed(const server::PtServer& srv) {
  return srv.counters().frames_served.load(std::memory_order_relaxed);
}

void setFramesPerReq(Cell& cell, std::uint64_t frames) {
  cell.frames_per_req =
      cell.requests > 0 ? static_cast<double>(frames) / static_cast<double>(cell.requests)
                        : 0.0;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const auto nth = static_cast<std::ptrdiff_t>(p * (samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + nth, samples.end());
  return samples[nth];
}

/// N clients, each looping a prepared point SELECT until the budget expires.
Cell runPointQueries(const server::PtServer& srv, const std::string& url, int clients) {
  const std::uint64_t frames0 = framesServed(srv);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> total{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  util::Timer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto conn = dbal::Connection::open(url);
      // Deterministic per-client probe sequence; no shared RNG.
      std::int64_t key = 1 + c * 37;
      std::int64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        util::Timer rt;
        conn->queryValue("SELECT value FROM result WHERE id = ?",
                         {minidb::Value(key)});
        latencies[c].push_back(1e6 * rt.elapsedSeconds());
        key = 1 + (key * 31) % kTableRows;
        ++done;
      }
      total.fetch_add(done, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(kBudget);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double seconds = timer.elapsedSeconds();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  Cell cell;
  cell.phase = "point_select";
  cell.clients = clients;
  cell.requests = total.load();
  cell.seconds = seconds;
  cell.throughput = static_cast<double>(cell.requests) / seconds;
  cell.p50_us = percentile(all, 0.50);
  cell.p99_us = percentile(all, 0.99);
  setFramesPerReq(cell, framesServed(srv) - frames0);
  return cell;
}

/// One client streaming the whole table through FETCH batches.
Cell runScan(const server::PtServer& srv, const std::string& url) {
  const std::uint64_t frames0 = framesServed(srv);
  auto conn = dbal::Connection::open(url);
  util::Timer timer;
  auto cur = conn->query("SELECT id, value FROM result");
  minidb::Row row;
  std::int64_t rows = 0;
  while (cur.next(row)) ++rows;
  Cell cell;
  cell.phase = "full_scan";
  cell.clients = 1;
  cell.requests = rows;
  cell.seconds = timer.elapsedSeconds();
  cell.throughput = static_cast<double>(rows) / cell.seconds;
  setFramesPerReq(cell, framesServed(srv) - frames0);
  return cell;
}

/// One client exporting a 16-process Frost IRS run over the wire, in a loop
/// until the budget expires; loads the run into the served store first.
Cell runExportExecution(const server::PtServer& srv, const std::string& url) {
  auto conn = dbal::Connection::open(url);
  core::PTDataStore store(*conn);
  store.initialize();
  std::string exec;
  {
    util::TempDir dir("pt_bench_export");
    exec = sim::generateIrsRun({sim::frostConfig(), 16, "MPI", 1, ""}, dir.file("irs"))
               .exec_name;
    std::stringstream text;
    ptdf::Writer writer(text);
    tools::convertIrsRun(dir.file("irs"), sim::frostConfig(), writer);
    ptdf::load(store, text);
  }

  const std::uint64_t frames0 = framesServed(srv);
  std::vector<double> latencies;
  std::int64_t lines = 0;
  util::Timer timer;
  do {
    std::ostringstream out;
    ptdf::Writer writer(out);
    util::Timer rt;
    ptdf::exportExecution(store, exec, writer);
    latencies.push_back(1e6 * rt.elapsedSeconds());
    lines += static_cast<std::int64_t>(writer.linesWritten());
  } while (timer.elapsedSeconds() < std::chrono::duration<double>(kBudget).count());
  Cell cell;
  cell.phase = "export_execution";
  cell.clients = 1;
  cell.requests = lines;
  cell.seconds = timer.elapsedSeconds();
  cell.throughput = static_cast<double>(lines) / cell.seconds;
  cell.p50_us = percentile(latencies, 0.50);
  cell.p99_us = percentile(latencies, 0.99);
  setFramesPerReq(cell, framesServed(srv) - frames0);
  return cell;
}

/// Readers hammering point SELECTs while one writer loops committed fat
/// UPDATEs, on a file-backed WAL store. Reader latencies include any
/// BUSY-retry stalls — that is the measurement.
Cell runReadDuringCommit(const std::string& db_path, int readers) {
  auto db = minidb::Database::open(db_path);
  {
    // Seed embedded (one fat transaction) — the wire path is autocommit
    // only and would pay a fsync per row.
    minidb::sql::Engine seed(*db);
    seed.exec("CREATE TABLE result (id INTEGER PRIMARY KEY, metric INTEGER, "
              "value REAL)");
    seed.exec("BEGIN");
    minidb::sql::PreparedStatement ins =
        seed.prepare("INSERT INTO result (metric, value) VALUES (?, ?)");
    for (std::int64_t i = 0; i < kTableRows; ++i) {
      ins.execute({minidb::Value(i % 13), minidb::Value(i * 0.25)});
    }
    seed.exec("COMMIT");
  }

  server::ServerConfig config;
  config.port = 0;
  config.workers = readers + 2;
  server::PtServer srv(*db, config);
  srv.start();
  const std::string url = "pt://127.0.0.1:" + std::to_string(srv.boundPort());

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t> commits{0};
  const std::uint64_t frames0 = framesServed(srv);
  std::vector<std::vector<double>> latencies(readers);
  std::vector<std::thread> threads;
  util::Timer timer;
  threads.emplace_back([&] {  // the committing writer
    auto conn = dbal::Connection::open(url);
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        conn->exec("UPDATE result SET value = value + 1 WHERE id <= 2000");
        commits.fetch_add(1, std::memory_order_relaxed);
      } catch (const dbal::ServerBusyError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      auto conn = dbal::Connection::open(url);
      std::int64_t key = 1 + c * 37;
      std::int64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        util::Timer rt;
        for (;;) {  // BUSY retries count toward this request's latency
          try {
            conn->queryValue("SELECT value FROM result WHERE id = ?",
                             {minidb::Value(key)});
            break;
          } catch (const dbal::ServerBusyError&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        latencies[c].push_back(1e6 * rt.elapsedSeconds());
        key = 1 + (key * 31) % kTableRows;
        ++done;
      }
      total.fetch_add(done, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(kBudget);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double seconds = timer.elapsedSeconds();
  const std::uint64_t frames = framesServed(srv) - frames0;
  srv.stop();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  Cell cell;
  cell.phase = "read_during_commit_wal";
  cell.clients = readers;
  cell.requests = total.load();
  cell.seconds = seconds;
  cell.throughput = static_cast<double>(cell.requests) / seconds;
  cell.p50_us = percentile(all, 0.50);
  cell.p99_us = percentile(all, 0.99);
  // Readers' frames plus the writer's and any BUSY retries: the wire cost
  // per completed read.
  setFramesPerReq(cell, frames);
  std::printf("  (%s: writer landed %lld commits)\n", cell.phase.c_str(),
              static_cast<long long>(commits.load()));
  return cell;
}

void writeJson(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"phase\": \"" << c.phase << "\", \"clients\": " << c.clients
        << ", \"requests\": " << c.requests << ", \"seconds\": " << c.seconds
        << ", \"per_second\": " << c.throughput << ", \"p50_us\": " << c.p50_us
        << ", \"p99_us\": " << c.p99_us
        << ", \"frames_per_req\": " << c.frames_per_req << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main() {
  auto db = minidb::Database::openMemory();
  server::ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = 8;
  server::PtServer srv(*db, config);
  srv.start();
  const std::string url =
      "pt://127.0.0.1:" + std::to_string(srv.boundPort());

  {
    auto seed = dbal::Connection::open(url);
    seed->exec(
        "CREATE TABLE result (id INTEGER PRIMARY KEY, metric INTEGER, "
        "value REAL)");
    for (std::int64_t i = 0; i < kTableRows; ++i) {
      seed->execPrepared("INSERT INTO result (metric, value) VALUES (?, ?)",
                         {minidb::Value(i % 13), minidb::Value(i * 0.25)});
    }
  }

  std::vector<Cell> cells;
  std::printf("%-24s %8s %10s %10s %12s %10s %10s %10s\n", "phase", "clients",
              "requests", "seconds", "per_second", "p50_us", "p99_us", "frames/req");
  for (const int clients : {1, 4, 8}) {
    cells.push_back(runPointQueries(srv, url, clients));
  }
  cells.push_back(runScan(srv, url));
  cells.push_back(runExportExecution(srv, url));
  {
    // Snapshot reads under a committing writer.
    util::TempDir dir("pt_bench_srv");
    cells.push_back(runReadDuringCommit(dir.file("wal.db").string(), 4));
  }
  for (const Cell& c : cells) {
    std::printf("%-24s %8d %10lld %10.3f %12.0f %10.1f %10.1f %10.4f\n",
                c.phase.c_str(), c.clients, static_cast<long long>(c.requests),
                c.seconds, c.throughput, c.p50_us, c.p99_us, c.frames_per_req);
  }

  if (const char* json = std::getenv("PT_SERVER_JSON")) {
    writeJson(json, cells);
    std::printf("wrote %s\n", json);
  }

  srv.stop();
  obs::writeSnapshotIfRequested();
  return 0;
}
