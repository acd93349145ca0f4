// Durability ablation: what does the crash-safe commit path cost?
//
// Durability::Wal (the crash-safe mode) appends redo frames and fsyncs once
// per commit, deferring the page overwrite to a checkpoint; the legacy
// in-place path (Durability::None) rewrites pages with no log and no fsync.
// This bench ingests the same synthetic result batches through the dbal
// prepared-statement hot path in both modes and reports rows/s, commit
// latency, and the overhead ratio, at two commit granularities (the paper
// loads one execution per transaction; small transactions amplify the
// per-commit fsync cost).
//
// A second sweep measures group commit: N concurrent committers running
// begin -> INSERT -> commitDeferred under a writer lock but fsyncing
// OUTSIDE it (the ptserverd pattern), so overlapping waitDurable() calls
// batch behind one leader. Reported as commits/s, ms/commit, and actual
// fsyncs per commit at each concurrency.
//
// PT_DURABILITY_JSON=<path>: also emit the rows as JSON (one object per
// mode x batch-size cell) for scripts/bench_smoke.sh and before/after
// comparisons.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dbal/connection.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace perftrack;

namespace {

struct Cell {
  std::string mode;
  int batch_rows = 0;
  int commits = 0;
  std::int64_t rows = 0;
  double seconds = 0.0;
  double fsyncs_per_commit = -1.0;  // group-commit sweep only
  double rows_per_s() const { return seconds > 0 ? rows / seconds : 0.0; }
  double ms_per_commit() const { return commits > 0 ? 1e3 * seconds / commits : 0.0; }
};

const char* modeName(minidb::Durability durability) {
  return durability == minidb::Durability::Wal ? "wal" : "none";
}

Cell runIngest(minidb::Durability durability, int batch_rows, int batches) {
  util::TempDir dir("pt_bench_dur");
  minidb::OpenOptions options;
  options.durability = durability;
  auto conn = dbal::Connection::open(dir.file("bench.db").string(), options);
  conn->exec(
      "CREATE TABLE result (id INTEGER PRIMARY KEY, ctx INTEGER, metric INTEGER, "
      "value REAL, units TEXT)");
  conn->exec("CREATE INDEX result_by_ctx ON result (ctx)");

  Cell cell;
  cell.mode = modeName(durability);
  cell.batch_rows = batch_rows;
  const char* ins =
      "INSERT INTO result (ctx, metric, value, units) VALUES (?, ?, ?, ?)";
  util::Timer timer;
  for (int b = 0; b < batches; ++b) {
    conn->begin();
    for (int i = 0; i < batch_rows; ++i) {
      const int n = b * batch_rows + i;
      conn->execPrepared(ins, {minidb::Value(n % 97), minidb::Value(n % 13),
                               minidb::Value(n * 0.25), minidb::Value("seconds")});
    }
    conn->commit();
    ++cell.commits;
    cell.rows += batch_rows;
  }
  cell.seconds = timer.elapsedSeconds();
  return cell;
}

// N committers share one store: the writer lock covers the work and the
// WAL append, but each thread fsyncs outside it, so concurrent commits ride
// one leader fsync. fsyncs/commit approaching 1/N is group commit working.
Cell runGroupCommit(int writers, int commits_each) {
  util::TempDir dir("pt_bench_gc");
  minidb::OpenOptions options;
  options.durability = minidb::Durability::Wal;
  auto db = minidb::Database::open(dir.file("gc.db").string(), options);
  minidb::sql::Engine ddl(*db);
  ddl.exec("CREATE TABLE result (id INTEGER PRIMARY KEY, v INTEGER)");

  obs::Counter& fsyncs = obs::Registry::global().counter("pt_wal_fsyncs_total");
  const std::uint64_t fsyncs_before = fsyncs.value();

  Cell cell;
  cell.mode = "wal-group";
  cell.batch_rows = writers;
  std::mutex write_mu;
  util::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < commits_each; ++i) {
        std::uint64_t lsn = 0;
        {
          std::lock_guard<std::mutex> lk(write_mu);
          db->begin();
          db->insertRow("result", {minidb::Value(), minidb::Value(std::int64_t{i})});
          lsn = db->commitDeferred();
        }
        db->waitDurable(lsn);
      }
    });
  }
  for (auto& t : threads) t.join();
  cell.seconds = timer.elapsedSeconds();
  cell.commits = writers * commits_each;
  cell.rows = cell.commits;
  cell.fsyncs_per_commit =
      static_cast<double>(fsyncs.value() - fsyncs_before) / cell.commits;
  return cell;
}

void writeJson(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"mode\": \"" << c.mode << "\", \"batch_rows\": " << c.batch_rows
        << ", \"commits\": " << c.commits << ", \"rows\": " << c.rows
        << ", \"seconds\": " << c.seconds << ", \"rows_per_s\": " << c.rows_per_s()
        << ", \"ms_per_commit\": " << c.ms_per_commit()
        << ", \"fsyncs_per_commit\": " << c.fsyncs_per_commit << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main() {
  // ~1 execution per commit (paper-style bulk load) vs chatty small commits.
  const struct { int batch_rows; int batches; } shapes[] = {
      {1500, 8},  // bulk: Table 1's one-execution transactions
      {50, 60},   // chatty: per-commit fsync cost dominates
  };

  std::vector<Cell> cells;
  std::printf("%-9s %-11s %10s %10s %12s %14s\n", "mode", "batch", "rows",
              "seconds", "rows/s", "ms/commit");
  for (const auto& shape : shapes) {
    Cell none = runIngest(minidb::Durability::None, shape.batch_rows, shape.batches);
    Cell wal = runIngest(minidb::Durability::Wal, shape.batch_rows, shape.batches);
    for (const Cell& c : {none, wal}) {
      std::printf("%-9s %5d x %-3d %10lld %10.3f %12.0f %14.3f\n", c.mode.c_str(),
                  c.batch_rows, c.commits, static_cast<long long>(c.rows), c.seconds,
                  c.rows_per_s(), c.ms_per_commit());
      cells.push_back(c);
    }
    std::printf("  -> durability overhead: wal %.2fx slower, batch=%d\n",
                none.seconds > 0 ? wal.seconds / none.seconds : 0.0,
                shape.batch_rows);
  }

  // Group commit: per-commit latency and fsync sharing vs concurrency.
  std::printf("\n%-9s %8s %10s %14s %16s\n", "mode", "writers", "commits",
              "ms/commit", "fsyncs/commit");
  for (int writers : {1, 2, 4, 8}) {
    Cell c = runGroupCommit(writers, 60);
    std::printf("%-9s %8d %10d %14.3f %16.3f\n", c.mode.c_str(), c.batch_rows,
                c.commits, c.ms_per_commit(), c.fsyncs_per_commit);
    cells.push_back(c);
  }
  if (const char* json = std::getenv("PT_DURABILITY_JSON")) {
    writeJson(json, cells);
    std::printf("wrote %s\n", json);
  }
  obs::writeSnapshotIfRequested();
  return 0;
}
