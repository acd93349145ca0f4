// Server-level WAL isolation: snapshot reads over the wire protocol while
// remote writers commit through the group-commit path. Runs under
// ThreadSanitizer via the `wal` label (scripts/ci.sh tsan).
//
// The embedded half of this matrix lives in tests/minidb/snapshot_test.cpp;
// here the full client → frame → session → DbGate → pager path is live:
//   * a streaming cursor pins one committed version and drains it unchanged
//     while a writer commits generation after generation around it;
//   * an open reader cursor does not make a writer BUSY (DML takes only
//     writer-writer exclusion), and the writer's commits do not stall the
//     readers;
//   * a cursor stays consistent across WAL auto-checkpoints (tiny threshold
//     forces folds between its FETCH batches);
//   * every scan sees MIN(g) == MAX(g): one whole committed generation;
//   * IN-probes under snapshots take the inverted-index path while writers
//     commit to the probed table, and equal the B-tree path's answer under
//     the same snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dbal/connection.h"
#include "dbal/remote.h"
#include "minidb/database.h"
#include "minidb/invidx/manager.h"
#include "minidb/sql/executor.h"
#include "server/server.h"
#include "util/tempdir.h"

namespace perftrack {
namespace {

using dbal::Connection;
using dbal::ServerBusyError;

// More rows than one FETCH batch (the server default is 256), so a scan
// takes several round trips and writers get windows to commit mid-cursor.
constexpr int kRows = 900;
constexpr int kGenerations = 25;
constexpr int kReaders = 3;

class WalIsolationTest : public ::testing::Test {
 protected:
  WalIsolationTest() {
    minidb::OpenOptions options;
    options.durability = minidb::Durability::Wal;
    options.wal_autocheckpoint = 8;  // fold often: checkpoints mid-workload
    db_ = minidb::Database::open(tmp_.file("wal_iso.db").string(), options);

    server::ServerConfig config;
    config.port = 0;
    config.workers = 2 + kReaders;
    config.limits.lock_timeout = std::chrono::milliseconds(200);
    srv_ = std::make_unique<server::PtServer>(*db_, config);
    srv_->start();
    url_ = "pt://127.0.0.1:" + std::to_string(srv_->boundPort());

    auto setup = Connection::open(url_);
    setup->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)");
    std::string values;
    for (int i = 0; i < 100; ++i) values += i ? ", (0)" : "(0)";
    for (int i = 0; i < kRows / 100; ++i) {
      setup->exec("INSERT INTO t (g) VALUES " + values);
    }
  }

  /// Retries `fn` through BUSY (writer-writer contention is expected; losing
  /// a lock-timeout race is not a failure).
  template <typename Fn>
  static void withBusyRetry(Fn&& fn) {
    for (;;) {
      try {
        fn();
        return;
      } catch (const ServerBusyError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  /// Streams SELECT g FROM t through a server-side cursor and returns
  /// {generation, rows seen}, asserting the scan saw exactly one generation.
  static std::pair<std::int64_t, std::int64_t> scanOneGeneration(
      Connection& conn) {
    dbal::Cursor cur = conn.query("SELECT g FROM t");
    std::int64_t min_g = INT64_MAX, max_g = INT64_MIN, rows = 0;
    minidb::Row row;
    while (cur.next(row)) {
      const std::int64_t g = row[0].asInt();
      min_g = std::min(min_g, g);
      max_g = std::max(max_g, g);
      ++rows;
    }
    EXPECT_EQ(min_g, max_g) << "scan straddled a commit";
    return {min_g, rows};
  }

  util::TempDir tmp_;
  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> srv_;
  std::string url_;
};

TEST_F(WalIsolationTest, OpenReaderCursorDoesNotBlockAWriter) {
  auto reader = Connection::open(url_);
  auto writer = Connection::open(url_);

  // Open a cursor and pull one batch; the session now holds a shared gate
  // hold AND a pinned snapshot until the cursor drains.
  dbal::Cursor cur = reader->query("SELECT g FROM t");
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asInt(), 0);

  // DML waits only for other writers, never for readers: this UPDATE must
  // land first try while the cursor is open.
  ASSERT_NO_THROW(writer->exec("UPDATE t SET g = 1"));

  // ... and the cursor keeps draining generation 0, to the last row.
  std::int64_t rows = 1;
  while (cur.next(row)) {
    EXPECT_EQ(row[0].asInt(), 0) << "open cursor leaked a later commit";
    ++rows;
  }
  EXPECT_EQ(rows, kRows);

  EXPECT_EQ(reader->queryInt("SELECT MIN(g) FROM t"), 1);
}

TEST_F(WalIsolationTest, CursorStaysConsistentAcrossAutoCheckpoints) {
  auto reader = Connection::open(url_);
  auto writer = Connection::open(url_);

  dbal::Cursor cur = reader->query("SELECT g FROM t");
  minidb::Row row;
  ASSERT_TRUE(cur.next(row));

  // Each UPDATE commits hundreds of WAL frames against an autocheckpoint
  // threshold of 8, so checkpoint attempts happen between the cursor's
  // FETCH batches. The pinned snapshot defers the folds it still needs.
  for (int g = 1; g <= 5; ++g) {
    withBusyRetry([&] { writer->exec("UPDATE t SET g = " + std::to_string(g)); });
  }

  std::int64_t rows = 1;
  do {
    EXPECT_EQ(row[0].asInt(), 0) << "checkpoint disturbed a pinned cursor";
  } while (cur.next(row) && ++rows);
  EXPECT_EQ(rows, kRows);

  // With the pin released, later write traffic folds the log back down.
  withBusyRetry([&] { writer->exec("UPDATE t SET g = 6") ; });
  EXPECT_EQ(reader->queryInt("SELECT MAX(g) FROM t"), 6);
}

TEST_F(WalIsolationTest, ConcurrentScansEachSeeOneCommittedGeneration) {
  std::atomic<bool> done{false};
  std::thread writer([&] {
    auto conn = Connection::open(url_);
    for (int g = 1; g <= kGenerations; ++g) {
      withBusyRetry([&] { conn->exec("UPDATE t SET g = " + std::to_string(g)); });
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<int> scans{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto conn = Connection::open(url_);
      std::int64_t last_gen = 0;
      auto scanOnce = [&] {
        const auto [gen, rows] = scanOneGeneration(*conn);
        EXPECT_EQ(rows, kRows);
        EXPECT_GE(gen, last_gen) << "a later scan saw an earlier commit";
        last_gen = gen;
        scans.fetch_add(1, std::memory_order_relaxed);
      };
      while (!done.load(std::memory_order_acquire)) scanOnce();
      scanOnce();  // guaranteed to start after the final commit published
      EXPECT_EQ(last_gen, kGenerations);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(scans.load(), kReaders);
}

TEST_F(WalIsolationTest, InvidxProbesUnderSnapshotsMatchTheBtreePathWhileWritersCommit) {
  {
    auto setup = Connection::open(url_);
    setup->exec("CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, g INTEGER)");
    setup->exec("CREATE INDEX p_by_k ON p (k)");
    std::string values;
    for (int i = 0; i < 300; ++i) {
      values += (i ? ", (" : "(") + std::to_string(i % 30) + ", 0)";
    }
    setup->exec("INSERT INTO p (k, g) VALUES " + values);
  }
  auto& c = minidb::invidx::counters();
  const std::uint64_t probes0 = c.probes.value();
  const std::uint64_t fallbacks0 = c.fallbacks.value();

  // Writers: every commit inserts, deletes or moves rows of the probed keys.
  constexpr int kWriters = 2;
  constexpr int kCommitsPerWriter = 30;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto conn = Connection::open(url_);
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const std::string k = std::to_string((w * 7 + i) % 30);
        const std::string sql =
            i % 3 == 0 ? "INSERT INTO p (k, g) VALUES (" + k + ", " + std::to_string(i) + ")"
            : i % 3 == 1 ? "DELETE FROM p WHERE id = " + std::to_string(1 + w * 100 + i)
                         : "UPDATE p SET k = " + k + " WHERE id = " +
                               std::to_string(150 + w * 50 + i);
        withBusyRetry([&] { conn->exec(sql); });
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }

  // In-process snapshot readers: the same probe on the posting path and on
  // the B-tree path, both under one pinned snapshot, must agree.
  const char* probe = "SELECT id, k, g FROM p WHERE k IN (1, 4, 9, 16, 25) ORDER BY id";
  std::atomic<int> compared{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      minidb::sql::Engine fast(*db_);
      minidb::sql::Engine btree(*db_);
      btree.setOption("invidx", false);
      auto compareOnce = [&] {
        const minidb::Pager::ReadSnapshot snap = db_->takeSnapshot();
        const minidb::Pager::SnapshotScope scope(snap);
        const auto a = fast.exec(probe);
        const auto b = btree.exec(probe);
        ASSERT_EQ(a.rows.size(), b.rows.size()) << "at commit seq " << snap.seq();
        for (std::size_t i = 0; i < a.rows.size(); ++i) {
          for (std::size_t col = 0; col < 3; ++col) {
            ASSERT_EQ(a.rows[i][col].compare(b.rows[i][col]), 0)
                << "at commit seq " << snap.seq() << ", row " << i;
          }
        }
        compared.fetch_add(1, std::memory_order_relaxed);
      };
      while (writers_left.load(std::memory_order_acquire) > 0) compareOnce();
      compareOnce();
    });
  }
  // A wire reader probes through the server's own snapshot sessions.
  std::thread wire_reader([&] {
    auto conn = Connection::open(url_);
    while (writers_left.load(std::memory_order_acquire) > 0) {
      const auto rs = conn->exec(probe);
      EXPECT_GT(rs.rows.size(), 0u);
    }
  });

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  wire_reader.join();
  EXPECT_GE(compared.load(), 2);
  EXPECT_GT(c.probes.value(), probes0);
  EXPECT_EQ(c.fallbacks.value(), fallbacks0) << "a snapshot probe declined the index";
}

}  // namespace
}  // namespace perftrack
