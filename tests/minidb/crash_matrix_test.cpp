// Crash-matrix harness: prove FilePager's atomic commit under injected
// faults at *every* disk operation of a workload.
//
// The workload (DDL + ingest + index build + update/delete + VACUUM, all
// through the dbal Connection) is first run fault-free against a counting
// VFS to learn its N fault points and record the expected table contents
// after each commit. Then, for every k in 1..N, the workload is rerun from
// scratch with the k-th write/fsync/truncate/remove failing (simulated
// power loss — later operations never reach the disk), the store is
// reopened with a clean VFS, and the recovery invariants are asserted:
//
//   * the heap and every index pass verifyIntegrity();
//   * the contents equal the state after the last completed commit — the
//     transaction in flight at the crash is either fully present (the
//     crash hit after the commit point) or fully absent, never partial;
//   * the write-ahead log is gone after the reopen;
//   * cached statements replan and return correct results after recovery.
//
// The matrix is parameterized over (durability mode, torn): the same
// workload and the same invariants run against every crash-safe mode —
// the write-ahead log — clean and with torn (partial-sector) writes at the
// fault point. Runs use a tiny autocheckpoint so fault points land inside
// checkpoints (WAL folding back into the db file) as well as inside
// commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dbal/connection.h"
#include "minidb/pager.h"
#include "minidb/vfs.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack::minidb {
namespace {

using dbal::Connection;

// Expected table contents: (id, k, v) ordered by id.
using Snapshot = std::vector<std::tuple<std::int64_t, std::int64_t, std::string>>;

struct WorkloadTrace {
  std::vector<Snapshot> after_commit;  // state after commit i+1
  std::size_t commits_completed = 0;
};

Snapshot snapshotOf(const std::map<std::int64_t, std::pair<std::int64_t, std::string>>& m) {
  Snapshot s;
  for (const auto& [id, kv] : m) s.emplace_back(id, kv.first, kv.second);
  return s;
}

/// Runs the full workload. Updates `trace` as commits complete; an injected
/// fault propagates out with `trace` describing exactly how far it got.
void runWorkload(const std::string& path, Vfs* vfs, Durability durability,
                 WorkloadTrace& trace) {
  OpenOptions options;
  options.durability = durability;
  // Low threshold: several checkpoints fire inside the workload, so the
  // fault sweep hits WAL-fold points, not just commit points.
  options.wal_autocheckpoint = 4;
  options.vfs = vfs;
  auto conn = Connection::open(path, options);
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> model;

  const auto commit = [&] {
    conn->commit();
    ++trace.commits_completed;
    trace.after_commit.push_back(snapshotOf(model));
  };

  // 1: DDL — table plus an index, one transaction.
  conn->begin();
  conn->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)");
  conn->exec("CREATE INDEX t_by_k ON t (k)");
  commit();

  // 2: ingest.
  conn->begin();
  for (int i = 0; i < 25; ++i) {
    const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                       {Value(i % 5), Value("v" + std::to_string(i))});
    model[rs.last_insert_id] = {i % 5, "v" + std::to_string(i)};
  }
  commit();

  // 3: update + delete.
  conn->begin();
  conn->exec("UPDATE t SET v = 'u' WHERE k = 1");
  for (auto& [id, kv] : model) {
    if (kv.first == 1) kv.second = "u";
  }
  conn->exec("DELETE FROM t WHERE k = 2");
  std::erase_if(model, [](const auto& e) { return e.second.first == 2; });
  commit();

  // 4: index build over existing rows.
  conn->begin();
  conn->exec("CREATE INDEX t_by_v ON t (v)");
  commit();

  // 5: more ingest through the now-doubly-indexed table.
  conn->begin();
  for (int i = 0; i < 10; ++i) {
    const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                       {Value(7), Value("w" + std::to_string(i))});
    model[rs.last_insert_id] = {7, "w" + std::to_string(i)};
  }
  commit();

  // 6: VACUUM — rewrites every heap and index, then flushes. Logical
  // contents are unchanged, so no snapshot is recorded.
  conn->exec("VACUUM");

  // 7: final ingest after the vacuum.
  conn->begin();
  const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                     {Value(9), Value("z")});
  model[rs.last_insert_id] = {9, "z"};
  commit();
}

/// Reads the current contents of `t` ordered by id; empty when the table
/// does not exist yet (crash before the DDL transaction committed).
Snapshot readState(Connection& conn) {
  Snapshot s;
  try {
    const auto rs = conn.exec("SELECT id, k, v FROM t ORDER BY id");
    for (const auto& row : rs.rows) {
      s.emplace_back(row[0].asInt(), row[1].asInt(), row[2].asText());
    }
  } catch (const util::PTError&) {
    // no such table: pre-schema state
  }
  return s;
}

using CrashMatrixParam = std::tuple<Durability, bool>;

class CrashMatrix : public ::testing::TestWithParam<CrashMatrixParam> {};

TEST_P(CrashMatrix, EveryFaultPointRecoversToACommittedState) {
  const auto [durability, torn] = GetParam();
  util::TempDir dir;

  // Fault-free run: learn the op count and the per-commit snapshots.
  FaultInjectingVfs counter(PosixVfs::instance());
  WorkloadTrace expected;
  runWorkload(dir.file("base.db").string(), &counter, durability, expected);
  const std::uint64_t fault_points = counter.mutatingOps();
  ASSERT_GT(fault_points, 20u) << "workload too small to be a meaningful matrix";
  ASSERT_EQ(expected.commits_completed, 6u);

  for (std::uint64_t k = 1; k <= fault_points; ++k) {
    SCOPED_TRACE("fault point " + std::to_string(k) + (torn ? " (torn)" : ""));
    const std::string path =
        dir.file("m" + std::to_string(torn) + "_" + std::to_string(k) + ".db").string();
    FaultInjectingVfs vfs(PosixVfs::instance());
    FaultPlan plan;
    plan.fail_at_op = k;
    plan.torn_write = torn;
    vfs.setPlan(plan);
    WorkloadTrace trace;
    bool crashed = false;
    try {
      runWorkload(path, &vfs, durability, trace);
    } catch (const InjectedFault&) {
      crashed = true;
    }
    // Late fault points land in the close-time checkpoint, where the
    // pager destructor swallows the exception (a real close would just die
    // with the process). The fault still fired — the store on disk is
    // crashed either way.
    ASSERT_TRUE(crashed || vfs.crashed())
        << "fault point " << k << " was never reached";

    // Reopen with a clean VFS: stale-WAL recovery runs here.
    OpenOptions options;
    options.durability = durability;
    auto conn = Connection::open(path, options);

    // The log must be consumed by recovery, whichever way it went.
    EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));

    // Storage invariants: heap and every index agree.
    EXPECT_TRUE(conn->database().verifyIntegrity().empty());

    // Atomicity: the store holds the state after the last completed commit,
    // or — when the crash hit between the commit point (the marker frame
    // reaching the log) and the commit call returning — the in-flight
    // transaction in full. Never anything in between. (A crash inside
    // VACUUM may land on either side of its flush too; both sides hold the
    // same logical contents, so the same check covers it.)
    const Snapshot got = readState(*conn);
    const std::size_t done = trace.commits_completed;
    const Snapshot& committed =
        done == 0 ? Snapshot{} : expected.after_commit[done - 1];
    if (done < expected.after_commit.size() &&
        got == expected.after_commit[done]) {
      SUCCEED();  // in-flight transaction fully committed before the crash
    } else {
      EXPECT_EQ(got, committed);
    }

    // Plan cache after recovery: repeated statements hit the cache and keep
    // returning correct results against the recovered store.
    if (done >= 1) {
      const char* q = "SELECT COUNT(*) FROM t WHERE k = ?";
      const auto first = conn->queryInt(q, {Value(1)});
      const auto before = conn->statementCacheStats();
      EXPECT_EQ(conn->queryInt(q, {Value(1)}), first);
      EXPECT_EQ(conn->statementCacheStats().hits, before.hits + 1);
    }
  }
}

std::string crashMatrixName(const ::testing::TestParamInfo<CrashMatrixParam>& info) {
  return std::string("Wal") + (std::get<1>(info.param) ? "TornWrites" : "CleanFaults");
}

INSTANTIATE_TEST_SUITE_P(
    CleanAndTorn, CrashMatrix,
    ::testing::Combine(::testing::Values(Durability::Wal), ::testing::Values(false, true)),
    crashMatrixName);

// --- direct commit-level tests -----------------------------------------------

TEST(DurablePager, CommitLeavesNoJournalBehind) {
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  FilePager pager(path);
  const PageId id = pager.allocate();
  std::memcpy(pager.pageForWrite(id), "durable", 7);
  pager.flush();
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
  EXPECT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  EXPECT_FALSE(pager.recoveryStats().wal_replayed);
}

TEST(DurablePager, FailedFlushRetriesCleanly) {
  // An injected fault is also how a transient I/O error looks to the pager:
  // a later flush must start from the last committed on-disk state and
  // carry the full dirty set forward.
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  FilePager pager(path, Durability::Wal, &vfs, /*wal_autocheckpoint=*/0);
  const PageId id = pager.allocate();
  std::memcpy(pager.pageForWrite(id), "first", 5);
  pager.flush();
  std::memcpy(pager.pageForWrite(id), "SECOND", 6);
  FaultPlan plan;
  plan.fail_at_op = vfs.mutatingOps() + 1;  // the frame write fails
  vfs.setPlan(plan);
  EXPECT_THROW(pager.flush(), InjectedFault);
  // "Transient" failure: the machine did not actually die. Clear the fault
  // and retry the flush on the same pager, then close it cleanly.
  vfs.reset();
  vfs.setPlan(FaultPlan{});
  pager.flush();
  pager.checkpoint();
  FilePager check(path, Durability::Wal);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  bool found = false;
  for (PageId p = 1; p < check.pageCount(); ++p) {
    if (std::memcmp(check.pageForRead(p), "SECOND", 6) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DurablePager, DurabilityNoneWritesNoJournal) {
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, Durability::None, &vfs);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "fast", 4);
    pager.flush();
  }
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  // No sync, no truncate, no log: just the page writes.
  FilePager check(path, Durability::None);
  bool found = false;
  for (PageId p = 1; p < check.pageCount(); ++p) {
    if (std::memcmp(check.pageForRead(p), "fast", 4) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DurablePager, CrashDuringFirstEverFlushRollsBackToEmpty) {
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, Durability::Wal, &vfs);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "never", 5);
    FaultPlan plan;
    plan.fail_at_op = 2;  // header write, then the frame write tears
    plan.torn_write = true;
    vfs.setPlan(plan);
    EXPECT_THROW(pager.flush(), InjectedFault);
  }
  // The commit never became durable: recovery finds no complete commit in
  // the log and the store opens as a fresh, empty database.
  FilePager pager(path, Durability::Wal);
  EXPECT_FALSE(pager.recoveryStats().wal_replayed);
  EXPECT_TRUE(pager.recoveryStats().discarded_invalid_wal);
  EXPECT_EQ(pager.pageCount(), 1u);
}

/// Whole contents of a file (empty when it does not exist).
std::string fileBytes(const std::string& path) {
  if (!PosixVfs::instance().exists(path)) return {};
  auto f = PosixVfs::instance().open(path, /*create=*/false);
  std::string bytes(f->size(), '\0');
  EXPECT_EQ(f->read(0, bytes.data(), bytes.size()), bytes.size());
  return bytes;
}

TEST(DurablePager, LeftoverJournalIsRefusedAndBothFilesStayByteIdentical) {
  // A rollback journal left by an earlier build may hold the before-images
  // of a half-written commit. This build cannot replay it, so open must
  // refuse — naming the file — rather than serve the half-written pages.
  util::TempDir dir;
  const std::string path = dir.file("j.db").string();
  const std::string journal = FilePager::journalPathFor(path);
  {
    FilePager pager(path, Durability::None);
    std::memcpy(pager.pageForWrite(pager.allocate()), "stored", 6);
    pager.flush();
  }
  {
    auto f = PosixVfs::instance().open(journal, /*create=*/true);
    const std::string hot = "PTDJ\x01 before-images of a crashed commit";
    f->write(0, hot.data(), hot.size());
  }
  const std::string db_before = fileBytes(path);
  const std::string journal_before = fileBytes(journal);
  ASSERT_FALSE(db_before.empty());

  for (Durability durability : {Durability::Wal, Durability::None}) {
    try {
      FilePager pager(path, durability);
      ADD_FAILURE() << "opened a store beside a non-empty journal";
    } catch (const util::StorageError& e) {
      EXPECT_NE(std::string(e.what()).find(journal), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(Connection::open(path), util::StorageError);
  EXPECT_EQ(fileBytes(path), db_before);
  EXPECT_EQ(fileBytes(journal), journal_before);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
}

TEST(DurablePager, EmptyLeftoverJournalIsRemovedOnOpen) {
  // An empty journal is an invalidated one: it describes no commit.
  util::TempDir dir;
  const std::string path = dir.file("j.db").string();
  const std::string journal = FilePager::journalPathFor(path);
  {
    FilePager pager(path, Durability::None);
    std::memcpy(pager.pageForWrite(pager.allocate()), "stored", 6);
    pager.flush();
  }
  PosixVfs::instance().open(journal, /*create=*/true);
  FilePager pager(path);
  EXPECT_FALSE(PosixVfs::instance().exists(journal));
  EXPECT_EQ(std::memcmp(pager.pageForRead(1), "stored", 6), 0);
}

// --- direct WAL-level tests --------------------------------------------------

TEST(WalPager, CommitAppendsFramesAndCleanCloseFoldsThem) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  {
    FilePager pager(path, Durability::Wal, nullptr, /*wal_autocheckpoint=*/0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "walled", 6);
    pager.flush();
    EXPECT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
    EXPECT_GT(pager.walFrameCount(), 0u);
    EXPECT_GT(pager.walSizeBytes(), sizeof(WalHeader));
  }
  // Clean close checkpoints and removes the log.
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  FilePager check(path, Durability::Wal);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  bool found = false;
  for (PageId id = 1; id < check.pageCount(); ++id) {
    if (std::memcmp(check.pageForRead(id), "walled", 6) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(WalPager, StaleWalIsReplayedOnReopen) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, Durability::Wal, &vfs, 0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "replayme", 8);
    pager.flush();  // committed: appended + fsynced
    // Kill every disk op from here on: the close-time checkpoint dies and
    // the WAL survives — exactly what a crashed process leaves behind.
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;
    vfs.setPlan(plan);
  }
  ASSERT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  FilePager pager(path, Durability::Wal);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_GE(pager.recoveryStats().wal_frames_applied, 1u);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  bool found = false;
  for (PageId id = 1; id < pager.pageCount(); ++id) {
    if (std::memcmp(pager.pageForRead(id), "replayme", 8) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(WalPager, StaleWalIsReplayedEvenWhenReopenedWithoutWal) {
  // Recovery is unconditional: a store carrying committed WAL frames must
  // surface them no matter which durability mode the next opener uses.
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, Durability::Wal, &vfs, 0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "crossmode", 9);
    pager.flush();
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;
    vfs.setPlan(plan);
  }
  FilePager pager(path, Durability::None);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  bool found = false;
  for (PageId id = 1; id < pager.pageCount(); ++id) {
    if (std::memcmp(pager.pageForRead(id), "crossmode", 9) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(WalPager, TornTailRecoversToCommittedPrefix) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  PageId id = 0;
  {
    FilePager pager(path, Durability::Wal, &vfs, 0);
    id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "first", 5);
    pager.flush();  // commit A
    std::memcpy(pager.pageForWrite(id), "SECOND", 6);
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;  // commit B's first frame write
    plan.torn_write = true;                   // half a sector reaches disk
    vfs.setPlan(plan);
    EXPECT_THROW(pager.flush(), InjectedFault);
  }
  FilePager pager(path, Durability::Wal);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_TRUE(pager.recoveryStats().discarded_invalid_wal);
  EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
}

TEST(WalPager, ExplicitCheckpointFoldsAndTruncates) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  {
    FilePager pager(path, Durability::Wal, nullptr, 0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "one", 3);
    pager.flush();
    std::memcpy(pager.pageForWrite(id), "two", 3);
    pager.flush();
    EXPECT_GT(pager.walFrameCount(), 0u);
    pager.checkpoint();
    EXPECT_EQ(pager.walFrameCount(), 0u);
    EXPECT_EQ(pager.walSizeBytes(), 0u);
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "two", 3), 0);
  }
  FilePager check(path, Durability::Wal);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  bool found = false;
  for (PageId p = 1; p < check.pageCount(); ++p) {
    if (std::memcmp(check.pageForRead(p), "two", 3) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(WalPager, AutocheckpointBoundsTheLog) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FilePager pager(path, Durability::Wal, nullptr, /*wal_autocheckpoint=*/2);
  const PageId id = pager.allocate();
  for (int i = 0; i < 8; ++i) {
    std::memcpy(pager.pageForWrite(id), &i, sizeof(i));
    pager.flush();
    // The threshold check runs at the start of every commit, so the log can
    // exceed the threshold by at most one commit's frames.
    EXPECT_LE(pager.walFrameCount(), 2u + 2u);
  }
}

TEST(WalPager, PinnedSnapshotDefersAutocheckpoint) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FilePager pager(path, Durability::Wal, nullptr, /*wal_autocheckpoint=*/1);
  const PageId id = pager.allocate();
  std::memcpy(pager.pageForWrite(id), "base", 4);
  pager.flush();

  auto snap = pager.beginSnapshot();
  for (int i = 0; i < 4; ++i) {
    std::memcpy(pager.pageForWrite(id), &i, sizeof(i));
    pager.flush();
  }
  // The checkpoint would fold versions the snapshot still needs; it must
  // wait until the pin is gone.
  EXPECT_GE(pager.walFrameCount(), 3u);
  {
    Pager::SnapshotScope scope(snap);
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "base", 4), 0);
  }
  snap.release();
  std::memcpy(pager.pageForWrite(id), "post", 4);
  pager.flush();  // threshold long exceeded: folds now
  EXPECT_LE(pager.walFrameCount(), 2u);
}

// --- WAL format --------------------------------------------------------------
//
// These tests corrupt crashed logs byte by byte and reopen them thousands of
// times, so they keep their files in memory.

/// One in-memory file; shared so a handle stays valid if the name is removed.
using MemBytes = std::shared_ptr<std::vector<std::uint8_t>>;

class MemFile final : public VfsFile {
 public:
  explicit MemFile(MemBytes bytes) : bytes_(std::move(bytes)) {}

  std::size_t read(std::uint64_t offset, void* buf, std::size_t n) override {
    if (offset >= bytes_->size()) return 0;
    n = std::min<std::size_t>(n, bytes_->size() - offset);
    std::memcpy(buf, bytes_->data() + offset, n);
    return n;
  }
  void write(std::uint64_t offset, const void* buf, std::size_t n) override {
    if (bytes_->size() < offset + n) bytes_->resize(offset + n);
    std::memcpy(bytes_->data() + offset, buf, n);
  }
  void sync() override {}
  void truncate(std::uint64_t size) override { bytes_->resize(size); }
  std::uint64_t size() override { return bytes_->size(); }

 private:
  MemBytes bytes_;
};

/// Files by name; `image()` / the image constructor copy every file's bytes.
class MemVfs final : public Vfs {
 public:
  using Image = std::map<std::string, std::vector<std::uint8_t>>;

  MemVfs() = default;
  explicit MemVfs(const Image& image) {
    for (const auto& [name, bytes] : image) {
      files_[name] = std::make_shared<std::vector<std::uint8_t>>(bytes);
    }
  }

  std::unique_ptr<VfsFile> open(const std::string& path, bool create) override {
    auto it = files_.find(path);
    if (it == files_.end()) {
      if (!create) throw util::StorageError("MemVfs: no such file " + path);
      it = files_.emplace(path, std::make_shared<std::vector<std::uint8_t>>()).first;
    }
    return std::make_unique<MemFile>(it->second);
  }
  bool exists(const std::string& path) override { return files_.contains(path); }
  void remove(const std::string& path) override { files_.erase(path); }

  Image image() const {
    Image out;
    for (const auto& [name, bytes] : files_) out[name] = *bytes;
    return out;
  }

 private:
  std::map<std::string, MemBytes> files_;
};

constexpr const char* kMemDb = "mem.db";
const std::string kMemWal = FilePager::walPathFor(kMemDb);

/// Every logical page of the pager's current state, byte for byte.
std::vector<PageBuf> pagesOf(const Pager& pager) {
  std::vector<PageBuf> out(pager.pageCount());
  for (PageId id = 0; id < out.size(); ++id) {
    std::memcpy(out[id].data(), pager.pageForRead(id), kPageSize);
  }
  return out;
}

/// Opens the store in `image` (running recovery) and returns its pages.
std::vector<PageBuf> recoveredPages(const MemVfs::Image& image, RecoveryStats* stats) {
  MemVfs vfs(image);
  FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
  if (stats != nullptr) *stats = pager.recoveryStats();
  return pagesOf(pager);
}

/// Makes every later disk operation of `vfs` fail, so the pager's close
/// leaves its log exactly as a killed process would.
void crashAfterThis(FaultInjectingVfs& vfs) {
  FaultPlan plan;
  plan.fail_at_op = vfs.mutatingOps() + 1;
  vfs.setPlan(plan);
}

std::uint64_t frameOffset(std::size_t frame) {
  return sizeof(WalHeader) + frame * kWalFrameSize;
}

/// A crashed store whose WAL holds three commits: A (frames 0-1: the header
/// page and page 1), B (frames 2-5: pages 0-3) and C (frame 6: page 1), with
/// the pages as of each commit.
struct ThreeCommitLog {
  MemVfs::Image image;
  std::vector<PageBuf> after_a, after_b, after_c;
};

ThreeCommitLog threeCommitLog() {
  ThreeCommitLog log;
  MemVfs mem;
  FaultInjectingVfs vfs(mem);
  {
    FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
    const PageId p = pager.allocate();
    std::memcpy(pager.pageForWrite(p), "commit A", 8);
    pager.flush();
    log.after_a = pagesOf(pager);
    const PageId q = pager.allocate();
    const PageId r = pager.allocate();
    std::memcpy(pager.pageForWrite(p), "commit B", 8);
    std::memcpy(pager.pageForWrite(q), "q of B", 6);
    std::memcpy(pager.pageForWrite(r), "r of B", 6);
    pager.flush();
    log.after_b = pagesOf(pager);
    std::memcpy(pager.pageForWrite(p), "commit C", 8);
    pager.flush();
    log.after_c = pagesOf(pager);
    EXPECT_EQ(pager.walFrameCount(), 7u);
    crashAfterThis(vfs);
  }
  log.image = mem.image();
  return log;
}

TEST(WalPager, CrashedLogReplaysEveryCommit) {
  const ThreeCommitLog log = threeCommitLog();
  WalHeader wh{};
  std::memcpy(&wh, log.image.at(kMemWal).data(), sizeof(wh));
  EXPECT_EQ(wh.version, kWalVersion);
  EXPECT_EQ(log.image.at(kMemWal).size(), frameOffset(7));
  RecoveryStats stats;
  EXPECT_EQ(recoveredPages(log.image, &stats), log.after_c);
  EXPECT_TRUE(stats.wal_replayed);
  EXPECT_FALSE(stats.discarded_invalid_wal);
}

TEST(WalPager, SingleBitFlipStopsRecoveryAtThatFrame) {
  const ThreeCommitLog log = threeCommitLog();
  // A flip in B's frames (2-5) drops B and, through the chain, C; a flip in
  // C's frame (6) drops C alone.
  const auto flipAndRecover = [&](std::size_t frame, std::size_t byte, int bit) {
    MemVfs::Image image = log.image;
    image.at(kMemWal).at(frameOffset(frame) + byte) ^=
        static_cast<std::uint8_t>(1u << bit);
    RecoveryStats stats;
    const std::vector<PageBuf> got = recoveredPages(image, &stats);
    EXPECT_TRUE(stats.wal_replayed);
    EXPECT_TRUE(stats.discarded_invalid_wal);
    EXPECT_TRUE(got == (frame == 6 ? log.after_b : log.after_a))
        << "frame " << frame << " byte " << byte << " bit " << bit;
  };
  for (std::size_t frame = 2; frame <= 6; ++frame) {
    for (std::size_t byte = 0; byte < sizeof(WalFrameHeader); ++byte) {
      for (int bit = 0; bit < 8; ++bit) flipAndRecover(frame, byte, bit);
    }
  }
  util::Rng rng(12345);
  for (int i = 0; i < 2000; ++i) {
    const auto frame = static_cast<std::size_t>(rng.uniformInt(2, 6));
    const auto byte = sizeof(WalFrameHeader) +
                      static_cast<std::size_t>(rng.uniformInt(0, kPageSize - 1));
    flipAndRecover(frame, byte, static_cast<int>(rng.uniformInt(0, 7)));
  }
}

TEST(WalPager, SwappedFramesNeverValidate) {
  const ThreeCommitLog log = threeCommitLog();
  for (const auto& [a, b] : {std::pair<std::size_t, std::size_t>{2, 3}, {5, 6}}) {
    MemVfs::Image image = log.image;
    auto& wal = image.at(kMemWal);
    std::swap_ranges(wal.begin() + static_cast<std::ptrdiff_t>(frameOffset(a)),
                     wal.begin() + static_cast<std::ptrdiff_t>(frameOffset(a + 1)),
                     wal.begin() + static_cast<std::ptrdiff_t>(frameOffset(b)));
    RecoveryStats stats;
    EXPECT_TRUE(recoveredPages(image, &stats) == log.after_a) << a << "<->" << b;
    EXPECT_TRUE(stats.discarded_invalid_wal);
  }
}

TEST(WalPager, FramesFromAnEarlierSaltNeverValidate) {
  // Generation 1 (salt 1) logs commits A and A2, a checkpoint folds them,
  // and generation 2 (salt 2) logs commit B over the start of the same file.
  MemVfs mem;
  FaultInjectingVfs vfs(mem);
  std::vector<std::uint8_t> gen1;
  std::vector<PageBuf> after_a2, after_b;
  {
    FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
    const PageId p = pager.allocate();
    std::memcpy(pager.pageForWrite(p), "commit A", 8);
    pager.flush();
    std::memcpy(pager.pageForWrite(p), "commit A2", 9);
    std::memcpy(pager.pageForWrite(pager.allocate()), "new in A2", 9);
    pager.flush();
    after_a2 = pagesOf(pager);
    gen1 = mem.image().at(kMemWal);
    pager.checkpoint();
    std::memcpy(pager.pageForWrite(p), "commit B", 8);
    pager.flush();
    after_b = pagesOf(pager);
    crashAfterThis(vfs);
  }
  const MemVfs::Image crashed = mem.image();
  const std::vector<std::uint8_t>& gen2 = crashed.at(kMemWal);
  ASSERT_EQ(gen2.size(), frameOffset(1));
  ASSERT_GT(gen1.size(), frameOffset(3));

  // Stale generation-1 frames left past generation 2's end are discarded.
  MemVfs::Image stale_tail = crashed;
  stale_tail.at(kMemWal) = gen1;
  std::copy(gen2.begin(), gen2.end(), stale_tail.at(kMemWal).begin());
  RecoveryStats stats;
  EXPECT_TRUE(recoveredPages(stale_tail, &stats) == after_b);
  EXPECT_TRUE(stats.wal_replayed);
  EXPECT_TRUE(stats.discarded_invalid_wal);

  // A generation-1 frame in generation 2's first slot: nothing validates,
  // and the checkpointed db file alone is the state.
  MemVfs::Image stale_head = crashed;
  const auto at = [](std::uint64_t off) { return static_cast<std::ptrdiff_t>(off); };
  std::copy(gen1.begin() + at(frameOffset(0)), gen1.begin() + at(frameOffset(1)),
            stale_head.at(kMemWal).begin() + at(frameOffset(0)));
  EXPECT_TRUE(recoveredPages(stale_head, &stats) == after_a2);
  EXPECT_FALSE(stats.wal_replayed);
  EXPECT_TRUE(stats.discarded_invalid_wal);
}

/// Appends one version-1 frame (FNV-1a chain, as the earlier format wrote
/// it) to `wal`, continuing `chain`.
void appendV1Frame(std::vector<std::uint8_t>& wal, std::uint64_t& chain, PageId id,
                   std::uint32_t commit_page_count, const PageBuf& image) {
  const auto fnv = [](std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
    return h;
  };
  chain = fnv(chain, &id, sizeof(id));
  chain = fnv(chain, &commit_page_count, sizeof(commit_page_count));
  chain = fnv(chain, image.data(), image.size());
  const WalFrameHeader fh{id, commit_page_count, chain};
  const auto* h = reinterpret_cast<const std::uint8_t*>(&fh);
  wal.insert(wal.end(), h, h + sizeof(fh));
  wal.insert(wal.end(), image.begin(), image.end());
}

/// A cleanly closed store holding one page (page 1) that reads "base".
MemVfs::Image baseStore(std::vector<PageBuf>* pages) {
  MemVfs mem;
  {
    FilePager pager(kMemDb, Durability::Wal, &mem, 0);
    std::memcpy(pager.pageForWrite(pager.allocate()), "base", 4);
    pager.flush();
    *pages = pagesOf(pager);
  }
  EXPECT_FALSE(mem.exists(kMemWal));
  return mem.image();
}

/// A version-1 log of two commits rewriting page 1 ("v1 one", "v1 two").
std::vector<std::uint8_t> v1Log(const std::vector<PageBuf>& base,
                                std::vector<PageBuf>* after) {
  const std::uint64_t salt = 77;
  const WalHeader wh{kWalMagic, /*version=*/1, kPageSize, 0, salt};
  std::vector<std::uint8_t> wal(sizeof(wh));
  std::memcpy(wal.data(), &wh, sizeof(wh));
  std::uint64_t chain = 14695981039346656037ULL;
  for (std::size_t i = 0; i < sizeof(salt); ++i) {
    chain = (chain ^ ((salt >> (8 * i)) & 0xFF)) * 1099511628211ULL;
  }
  *after = base;
  for (const char* text : {"v1 one", "v1 two"}) {
    std::memcpy((*after)[1].data(), text, 6);
    appendV1Frame(wal, chain, 1, static_cast<std::uint32_t>(after->size()), (*after)[1]);
  }
  return wal;
}

TEST(WalPager, VersionOneLogIsRefusedAndTouchesNothing) {
  std::vector<PageBuf> base;
  MemVfs::Image image = baseStore(&base);
  std::vector<PageBuf> after;
  image[kMemWal] = v1Log(base, &after);
  MemVfs vfs(image);
  try {
    FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
    ADD_FAILURE() << "opened beside a version-1 log";
  } catch (const util::StorageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kMemWal), std::string::npos) << what;
    EXPECT_NE(what.find("WAL format version 1 "), std::string::npos) << what;
  }
  // Its commits are neither replayed nor discarded: db and log are as found.
  EXPECT_TRUE(vfs.image() == image);
  EXPECT_TRUE(vfs.image().at(kMemDb) == image.at(kMemDb));
  EXPECT_TRUE(vfs.image().at(kMemWal) == image.at(kMemWal));

  // The same frames under a version-2 header do not validate.
  WalHeader wh{};
  std::memcpy(&wh, image[kMemWal].data(), sizeof(wh));
  wh.version = kWalVersion;
  std::memcpy(image[kMemWal].data(), &wh, sizeof(wh));
  RecoveryStats stats;
  EXPECT_TRUE(recoveredPages(image, &stats) == base);
  EXPECT_FALSE(stats.wal_replayed);
  EXPECT_TRUE(stats.discarded_invalid_wal);
}

TEST(WalPager, UnknownVersionOrPageSizeIsAnErrorAndTouchesNothing) {
  std::vector<PageBuf> base;
  const MemVfs::Image clean = baseStore(&base);
  std::vector<PageBuf> after;
  const std::vector<std::uint8_t> wal = v1Log(base, &after);
  for (const auto& [version, page_size] :
       {std::pair<std::uint32_t, std::uint32_t>{7, kPageSize},
        {0, kPageSize},
        {kWalVersion, 4096}}) {
    SCOPED_TRACE("version " + std::to_string(version) + ", page size " +
                 std::to_string(page_size));
    MemVfs::Image image = clean;
    image[kMemWal] = wal;
    WalHeader wh{};
    std::memcpy(&wh, wal.data(), sizeof(wh));
    wh.version = version;
    wh.page_size = page_size;
    std::memcpy(image[kMemWal].data(), &wh, sizeof(wh));
    MemVfs vfs(image);
    try {
      FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
      ADD_FAILURE() << "opened a log of an unknown format";
    } catch (const util::StorageError& e) {
      EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version)),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(vfs.image() == image);  // db and log untouched
  }
}

TEST(WalPager, ShortHeaderIsACrashAndIsDiscarded) {
  std::vector<PageBuf> base;
  MemVfs::Image image = baseStore(&base);
  const WalHeader wh{kWalMagic, kWalVersion, kPageSize, 0, 1};
  const auto* h = reinterpret_cast<const std::uint8_t*>(&wh);
  image[kMemWal].assign(h, h + 10);
  MemVfs vfs(image);
  FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
  EXPECT_TRUE(pager.recoveryStats().discarded_invalid_wal);
  EXPECT_FALSE(pager.recoveryStats().wal_replayed);
  EXPECT_TRUE(pagesOf(pager) == base);
}

TEST(WalPager, CommitWritesOneCallPerStagedBatch) {
  MemVfs mem;
  FaultInjectingVfs vfs(mem);
  FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
  std::memcpy(pager.pageForWrite(pager.allocate()), "first", 5);
  pager.flush();  // writes the log header too
  std::vector<PageId> ids;
  while (ids.size() + 1 < kWalStageFrames + 80) ids.push_back(pager.allocate());
  for (PageId id : ids) std::memcpy(pager.pageForWrite(id), &id, sizeof(id));
  const std::uint64_t ops = vfs.mutatingOps();
  const std::uint32_t frames = pager.walFrameCount();
  pager.flush();
  EXPECT_EQ(pager.walFrameCount() - frames, kWalStageFrames + 80);
  EXPECT_EQ(vfs.mutatingOps() - ops, 3u);  // two writes, one fsync
  std::memcpy(pager.pageForWrite(ids[0]), "small", 5);
  pager.flush();
  EXPECT_EQ(vfs.mutatingOps() - ops, 5u);  // one write, one fsync
}

TEST(WalPager, TornMultiWriteCommitRecoversToThePriorCommit) {
  // 210 fresh pages plus the header page: 211 frames, written in two calls
  // (128 + 83 frames). Tear each call at a frame boundary and mid-frame.
  constexpr std::size_t kPages = 210;
  static_assert(kPages + 1 > kWalStageFrames);
  static_assert((32 * kWalFrameSize) % 512 == 0, "a frame boundary on a sector");
  for (const std::uint64_t write : {1u, 2u}) {
    for (const std::size_t torn : {32 * kWalFrameSize, 32 * kWalFrameSize + 4096}) {
      SCOPED_TRACE("write " + std::to_string(write) + ", torn after " +
                   std::to_string(torn) + " bytes");
      MemVfs mem;
      FaultInjectingVfs vfs(mem);
      std::vector<PageBuf> prior;
      {
        FilePager pager(kMemDb, Durability::Wal, &vfs, 0);
        std::memcpy(pager.pageForWrite(pager.allocate()), "prior", 5);
        pager.flush();
        prior = pagesOf(pager);
        for (std::size_t i = 0; i < kPages; ++i) {
          const PageId id = pager.allocate();
          std::memcpy(pager.pageForWrite(id), &id, sizeof(id));
        }
        FaultPlan plan;
        plan.fail_at_op = vfs.mutatingOps() + write;
        plan.torn_write = true;
        plan.torn_bytes = torn;
        vfs.setPlan(plan);
        EXPECT_THROW(pager.flush(), InjectedFault);
      }
      const MemVfs::Image image = mem.image();
      // The torn prefix reached the log: the first call's 128 frames (when
      // the second call tore) plus the torn bytes.
      const std::uint64_t landed = frameOffset(2 + (write == 2 ? kWalStageFrames : 0));
      EXPECT_EQ(image.at(kMemWal).size(), landed + torn);
      RecoveryStats stats;
      EXPECT_TRUE(recoveredPages(image, &stats) == prior);
      EXPECT_TRUE(stats.wal_replayed);
      EXPECT_TRUE(stats.discarded_invalid_wal);
    }
  }
}

}  // namespace
}  // namespace perftrack::minidb
