// Fault-injecting VFS shim: deterministic Nth-op failures, torn writes,
// short reads, and frozen-disk ("crashed") semantics. These are the
// primitives the crash-matrix harness builds on, so their behavior is
// pinned down here first.
#include "minidb/vfs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "minidb/pager.h"
#include "util/tempdir.h"

namespace perftrack::minidb {
namespace {

TEST(PosixVfs, ReadWriteTruncateRoundTrip) {
  util::TempDir dir;
  const std::string path = dir.file("f.bin").string();
  PosixVfs vfs;
  auto f = vfs.open(path, /*create=*/true);
  f->write(0, "hello world", 11);
  EXPECT_EQ(f->size(), 11u);
  char buf[16] = {};
  EXPECT_EQ(f->read(0, buf, sizeof(buf)), 11u);  // short read at EOF
  EXPECT_EQ(std::memcmp(buf, "hello world", 11), 0);
  f->write(20, "!", 1);  // sparse extension
  EXPECT_EQ(f->size(), 21u);
  f->truncate(5);
  EXPECT_EQ(f->size(), 5u);
  f->sync();
  EXPECT_TRUE(vfs.exists(path));
  f.reset();
  vfs.remove(path);
  EXPECT_FALSE(vfs.exists(path));
  vfs.remove(path);  // removing a missing file is not an error
}

TEST(FaultInjectingVfs, CountsMutatingOpsWithoutAPlan) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  auto f = vfs.open(dir.file("f.bin").string(), true);
  f->write(0, "x", 1);
  f->sync();
  f->truncate(0);
  char c;
  f->read(0, &c, 1);
  EXPECT_EQ(vfs.mutatingOps(), 3u);
  EXPECT_EQ(vfs.reads(), 1u);
  EXPECT_FALSE(vfs.crashed());
}

TEST(FaultInjectingVfs, FailsExactlyTheNthOpAndFreezesTheDisk) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  FaultPlan plan;
  plan.fail_at_op = 2;
  vfs.setPlan(plan);
  auto f = vfs.open(dir.file("f.bin").string(), true);
  f->write(0, "aaaa", 4);                            // op 1: succeeds
  EXPECT_THROW(f->write(4, "bbbb", 4), InjectedFault);  // op 2: fails
  EXPECT_TRUE(vfs.crashed());
  // The simulated machine is down: nothing further reaches the disk.
  EXPECT_THROW(f->write(8, "cccc", 4), InjectedFault);
  EXPECT_THROW(f->sync(), InjectedFault);
  EXPECT_THROW(f->truncate(0), InjectedFault);
  EXPECT_THROW(vfs.open(dir.file("g.bin").string(), true), InjectedFault);
  // The backing file holds exactly the pre-crash bytes.
  PosixVfs real;
  auto check = real.open(dir.file("f.bin").string(), false);
  EXPECT_EQ(check->size(), 4u);
  char buf[4];
  ASSERT_EQ(check->read(0, buf, 4), 4u);
  EXPECT_EQ(std::memcmp(buf, "aaaa", 4), 0);
}

TEST(FaultInjectingVfs, TornWritePersistsAWholeSectorPrefix) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  FaultPlan plan;
  plan.fail_at_op = 1;
  plan.torn_write = true;
  vfs.setPlan(plan);
  auto f = vfs.open(dir.file("f.bin").string(), true);
  std::vector<std::uint8_t> page(8192, 0xAB);
  EXPECT_THROW(f->write(0, page.data(), page.size()), InjectedFault);
  // Half the buffer (rounded down to 512-byte sectors) hit the platter.
  PosixVfs real;
  auto check = real.open(dir.file("f.bin").string(), false);
  EXPECT_EQ(check->size(), 4096u);
  std::vector<std::uint8_t> got(4096);
  ASSERT_EQ(check->read(0, got.data(), got.size()), got.size());
  for (std::uint8_t b : got) ASSERT_EQ(b, 0xAB);
}

TEST(FaultInjectingVfs, TornBytesControlsThePrefixLength) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  FaultPlan plan;
  plan.fail_at_op = 1;
  plan.torn_write = true;
  plan.torn_bytes = 1000;  // rounds down to one 512-byte sector
  vfs.setPlan(plan);
  auto f = vfs.open(dir.file("f.bin").string(), true);
  std::vector<std::uint8_t> page(8192, 0x5C);
  EXPECT_THROW(f->write(0, page.data(), page.size()), InjectedFault);
  PosixVfs real;
  EXPECT_EQ(real.open(dir.file("f.bin").string(), false)->size(), 512u);
}

TEST(FaultInjectingVfs, ShortReadAtNthRead) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  auto f = vfs.open(dir.file("f.bin").string(), true);
  f->write(0, "0123456789", 10);
  FaultPlan plan;
  plan.short_read_at = 2;
  vfs.setPlan(plan);
  char buf[10];
  EXPECT_EQ(f->read(0, buf, 10), 10u);  // read 1: full
  EXPECT_EQ(f->read(0, buf, 10), 5u);   // read 2: short
  EXPECT_EQ(f->read(0, buf, 10), 10u);  // read 3: full again
}

TEST(FaultInjectingVfs, ShortReadSurfacesAsStorageErrorInFilePager) {
  // A database whose file comes back short must fail loudly at open, not
  // load garbage.
  util::TempDir dir;
  const std::string path = dir.file("short.db").string();
  {
    FilePager pager(path, Durability::None);
    pager.allocate();
    pager.flush();
  }
  FaultInjectingVfs vfs(PosixVfs::instance());
  FaultPlan plan;
  plan.short_read_at = 1;
  vfs.setPlan(plan);
  EXPECT_THROW(FilePager(path, Durability::Wal, &vfs), util::StorageError);
}

TEST(FaultInjectingVfs, ResetClearsCountersAndCrashFlag) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  FaultPlan plan;
  plan.fail_at_op = 1;
  vfs.setPlan(plan);
  auto f = vfs.open(dir.file("f.bin").string(), true);
  EXPECT_THROW(f->write(0, "x", 1), InjectedFault);
  EXPECT_TRUE(vfs.crashed());
  vfs.reset();
  EXPECT_FALSE(vfs.crashed());
  EXPECT_EQ(vfs.mutatingOps(), 0u);
  vfs.setPlan(FaultPlan{});
  f->write(0, "x", 1);  // healthy again
  EXPECT_EQ(vfs.mutatingOps(), 1u);
}

TEST(FaultInjectingVfs, RemoveCountsAsAMutatingOp) {
  util::TempDir dir;
  FaultInjectingVfs vfs(PosixVfs::instance());
  auto f = vfs.open(dir.file("f.bin").string(), true);
  f->write(0, "x", 1);
  f.reset();
  FaultPlan plan;
  plan.fail_at_op = 2;
  vfs.setPlan(plan);
  EXPECT_THROW(vfs.remove(dir.file("f.bin").string()), InjectedFault);
  EXPECT_TRUE(PosixVfs::instance().exists(dir.file("f.bin").string()));
}

}  // namespace
}  // namespace perftrack::minidb
