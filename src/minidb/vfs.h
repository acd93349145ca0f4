// minidb: virtual file system shim.
//
// FilePager performs every disk operation through this narrow interface —
// positioned read/write, fsync, truncate — instead of calling stdio/POSIX
// directly. Two implementations ship:
//   * PosixVfs     — the real thing (open/pread/pwrite/fsync/ftruncate);
//   * FaultInjectingVfs — a decorator over any Vfs that deterministically
//     fails the Nth mutating operation (write/sync/truncate), optionally
//     applying a torn (partial-sector) write first, and can also return
//     short reads. After the injected fault fires, every further mutating
//     operation throws, so the backing files hold exactly what the disk
//     would contain if the process had died at that instruction. The
//     crash-matrix tests (tests/minidb/crash_matrix_test.cpp) iterate the
//     fault point over every operation of a workload and assert that
//     recovery restores the last committed state each time.
//
// The injected failure can also be a real SIGKILL (FaultAction::Kill), used
// by scripts/crash_kill_test.sh to produce a genuine stale WAL from a
// process that dies mid-ingest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/error.h"

namespace perftrack::minidb {

/// Thrown (only) by FaultInjectingVfs when a planned fault fires. A subclass
/// of StorageError so production code paths treat it like any I/O failure;
/// tests catch it specifically to tell "planned crash" from real bugs.
class InjectedFault : public util::StorageError {
 public:
  explicit InjectedFault(std::string message)
      : util::StorageError(std::move(message)) {}
};

/// One open file. Offsets are absolute; short writes are reported as errors
/// by implementations (there is no partial-success return for writes).
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Reads up to `n` bytes at `offset`; returns the number of bytes read
  /// (less than `n` only at end of file).
  virtual std::size_t read(std::uint64_t offset, void* buf, std::size_t n) = 0;

  /// Writes exactly `n` bytes at `offset` (extending the file as needed).
  virtual void write(std::uint64_t offset, const void* buf, std::size_t n) = 0;

  /// Flushes file content to stable storage (fsync).
  virtual void sync() = 0;

  /// Sets the file length to `size` bytes.
  virtual void truncate(std::uint64_t size) = 0;

  /// Current file length in bytes.
  virtual std::uint64_t size() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens `path` read-write, creating it when `create` is set. Throws
  /// StorageError when the file cannot be opened.
  virtual std::unique_ptr<VfsFile> open(const std::string& path, bool create) = 0;

  virtual bool exists(const std::string& path) = 0;

  /// Removes `path`; missing files are not an error.
  virtual void remove(const std::string& path) = 0;
};

/// The real filesystem. Stateless; one shared instance serves the process.
class PosixVfs final : public Vfs {
 public:
  std::unique_ptr<VfsFile> open(const std::string& path, bool create) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;

  /// Process-wide instance used when no explicit Vfs is supplied.
  static PosixVfs& instance();
};

/// What happens when the planned fault point is reached.
enum class FaultAction {
  Throw,  // throw InjectedFault (in-process crash simulation)
  Kill,   // raise(SIGKILL): a real crash, for the CLI crash tests
};

/// Deterministic fault plan: mutating operations (write/sync/truncate) are
/// numbered 1, 2, 3, ... across all files opened through this Vfs.
struct FaultPlan {
  /// 1-based index of the mutating operation that fails; 0 = never.
  std::uint64_t fail_at_op = 0;
  /// When the failing operation is a write, persist only a prefix of the
  /// buffer first (torn sector write) instead of nothing.
  bool torn_write = false;
  /// Bytes of the torn prefix that reach the disk (rounded down to whole
  /// sectors of 512 bytes; 0 = half the buffer).
  std::size_t torn_bytes = 0;
  /// 1-based index of the read that comes back short (0 = never); used to
  /// exercise open-time robustness against truncated files.
  std::uint64_t short_read_at = 0;
  FaultAction action = FaultAction::Throw;
};

/// Decorator: forwards to `base`, counting operations and firing the plan.
class FaultInjectingVfs final : public Vfs {
 public:
  explicit FaultInjectingVfs(Vfs& base) : base_(&base) {}

  std::unique_ptr<VfsFile> open(const std::string& path, bool create) override;
  bool exists(const std::string& path) override { return base_->exists(path); }
  void remove(const std::string& path) override;

  void setPlan(const FaultPlan& plan) { plan_ = plan; }
  const FaultPlan& plan() const { return plan_; }

  /// Mutating operations performed so far (the fault-point count of a
  /// fault-free run sizes the crash matrix).
  std::uint64_t mutatingOps() const { return mutating_ops_; }
  std::uint64_t reads() const { return reads_; }

  /// True once the planned fault has fired; every further mutating
  /// operation throws InjectedFault without touching the disk.
  bool crashed() const { return crashed_; }

  /// Resets counters and the crashed flag (the plan is kept).
  void reset() {
    mutating_ops_ = 0;
    reads_ = 0;
    crashed_ = false;
  }

 private:
  friend class FaultInjectingFile;

  /// Bumps the mutating-op counter; returns true when this operation is the
  /// one that must fail (caller applies any torn prefix, then calls
  /// fire()).
  bool countMutatingOp();
  [[noreturn]] void fire(const std::string& what);
  void checkCrashed(const std::string& what);

  Vfs* base_;
  FaultPlan plan_;
  std::uint64_t mutating_ops_ = 0;
  std::uint64_t reads_ = 0;
  bool crashed_ = false;
};

}  // namespace perftrack::minidb
