// minidb: page management.
//
// A minidb database is an array of fixed-size (8 KiB) pages. Page 0 is the
// header page holding the magic number, logical page count, free-list head,
// and the first page of the catalog heap. The pager provides:
//   * allocation (reusing free-listed pages first),
//   * mutable/const access to page bytes,
//   * in-memory transaction undo: between beginJournal() and
//     commitJournal(), the before-image of every touched page is retained
//     in memory, with no disk I/O, so rollbackJournal() can restore the
//     exact pre-transaction state (including the header, and therefore the
//     free list and page count),
//   * snapshot reads: page buffers are copy-on-write, and every commit
//     publishes an immutable page table, whatever the durability mode. A
//     ReadSnapshot pins one published table; while a SnapshotScope for it
//     is installed on a thread, pageForRead() on that thread resolves
//     through the pinned table and never touches the writer's working
//     state — readers see exactly one committed version and never block on
//     (or race with) a writer,
//   * durability: FilePager persists dirty pages to a backing file on flush();
//     MemPager keeps everything in memory (the PerfTrack "in-memory backend").
//
// Durability::Wal (the default, and the one crash-safe mode) commits through
// a write-ahead log (`<db>.wal`): flush() appends the dirty pages as frames
// whose XXH64 checksums chain (each one seeds the next; a log of any other
// format version is refused, not replayed), staged and written
// ~1 MiB per call; the last frame of each commit carries the new page count
// and acts as the commit marker. So a commit never rewrites the database
// file and a crash at any point leaves a committed prefix — recovery replays
// every complete, checksum-chained commit from the WAL into the db file and
// discards the torn tail. A checkpoint folds the WAL back into the db file
// when no pinned snapshot still needs the old frames. Commit fsyncs support
// group commit: flushAsync() appends + publishes without syncing and returns
// an LSN; concurrent committers calling waitDurable(lsn) elect a leader that
// batches every appended commit into one fsync. Durability::None rewrites
// dirty pages in place with no log and no fsync, for scratch stores and the
// durability-ablation benchmarks.
//
// Stores written by earlier builds may carry a rollback journal
// (`<db>.journal`). This build has no journal replay: opening beside a
// non-empty journal throws StorageError naming it and touches neither file,
// so old pages are never served silently; an empty journal is removed.
//
// This mirrors the role PostgreSQL/Oracle played for the paper: a real paged
// storage substrate underneath the relational schema.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "minidb/types.h"
#include "minidb/vfs.h"

namespace perftrack::minidb {

/// Raw bytes of one page.
using PageBuf = std::array<std::uint8_t, kPageSize>;

/// On-page layout of the header page (page 0).
struct DbHeader {
  std::uint32_t magic;          // 'PTDB'
  std::uint32_t version;        // format version
  std::uint32_t page_count;     // logical number of pages (including header)
  PageId freelist_head;         // first free page, or kInvalidPage
  PageId catalog_first_page;    // first page of the catalog heap
};

inline constexpr std::uint32_t kDbMagic = 0x50544442;  // "PTDB"
inline constexpr std::uint32_t kDbVersion = 1;

/// On-disk header of the write-ahead log (`<db>.wal`). Followed by frames of
/// {WalFrameHeader, u8[kPageSize] page image}.
struct WalHeader {
  std::uint32_t magic;      // 'PTWL'
  std::uint32_t version;
  std::uint32_t page_size;  // must equal kPageSize
  std::uint32_t reserved;
  std::uint64_t salt;       // rotated on every WAL reset; seeds the checksum chain
};

/// One WAL frame. `commit_page_count` is zero for all but the last frame of a
/// commit; the final frame carries the database's new logical page count and
/// is the commit marker — recovery applies a commit only when its marker
/// frame (and every frame before it) checksums correctly.
struct WalFrameHeader {
  std::uint32_t page_id;
  std::uint32_t commit_page_count;  // 0 = not a commit boundary
  std::uint64_t checksum;           // chained XXH64 over header fields + image
};

inline constexpr std::uint32_t kWalMagic = 0x5054574C;  // "PTWL"
/// The one WAL format this build writes and replays: XXH64-chained frame
/// checksums. A log of another version (1 was a byte-serial FNV-1a chain) is
/// refused with a StorageError naming the file and its version.
inline constexpr std::uint32_t kWalVersion = 2;
inline constexpr std::size_t kWalFrameSize = sizeof(WalFrameHeader) + kPageSize;
/// Frames assembled per WAL write (~1 MiB): a commit of N frames makes
/// ceil(N / kWalStageFrames) write calls before its one fsync.
inline constexpr std::size_t kWalStageFrames = 128;

/// Default auto-checkpoint threshold: checkpoint before a commit once the WAL
/// holds this many frames (and no snapshot pins an older version).
inline constexpr std::uint32_t kDefaultWalAutoCheckpoint = 512;

/// How flush() makes a commit reach the disk.
enum class Durability {
  None,  // in-place rewrite, no log, no fsync (fast, crash-unsafe)
  Wal,   // write-ahead log: append-only commits, group commit, crash-safe
};

/// What (if anything) happened to a leftover WAL found at open.
struct RecoveryStats {
  bool wal_replayed = false;               // committed WAL frames folded into the db
  std::uint32_t wal_frames_applied = 0;    // distinct pages written during replay
  bool discarded_invalid_wal = false;      // torn/garbage WAL tail discarded
};

/// Abstract pager. The writer side (allocation, pageForWrite, transactions,
/// flush) is single-threaded, like the paper's per-session database
/// connections; concurrent readers are supported through ReadSnapshot +
/// SnapshotScope, which resolve reads against an immutable published page
/// table instead of the writer's working state.
class Pager {
 public:
  /// An immutable, published version of the database: the page buffers and
  /// logical page count as of one commit. Never mutated after publication.
  struct PageTable {
    std::vector<std::shared_ptr<const PageBuf>> pages;
    std::uint64_t seq = 0;          // commit sequence number
    std::uint32_t page_count = 0;   // logical page count at that commit
  };

  /// A copyable handle to a snapshot's page table, for handing a snapshot to
  /// worker threads (the parallel executor): capture currentToken() on the
  /// cursor's thread, construct a SnapshotScope from it inside each worker.
  /// The token does NOT pin the snapshot — the originating ReadSnapshot must
  /// outlive every scope built from its token.
  struct SnapshotToken {
    const Pager* pager = nullptr;
    const PageTable* table = nullptr;
  };

  /// Pins one published PageTable. While alive, a checkpoint will not fold
  /// the WAL (the snapshot may still need the old frames) and the buffers it
  /// references are kept alive regardless of later commits.
  class ReadSnapshot {
   public:
    ReadSnapshot() = default;
    ReadSnapshot(ReadSnapshot&& o) noexcept;
    ReadSnapshot& operator=(ReadSnapshot&& o) noexcept;
    ReadSnapshot(const ReadSnapshot&) = delete;
    ReadSnapshot& operator=(const ReadSnapshot&) = delete;
    ~ReadSnapshot();

    bool valid() const { return table_ != nullptr; }
    std::uint64_t seq() const { return table_ ? table_->seq : 0; }
    const Pager* pager() const { return pager_; }

    void release();

    /// Handle for SnapshotScope / worker-thread propagation; valid only
    /// while this snapshot is alive.
    SnapshotToken token() const;

   private:
    friend class Pager;
    ReadSnapshot(const Pager* pager, std::shared_ptr<const PageTable> table)
        : pager_(pager), table_(std::move(table)) {}

    const Pager* pager_ = nullptr;
    std::shared_ptr<const PageTable> table_;
  };

  /// Installs a snapshot as this thread's read source for the snapshot's
  /// pager (thread-local, stack-like: scopes nest, inner-most wins). While
  /// installed, pageForRead()/header()/pageCount() on this thread resolve
  /// through the pinned table.
  class SnapshotScope {
   public:
    explicit SnapshotScope(const ReadSnapshot& snap);
    explicit SnapshotScope(const SnapshotToken& token);
    SnapshotScope(const SnapshotScope&) = delete;
    SnapshotScope& operator=(const SnapshotScope&) = delete;
    ~SnapshotScope();

   private:
    struct Frame {
      const Pager* pager = nullptr;
      const PageTable* table = nullptr;
      Frame* prev = nullptr;
    };
    friend class Pager;
    void push(const Pager* pager, const PageTable* table);
    Frame frame_;
    static thread_local Frame* tls_top_;
  };

  /// The inner-most snapshot installed on this thread (pager null if none).
  static SnapshotToken currentToken();

  virtual ~Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Allocates a zeroed page (reusing the free list when possible) and
  /// returns its id. The page is implicitly dirty.
  PageId allocate();

  /// Returns a freed page to the free list.
  void free(PageId id);

  /// Mutable access: records an undo image (if journaling), copies shared
  /// buffers (copy-on-write against published snapshots) and marks dirty.
  std::uint8_t* pageForWrite(PageId id);

  /// Read-only access. Resolves through the thread's installed SnapshotScope
  /// when one is active for this pager, else through the working state.
  const std::uint8_t* pageForRead(PageId id) const;

  /// Logical page count, including the header page. Snapshot-aware like
  /// pageForRead.
  std::uint32_t pageCount() const { return header().page_count; }

  /// Total logical size in bytes (page_count * page size). This is the
  /// number reported as "DB size" in Table 1 reproductions.
  std::uint64_t sizeBytes() const { return std::uint64_t{pageCount()} * kPageSize; }

  DbHeader& headerForWrite();
  const DbHeader& header() const;

  // --- snapshots ----------------------------------------------------------

  /// Pins the most recently published committed version.
  ReadSnapshot beginSnapshot() const;

  /// Commit sequence number of the snapshot the calling thread reads
  /// through for this pager (a SnapshotScope is installed), or 0 when it
  /// reads the working state (published seqs start at 1).
  std::uint64_t snapshotScopeSeq() const;

  /// The lowest commit seq any live or future snapshot can hold: the oldest
  /// pinned seq, or the latest published one when nothing older is pinned.
  std::uint64_t oldestVisibleSeq() const;

  /// Installs `hook`, called on the writer side with the new commit's
  /// sequence number just before it becomes visible to new snapshots (the
  /// inverted-index manager ends its cache ranges there). Null removes it.
  void setPublishHook(std::function<void(std::uint64_t seq)> hook) {
    publish_hook_ = std::move(hook);
  }

  /// Number of live ReadSnapshots (any version).
  std::size_t pinnedSnapshots() const;

  /// Sequence number of the latest published commit.
  std::uint64_t commitSeq() const;

  // --- transactions -------------------------------------------------------
  void beginJournal();
  void commitJournal();
  void rollbackJournal();
  bool inTransaction() const { return journaling_; }

  /// Persists dirty pages. For the in-memory backend this only republishes
  /// the committed snapshot. When the flush throws (I/O error or injected
  /// fault), no dirty state is forgotten: a later flush retries the full set
  /// against the last committed on-disk state.
  virtual void flush() { publishIfChanged(); }

  /// Like flush(), but in WAL mode the commit fsync is deferred: frames are
  /// appended and the commit is published to readers, and the returned LSN
  /// must be passed to waitDurable() before the commit is acknowledged.
  /// Returns 0 when nothing remains to sync (non-WAL modes sync inline).
  virtual std::uint64_t flushAsync() {
    flush();
    return 0;
  }

  /// Blocks until the commit identified by `lsn` is on stable storage.
  /// Concurrent callers batch behind a leader into one fsync (group commit).
  virtual void waitDurable(std::uint64_t /*lsn*/) {}

  /// WAL mode: folds the log back into the db file and resets it. Throws
  /// when called inside a transaction; no-op in other modes. Safe to call
  /// with snapshots pinned — they keep reading their pinned buffers — but
  /// automatic checkpoints are deferred while any snapshot is live.
  virtual void checkpoint() {}

  /// This pager's durability mode (None for MemPager).
  virtual Durability durability() const { return Durability::None; }

  /// WAL recovery outcome of open (all-false for MemPager and for clean
  /// opens).
  const RecoveryStats& recoveryStats() const { return recovery_stats_; }

  /// On-disk database file size in bytes (0 for in-memory backends). May
  /// differ from sizeBytes() until the next flush.
  virtual std::uint64_t fileSizeBytes() const { return 0; }

  /// Bytes of valid write-ahead log, or 0 when absent/not in WAL mode.
  virtual std::uint64_t walSizeBytes() const { return 0; }

 protected:
  Pager() = default;

  /// Initializes a brand-new database (header page).
  void formatNew();

  /// Returns a writable (exclusively owned) buffer for `id`, journaling the
  /// before-image and copy-on-writing shared buffers. No dirty marking.
  std::uint8_t* writableBuf(PageId id);

  /// Publishes the current working state as the committed page table when it
  /// differs from the last published one. Writer-side only.
  void publishIfChanged();
  void publishCommitted();

  /// The last published table (never null after construction completes).
  std::shared_ptr<const PageTable> committedTable() const;

  std::vector<std::shared_ptr<PageBuf>> pages_;
  std::unordered_set<PageId> dirty_;
  RecoveryStats recovery_stats_;

 private:
  void unpinSnapshot(std::uint64_t seq) const;
  std::uint64_t oldestVisibleSeqLocked() const;
  void updateSnapshotAgeLocked() const;
  /// The page table installed by this thread's inner-most SnapshotScope for
  /// this pager, or null when reads should use the working state.
  const PageTable* activeScopeTable() const;

  bool journaling_ = false;
  // Before-images of pages touched during the open transaction. Pages that
  // did not exist at beginJournal() are recorded with a null image.
  std::unordered_map<PageId, std::shared_ptr<PageBuf>> journal_;
  std::uint32_t journal_page_count_ = 0;
  // Pages whose buffer is exclusively owned by the working state (copied or
  // created since the last publish). Everything else may be shared with a
  // published table and must be copied before the first write.
  std::unordered_set<PageId> owned_;

  // Snapshot publication state. snap_mu_ orders publishCommitted() (writer)
  // against beginSnapshot()/unpin (readers); the tables and buffers it hands
  // out are immutable.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const PageTable> committed_;
  std::uint64_t commit_seq_ = 0;
  mutable std::map<std::uint64_t, std::size_t> pinned_;  // seq -> pin count
  std::function<void(std::uint64_t)> publish_hook_;
};

/// Fully in-memory pager (fast path; used for scratch stores and tests).
class MemPager final : public Pager {
 public:
  MemPager() {
    formatNew();
    publishIfChanged();
  }
};

/// File-backed pager. Loads the whole file on open (replaying a stale WAL
/// first, if present); flush() persists dirty pages according to the
/// durability mode.
class FilePager final : public Pager {
 public:
  /// Opens (or creates) the database file at `path`. All disk operations go
  /// through `vfs` (default: the real filesystem), which is how the crash
  /// tests inject faults. `wal_autocheckpoint` is the WAL auto-checkpoint
  /// threshold in frames (0 disables automatic checkpoints).
  explicit FilePager(std::string path, Durability durability = Durability::Wal,
                     Vfs* vfs = nullptr,
                     std::uint32_t wal_autocheckpoint = kDefaultWalAutoCheckpoint);
  ~FilePager() override;

  void flush() override;
  std::uint64_t flushAsync() override;
  void waitDurable(std::uint64_t lsn) override;
  void checkpoint() override;

  std::uint64_t fileSizeBytes() const override;
  std::uint64_t walSizeBytes() const override;

  const std::string& path() const { return path_; }
  Durability durability() const override { return durability_; }

  /// Number of frames currently in the WAL (0 after a checkpoint).
  std::uint32_t walFrameCount() const {
    return wal_frames_.load(std::memory_order_relaxed);
  }

  /// Sidecar rollback-journal path an earlier build used for a database
  /// file; open refuses a store beside a non-empty one.
  static std::string journalPathFor(const std::string& db_path) {
    return db_path + ".journal";
  }

  /// Sidecar write-ahead-log path for a database file.
  static std::string walPathFor(const std::string& db_path) {
    return db_path + ".wal";
  }

 private:
  void loadFromDisk();
  /// Throws StorageError, touching neither file, when a non-empty rollback
  /// journal from an earlier build sits beside the db; removes an empty one.
  void refuseLeftoverJournal();
  /// Replays every complete committed transaction from a leftover WAL into
  /// the db file, discards the torn tail, and removes the WAL. Updates
  /// recovery_stats_. Throws StorageError, touching neither file, when the
  /// log has a whole header of an unknown version or page size.
  void recoverWal();
  void flushInPlace();
  /// WAL commit: appends dirty pages as frames and publishes the new page
  /// table. Returns the commit's LSN (0 if nothing to commit). When `defer`
  /// is false the WAL is fsynced before returning.
  std::uint64_t flushWal(bool defer);
  /// Group-commit fsync: makes every commit up to `lsn` durable, batching
  /// concurrent callers behind a leader.
  void syncWalTo(std::uint64_t lsn);
  void checkpointWal();
  void ensureWalOpen();

  std::string path_;
  std::string wal_path_;
  Durability durability_;
  Vfs* vfs_;
  std::unique_ptr<VfsFile> file_;

  // WAL append state. Mutated only on the writer side (commits and
  // checkpoints are serialized by the caller); wal_end_/wal_frames_ are
  // atomics because stat/metrics paths read them from other threads.
  std::unique_ptr<VfsFile> wal_;
  std::atomic<std::uint64_t> wal_end_{0};  // bytes of valid WAL (0 = no header yet)
  std::uint64_t wal_chain_ = 0;            // checksum of the last valid frame
  std::uint64_t wal_salt_ = 0;
  std::atomic<std::uint32_t> wal_frames_{0};
  std::uint32_t wal_autocheckpoint_ = kDefaultWalAutoCheckpoint;
  std::unordered_set<PageId> wal_pages_;  // pages with frames in the WAL
  // Frames being appended, up to kWalStageFrames of them; reused across
  // commits so an append allocates nothing once it has grown.
  std::vector<std::uint8_t> wal_stage_;
  // The last published table whose content is fully covered by WAL frames
  // (updated after every successful append). Checkpoints fold THIS table —
  // never the freshest published one, which between commitJournal() and
  // flush() can be ahead of the log.
  std::shared_ptr<const PageTable> wal_table_;

  // Group-commit state (shared between committing threads).
  std::mutex wal_sync_mu_;
  std::condition_variable wal_sync_cv_;
  std::uint64_t wal_appended_lsn_ = 0;
  std::uint64_t wal_synced_lsn_ = 0;
  bool wal_sync_leader_ = false;
};

}  // namespace perftrack::minidb
