#include "minidb/pager.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace perftrack::minidb {

using util::StorageError;

namespace {

/// Process-wide pager counters, resolved once from the global registry and
/// cached as references (the hot path is a relaxed atomic add, no lookup).
/// Cache-hit accounting: every pageForRead is a hit except the pages loaded
/// from disk at open (pt_pager_pages_loaded_total), since minidb keeps the
/// whole database resident.
struct PagerCounters {
  obs::Counter& page_reads;
  obs::Counter& page_writes;
  obs::Counter& pages_allocated;
  obs::Counter& pages_freed;
  obs::Counter& pages_loaded;
  obs::Counter& disk_page_writes;
  obs::Counter& db_fsyncs;
  obs::Counter& commits;
  obs::Histogram& commit_ms;
  obs::Counter& wal_frames;
  obs::Counter& wal_fsyncs;
  obs::Counter& wal_checkpoints;
  obs::Gauge& wal_bytes;
  obs::Gauge& snapshot_age;
  obs::Histogram& group_commit_batch;
};

PagerCounters& pagerCounters() {
  auto& reg = obs::Registry::global();
  static PagerCounters* c = new PagerCounters{
      reg.counter("pt_pager_page_reads_total"),
      reg.counter("pt_pager_page_writes_total"),
      reg.counter("pt_pager_pages_allocated_total"),
      reg.counter("pt_pager_pages_freed_total"),
      reg.counter("pt_pager_pages_loaded_total"),
      reg.counter("pt_pager_disk_page_writes_total"),
      reg.counter("pt_pager_db_fsyncs_total"),
      reg.counter("pt_pager_commits_total"),
      reg.histogram("pt_pager_commit_ms"),
      reg.counter("pt_wal_frames_total"),
      reg.counter("pt_wal_fsyncs_total"),
      reg.counter("pt_wal_checkpoints_total"),
      reg.gauge("pt_wal_bytes"),
      reg.gauge("pt_wal_snapshot_age"),
      reg.histogram("pt_wal_group_commit_batch"),
  };
  return *c;
}

DbHeader* headerOf(std::uint8_t* page0) { return reinterpret_cast<DbHeader*>(page0); }
const DbHeader* headerOf(const std::uint8_t* page0) {
  return reinterpret_cast<const DbHeader*>(page0);
}

std::uint64_t fnv1aSeed(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// First link of a WAL checksum chain: the offset basis mixed with the salt,
/// so frames surviving from an earlier WAL generation can never validate.
std::uint64_t walSeed(std::uint64_t salt) {
  return fnv1aSeed(14695981039346656037ULL, &salt, sizeof(salt));
}

/// Next link: previous frame's checksum folded with this frame's header
/// fields and page image. A frame checksums correctly only if every frame
/// before it did too, which is what lets recovery stop at the first torn
/// byte and keep the prefix. The link function depends on the log's version.
///
/// Version 1 link: byte-serial FNV-1a over the header fields, then the image.
std::uint64_t walChainFnv1a(std::uint64_t chain, std::uint32_t page_id,
                            std::uint32_t commit_page_count, const std::uint8_t* image) {
  std::uint64_t h = fnv1aSeed(chain, &page_id, sizeof(page_id));
  h = fnv1aSeed(h, &commit_page_count, sizeof(commit_page_count));
  return fnv1aSeed(h, image, kPageSize);
}

constexpr std::uint64_t kXxP1 = 11400714785074694791ULL;
constexpr std::uint64_t kXxP2 = 14029467366897019727ULL;
constexpr std::uint64_t kXxP3 = 1609587929392839161ULL;
constexpr std::uint64_t kXxP4 = 9650029242287828579ULL;

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t xxRound(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kXxP2, 31) * kXxP1;
}

std::uint64_t xxMerge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxRound(0, lane)) * kXxP1 + kXxP4;
}

/// Version 2 link: XXH64, seeded by the previous link, of the page image
/// followed by the 8-byte {page_id, commit_page_count} word (on a
/// little-endian host, exactly the bytes of the two header fields). Four
/// independent lanes consume the image a word at a time, so a frame hashes
/// at memory speed instead of one multiply per byte.
std::uint64_t walChain(std::uint64_t chain, std::uint32_t page_id,
                       std::uint32_t commit_page_count, const std::uint8_t* image) {
  static_assert(kPageSize % 32 == 0, "the image must be whole 32-byte stripes");
  std::uint64_t v1 = chain + kXxP1 + kXxP2;
  std::uint64_t v2 = chain + kXxP2;
  std::uint64_t v3 = chain;
  std::uint64_t v4 = chain - kXxP1;
  for (std::size_t i = 0; i < kPageSize; i += 32) {
    v1 = xxRound(v1, load64(image + i));
    v2 = xxRound(v2, load64(image + i + 8));
    v3 = xxRound(v3, load64(image + i + 16));
    v4 = xxRound(v4, load64(image + i + 24));
  }
  std::uint64_t h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
                    std::rotl(v4, 18);
  h = xxMerge(xxMerge(xxMerge(xxMerge(h, v1), v2), v3), v4);
  h += kPageSize + sizeof(std::uint64_t);
  const std::uint64_t fields =
      std::uint64_t{page_id} | (std::uint64_t{commit_page_count} << 32);
  h = std::rotl(h ^ xxRound(0, fields), 27) * kXxP1 + kXxP4;
  h = (h ^ (h >> 33)) * kXxP2;
  h = (h ^ (h >> 29)) * kXxP3;
  return h ^ (h >> 32);
}

}  // namespace

// --- snapshots ---------------------------------------------------------------

thread_local Pager::SnapshotScope::Frame* Pager::SnapshotScope::tls_top_ = nullptr;

Pager::ReadSnapshot::ReadSnapshot(ReadSnapshot&& o) noexcept
    : pager_(o.pager_), table_(std::move(o.table_)) {
  o.pager_ = nullptr;
}

Pager::ReadSnapshot& Pager::ReadSnapshot::operator=(ReadSnapshot&& o) noexcept {
  if (this != &o) {
    release();
    pager_ = o.pager_;
    table_ = std::move(o.table_);
    o.pager_ = nullptr;
  }
  return *this;
}

Pager::ReadSnapshot::~ReadSnapshot() { release(); }

void Pager::ReadSnapshot::release() {
  if (pager_ != nullptr && table_ != nullptr) {
    pager_->unpinSnapshot(table_->seq);
  }
  pager_ = nullptr;
  table_.reset();
}

Pager::SnapshotToken Pager::ReadSnapshot::token() const {
  return SnapshotToken{pager_, table_.get()};
}

Pager::SnapshotScope::SnapshotScope(const ReadSnapshot& snap) {
  const SnapshotToken t = snap.token();
  push(t.pager, t.table);
}

Pager::SnapshotScope::SnapshotScope(const SnapshotToken& token) {
  push(token.pager, token.table);
}

void Pager::SnapshotScope::push(const Pager* pager, const PageTable* table) {
  frame_.pager = (table != nullptr) ? pager : nullptr;
  frame_.table = table;
  frame_.prev = tls_top_;
  tls_top_ = &frame_;
}

Pager::SnapshotScope::~SnapshotScope() { tls_top_ = frame_.prev; }

Pager::SnapshotToken Pager::currentToken() {
  for (const SnapshotScope::Frame* f = SnapshotScope::tls_top_; f != nullptr;
       f = f->prev) {
    if (f->pager != nullptr) return SnapshotToken{f->pager, f->table};
  }
  return SnapshotToken{};
}

const Pager::PageTable* Pager::activeScopeTable() const {
  for (const SnapshotScope::Frame* f = SnapshotScope::tls_top_; f != nullptr;
       f = f->prev) {
    if (f->pager == this) return f->table;
  }
  return nullptr;
}

std::uint64_t Pager::snapshotScopeSeq() const {
  const PageTable* t = activeScopeTable();
  return t != nullptr ? t->seq : 0;
}

std::uint64_t Pager::oldestVisibleSeq() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return oldestVisibleSeqLocked();
}

Pager::ReadSnapshot Pager::beginSnapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  ++pinned_[committed_->seq];
  updateSnapshotAgeLocked();
  return ReadSnapshot(this, committed_);
}

void Pager::unpinSnapshot(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  auto it = pinned_.find(seq);
  if (it != pinned_.end() && --(it->second) == 0) pinned_.erase(it);
  updateSnapshotAgeLocked();
}

std::size_t Pager::pinnedSnapshots() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  std::size_t n = 0;
  for (const auto& [seq, count] : pinned_) n += count;
  return n;
}

std::uint64_t Pager::commitSeq() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return commit_seq_;
}

std::shared_ptr<const Pager::PageTable> Pager::committedTable() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return committed_;
}

std::uint64_t Pager::oldestVisibleSeqLocked() const {
  return pinned_.empty() ? commit_seq_ : pinned_.begin()->first;
}

void Pager::updateSnapshotAgeLocked() const {
  pagerCounters().snapshot_age.set(
      static_cast<double>(commit_seq_ - oldestVisibleSeqLocked()));
}

void Pager::publishCommitted() {
  auto t = std::make_shared<PageTable>();
  t->pages.assign(pages_.begin(), pages_.end());
  t->page_count = headerOf(pages_.at(0)->data())->page_count;
  // commit_seq_ is written only here, on the writer side, so reading it
  // unlocked is race-free. The hook runs before the new table is visible.
  t->seq = commit_seq_ + 1;
  if (publish_hook_) publish_hook_(t->seq);
  std::lock_guard<std::mutex> lk(snap_mu_);
  commit_seq_ = t->seq;
  committed_ = std::move(t);
  // Every working buffer is now referenced by a published table; the next
  // write to any page must copy first.
  owned_.clear();
  updateSnapshotAgeLocked();
}

void Pager::publishIfChanged() {
  // Writer-side read of committed_: publishCommitted() is the only writer
  // and it runs on this same (serialized) side, so no lock is needed here.
  if (committed_ != nullptr && owned_.empty() &&
      committed_->pages.size() == pages_.size() &&
      committed_->page_count == headerOf(pages_.at(0)->data())->page_count) {
    return;
  }
  publishCommitted();
}

// --- pages -------------------------------------------------------------------

void Pager::formatNew() {
  pages_.clear();
  owned_.clear();
  pages_.push_back(std::make_shared<PageBuf>());
  pages_[0]->fill(0);
  DbHeader* h = headerOf(pages_[0]->data());
  h->magic = kDbMagic;
  h->version = kDbVersion;
  h->page_count = 1;
  h->freelist_head = kInvalidPage;
  h->catalog_first_page = kInvalidPage;
  owned_.insert(0);
  dirty_.insert(0);
}

const DbHeader& Pager::header() const {
  if (const PageTable* t = activeScopeTable()) {
    return *headerOf(t->pages.at(0)->data());
  }
  return *headerOf(pages_.at(0)->data());
}

DbHeader& Pager::headerForWrite() {
  return *headerOf(pageForWrite(0));
}

std::uint8_t* Pager::writableBuf(PageId id) {
  std::shared_ptr<PageBuf>& slot = pages_.at(id);
  if (journaling_ && !journal_.contains(id)) {
    if (id >= journal_page_count_) {
      // Page did not exist when the transaction began: record null image so
      // rollback simply discards it.
      journal_.emplace(id, nullptr);
    } else if (owned_.contains(id)) {
      // The working buffer will be mutated in place; keep a copy to undo.
      journal_.emplace(id, std::make_shared<PageBuf>(*slot));
    } else {
      // The buffer is frozen (shared with a published table); stashing the
      // pointer itself is a zero-copy before-image.
      journal_.emplace(id, slot);
    }
  }
  if (!owned_.contains(id)) {
    // Copy-on-write: the current buffer may be visible to pinned snapshots.
    slot = std::make_shared<PageBuf>(*slot);
    owned_.insert(id);
  }
  return slot->data();
}

std::uint8_t* Pager::pageForWrite(PageId id) {
  if (id >= pages_.size() || !pages_[id]) {
    throw StorageError("Pager: write access to unallocated page " + std::to_string(id));
  }
  std::uint8_t* raw = writableBuf(id);
  dirty_.insert(id);
  pagerCounters().page_writes.inc();
  return raw;
}

const std::uint8_t* Pager::pageForRead(PageId id) const {
  if (const PageTable* t = activeScopeTable()) {
    if (id >= t->pages.size() || !t->pages[id]) {
      throw StorageError("Pager: snapshot read of unallocated page " +
                         std::to_string(id));
    }
    pagerCounters().page_reads.inc();
    return t->pages[id]->data();
  }
  if (id >= pages_.size() || !pages_[id]) {
    throw StorageError("Pager: read access to unallocated page " + std::to_string(id));
  }
  pagerCounters().page_reads.inc();
  return pages_[id]->data();
}

PageId Pager::allocate() {
  DbHeader& h = headerForWrite();
  if (h.freelist_head != kInvalidPage) {
    const PageId id = h.freelist_head;
    // The first 4 bytes of a free page link to the next free page.
    const std::uint8_t* raw = pages_.at(id)->data();
    PageId next;
    std::memcpy(&next, raw, sizeof(next));
    h.freelist_head = next;
    std::uint8_t* page = pageForWrite(id);
    std::memset(page, 0, kPageSize);
    pagerCounters().pages_allocated.inc();
    return id;
  }
  const PageId id = h.page_count;
  h.page_count = id + 1;
  if (pages_.size() <= id) pages_.resize(id + 1);
  // Always a fresh buffer: a stale one left in the slot may still be
  // referenced by a published table.
  pages_[id] = std::make_shared<PageBuf>();
  pages_[id]->fill(0);
  if (journaling_ && !journal_.contains(id)) {
    journal_.emplace(id, nullptr);  // born inside the transaction
  }
  owned_.insert(id);
  dirty_.insert(id);
  pagerCounters().pages_allocated.inc();
  return id;
}

void Pager::free(PageId id) {
  if (id == 0) throw StorageError("Pager: cannot free header page");
  pagerCounters().pages_freed.inc();
  DbHeader& h = headerForWrite();
  std::uint8_t* page = pageForWrite(id);
  std::memset(page, 0, kPageSize);
  const PageId next = h.freelist_head;
  std::memcpy(page, &next, sizeof(next));
  h.freelist_head = id;
}

void Pager::beginJournal() {
  if (journaling_) throw StorageError("Pager: nested transactions are not supported");
  journaling_ = true;
  journal_.clear();
  journal_page_count_ = headerOf(pages_.at(0)->data())->page_count;
}

void Pager::commitJournal() {
  if (!journaling_) throw StorageError("Pager: commit without begin");
  journaling_ = false;
  journal_.clear();
  // The commit is visible to new snapshots immediately; durability is the
  // following flush()/flushAsync()'s job.
  publishIfChanged();
}

void Pager::rollbackJournal() {
  if (!journaling_) throw StorageError("Pager: rollback without begin");
  journaling_ = false;
  for (auto& [id, image] : journal_) {
    if (image) {
      pages_.at(id) = std::move(image);
      dirty_.insert(id);
      // The restored buffer may be the one a published table references;
      // treat it as shared so the next write copies.
      owned_.erase(id);
    } else if (id < pages_.size()) {
      pages_[id].reset();  // discard page born inside the transaction
      owned_.erase(id);
    }
  }
  journal_.clear();
  // Restoring the header page (journaled above) restored page_count and the
  // free-list head; trim the in-memory vector to match.
  const std::uint32_t count = headerOf(pages_.at(0)->data())->page_count;
  if (pages_.size() > count) pages_.resize(count);
}

// --- FilePager ---------------------------------------------------------------

FilePager::FilePager(std::string path, Durability durability, Vfs* vfs,
                     std::uint32_t wal_autocheckpoint)
    : path_(std::move(path)),
      wal_path_(walPathFor(path_)),
      durability_(durability),
      vfs_(vfs != nullptr ? vfs : &PosixVfs::instance()),
      wal_autocheckpoint_(wal_autocheckpoint) {
  refuseLeftoverJournal();
  file_ = vfs_->open(path_, /*create=*/true);
  recoverWal();
  loadFromDisk();
  publishIfChanged();
  wal_table_ = committedTable();
}

FilePager::~FilePager() {
  try {
    flush();
    // A clean close folds the WAL away: a leftover `<db>.wal` means the
    // process died, and open-time recovery replays it.
    if (durability_ == Durability::Wal) {
      checkpointWal();
      if (wal_) {
        wal_.reset();
        vfs_->remove(wal_path_);
      }
    }
  } catch (...) {
    // Destructors must not throw; data loss here is reported by explicit
    // flush() calls, which callers use at transaction boundaries.
  }
}

void FilePager::loadFromDisk() {
  const std::uint64_t file_size = file_->size();
  if (file_size == 0) {
    // Brand-new database (or one rolled back to before its first commit).
    formatNew();
    return;
  }
  if (file_size % kPageSize != 0) {
    throw StorageError("FilePager: " + path_ + " is not a valid minidb file");
  }
  const std::size_t count = static_cast<std::size_t>(file_size / kPageSize);
  pagerCounters().pages_loaded.inc(count);
  pages_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    pages_[i] = std::make_shared<PageBuf>();
    if (file_->read(std::uint64_t{i} * kPageSize, pages_[i]->data(), kPageSize) !=
        kPageSize) {
      throw StorageError("FilePager: short read from " + path_);
    }
  }
  const DbHeader& h = *headerOf(pages_.at(0)->data());
  if (h.magic != kDbMagic || h.version != kDbVersion) {
    throw StorageError("FilePager: " + path_ + " has a bad header");
  }
  if (h.page_count > count) {
    throw StorageError("FilePager: " + path_ + " is truncated");
  }
}

void FilePager::refuseLeftoverJournal() {
  const std::string journal = journalPathFor(path_);
  if (!vfs_->exists(journal)) return;
  if (vfs_->open(journal, /*create=*/false)->size() == 0) {
    // An invalidated journal: it describes no commit.
    vfs_->remove(journal);
    return;
  }
  throw StorageError("FilePager: " + journal +
                     " is a rollback journal from an earlier build, which this "
                     "build cannot replay; open the store with that build once "
                     "to roll it back, then reopen it here");
}

void FilePager::recoverWal() {
  if (!vfs_->exists(wal_path_)) return;
  auto wf = vfs_->open(wal_path_, /*create=*/false);
  const std::uint64_t wsize = wf->size();

  // A short header is a crash inside ensureWalOpen: no commit can follow it.
  // A whole header of a format this build cannot read is not a crash, and
  // discarding it would drop that format's commits: refuse to open instead,
  // leaving the db and the log as they are.
  WalHeader wh{};
  const bool header_ok =
      wsize >= sizeof(WalHeader) && wf->read(0, &wh, sizeof(wh)) == sizeof(wh) &&
      wh.magic == kWalMagic;
  if (header_ok && ((wh.version != kWalVersion && wh.version != kWalVersionFnv1a) ||
                    wh.page_size != kPageSize)) {
    throw StorageError("FilePager: " + wal_path_ + " has WAL format version " +
                       std::to_string(wh.version) + " with " +
                       std::to_string(wh.page_size) +
                       "-byte pages; this build replays versions " +
                       std::to_string(kWalVersionFnv1a) + " and " +
                       std::to_string(kWalVersion) + " with " +
                       std::to_string(kPageSize) + "-byte pages");
  }
  const auto link = wh.version == kWalVersionFnv1a ? walChainFnv1a : walChain;

  // Walk the checksum chain frame by frame. Frames accumulate into the
  // pending transaction; a commit-marker frame folds the pending set into
  // `latest`. The walk stops at the first torn/invalid frame, so `latest`
  // is exactly the longest committed prefix.
  std::map<PageId, std::vector<std::uint8_t>> latest;
  std::map<PageId, std::vector<std::uint8_t>> pending;
  std::uint32_t commit_pages = 0;
  bool tail_discarded = false;
  if (header_ok) {
    std::uint64_t off = sizeof(WalHeader);
    std::uint64_t chain = walSeed(wh.salt);
    std::vector<std::uint8_t> frame(kWalFrameSize);
    while (off + kWalFrameSize <= wsize) {
      if (wf->read(off, frame.data(), frame.size()) != frame.size()) {
        tail_discarded = true;
        break;
      }
      WalFrameHeader fh;
      std::memcpy(&fh, frame.data(), sizeof(fh));
      const std::uint64_t want =
          link(chain, fh.page_id, fh.commit_page_count, frame.data() + sizeof(fh));
      if (want != fh.checksum) {
        tail_discarded = true;
        break;
      }
      chain = want;
      pending[fh.page_id].assign(frame.begin() + sizeof(fh), frame.end());
      if (fh.commit_page_count != 0) {
        for (auto& [id, img] : pending) latest[id] = std::move(img);
        pending.clear();
        commit_pages = fh.commit_page_count;
      }
      off += kWalFrameSize;
    }
    if (off < wsize) tail_discarded = true;  // trailing partial frame
  }
  wf.reset();

  if (commit_pages == 0) {
    // No complete commit in the log: the db file alone is the state.
    vfs_->remove(wal_path_);
    if (wsize > 0) recovery_stats_.discarded_invalid_wal = true;
    return;
  }

  // Fold the committed prefix into the db file, cut it to the final commit's
  // page count, and only then (after the db fsync) drop the WAL — a crash
  // anywhere in here leaves the WAL in place and recovery simply reruns.
  for (const auto& [id, img] : latest) {
    if (id >= commit_pages) continue;  // freed past the final commit's end
    file_->write(std::uint64_t{id} * kPageSize, img.data(), kPageSize);
  }
  file_->truncate(std::uint64_t{commit_pages} * kPageSize);
  file_->sync();
  vfs_->remove(wal_path_);
  recovery_stats_.wal_replayed = true;
  recovery_stats_.wal_frames_applied = static_cast<std::uint32_t>(latest.size());
  if (tail_discarded || !pending.empty()) recovery_stats_.discarded_invalid_wal = true;
}

void FilePager::flush() {
  if (durability_ == Durability::Wal) {
    flushWal(/*defer=*/false);
  } else {
    flushInPlace();
  }
}

std::uint64_t FilePager::flushAsync() {
  if (durability_ == Durability::Wal) return flushWal(/*defer=*/true);
  flush();
  return 0;
}

void FilePager::waitDurable(std::uint64_t lsn) {
  if (durability_ != Durability::Wal || lsn == 0) return;
  syncWalTo(lsn);
}

void FilePager::checkpoint() {
  if (durability_ == Durability::Wal) checkpointWal();
}

std::uint64_t FilePager::fileSizeBytes() const {
  return file_->size();
}

std::uint64_t FilePager::walSizeBytes() const {
  if (durability_ == Durability::Wal) return wal_end_.load(std::memory_order_relaxed);
  if (!vfs_->exists(wal_path_)) return 0;
  return vfs_->open(wal_path_, /*create=*/false)->size();
}

void FilePager::flushInPlace() {
  const std::uint32_t count = header().page_count;
  std::uint64_t written = 0;
  for (PageId id : dirty_) {
    if (id >= count || !pages_[id]) continue;  // freed/rolled-back page
    file_->write(std::uint64_t{id} * kPageSize, pages_[id]->data(), kPageSize);
    ++written;
  }
  pagerCounters().disk_page_writes.inc(written);
  dirty_.clear();
  publishIfChanged();
}

// --- WAL ---------------------------------------------------------------------

void FilePager::ensureWalOpen() {
  if (!wal_) wal_ = vfs_->open(wal_path_, /*create=*/true);
  if (wal_end_.load(std::memory_order_relaxed) == 0) {
    // Fresh (or just-checkpointed) log: write the header with a new salt so
    // any bytes surviving from the previous generation can never checksum.
    WalHeader wh{kWalMagic, kWalVersion, kPageSize, 0, ++wal_salt_};
    wal_->write(0, &wh, sizeof(wh));
    wal_end_.store(sizeof(WalHeader), std::memory_order_relaxed);
    wal_chain_ = walSeed(wh.salt);
  }
}

std::uint64_t FilePager::flushWal(bool defer) {
  const obs::StageTimer commit_timer;
  PagerCounters& c = pagerCounters();

  // Fold the log back into the db file before it grows without bound —
  // only between transactions, and only when no pinned snapshot might
  // still be reading through the old frames.
  if (wal_autocheckpoint_ != 0 && !inTransaction() &&
      wal_frames_.load(std::memory_order_relaxed) >= wal_autocheckpoint_ &&
      pinnedSnapshots() == 0) {
    checkpointWal();
  }

  const std::uint32_t count = header().page_count;
  std::vector<PageId> to_write;
  for (PageId id : dirty_) {
    if (id < count && id < pages_.size() && pages_[id]) to_write.push_back(id);
  }
  if (to_write.empty()) {
    dirty_.clear();
    publishIfChanged();
    if (!defer) {
      // Nothing new, but earlier deferred commits may still be unsynced.
      std::uint64_t target;
      {
        std::lock_guard<std::mutex> lk(wal_sync_mu_);
        target = wal_appended_lsn_;
      }
      if (target != 0 && wal_) syncWalTo(target);
    }
    return 0;
  }
  std::sort(to_write.begin(), to_write.end());
  ensureWalOpen();

  // Append one frame per page; the last frame carries the new page count and
  // is the commit marker. Frames are assembled in the staging buffer and
  // written with one call per kWalStageFrames of them. wal_end_/wal_chain_
  // advance only after every write succeeded — a failed append leaves the
  // valid region untouched and the retry overwrites the garbage tail.
  std::uint64_t off = wal_end_.load(std::memory_order_relaxed);
  std::uint64_t chain = wal_chain_;
  const std::size_t stage_bytes =
      std::min(to_write.size(), kWalStageFrames) * kWalFrameSize;
  if (wal_stage_.size() < stage_bytes) wal_stage_.resize(stage_bytes);
  std::size_t staged = 0;
  for (std::size_t i = 0; i < to_write.size(); ++i) {
    const PageId id = to_write[i];
    std::uint8_t* frame = wal_stage_.data() + staged * kWalFrameSize;
    WalFrameHeader fh{};
    fh.page_id = id;
    fh.commit_page_count = (i + 1 == to_write.size()) ? count : 0;
    std::memcpy(frame + sizeof(fh), pages_[id]->data(), kPageSize);
    chain = walChain(chain, fh.page_id, fh.commit_page_count, frame + sizeof(fh));
    fh.checksum = chain;
    std::memcpy(frame, &fh, sizeof(fh));
    if (++staged == kWalStageFrames || i + 1 == to_write.size()) {
      wal_->write(off, wal_stage_.data(), staged * kWalFrameSize);
      off += staged * kWalFrameSize;
      staged = 0;
    }
  }
  wal_end_.store(off, std::memory_order_relaxed);
  wal_chain_ = chain;
  wal_frames_.fetch_add(static_cast<std::uint32_t>(to_write.size()),
                        std::memory_order_relaxed);
  for (PageId id : to_write) wal_pages_.insert(id);
  dirty_.clear();

  // The commit is now replayable: publish it to readers and remember the
  // published table as the newest WAL-covered state for checkpoints.
  publishIfChanged();
  wal_table_ = committedTable();

  std::uint64_t lsn;
  {
    std::lock_guard<std::mutex> lk(wal_sync_mu_);
    lsn = ++wal_appended_lsn_;
  }
  c.wal_frames.inc(to_write.size());
  c.wal_bytes.set(static_cast<double>(off));
  c.commits.inc();
  if (!defer) syncWalTo(lsn);
  c.commit_ms.observe(static_cast<double>(commit_timer.elapsedUs()) / 1000.0);
  return lsn;
}

void FilePager::syncWalTo(std::uint64_t lsn) {
  std::unique_lock<std::mutex> lk(wal_sync_mu_);
  for (;;) {
    if (wal_synced_lsn_ >= lsn) return;  // a leader already covered us
    if (!wal_sync_leader_) break;
    wal_sync_cv_.wait(lk);
  }
  // Leader: one fsync covers every commit appended so far, ours included.
  wal_sync_leader_ = true;
  const std::uint64_t target = wal_appended_lsn_;
  const std::uint64_t batch = target - wal_synced_lsn_;
  lk.unlock();
  try {
    wal_->sync();
  } catch (...) {
    lk.lock();
    wal_sync_leader_ = false;
    wal_sync_cv_.notify_all();
    throw;
  }
  lk.lock();
  wal_synced_lsn_ = target;
  wal_sync_leader_ = false;
  wal_sync_cv_.notify_all();
  lk.unlock();
  PagerCounters& c = pagerCounters();
  c.wal_fsyncs.inc();
  c.group_commit_batch.observe(static_cast<double>(batch));
}

void FilePager::checkpointWal() {
  if (inTransaction()) {
    throw StorageError("FilePager: checkpoint inside a transaction");
  }
  if (wal_end_.load(std::memory_order_relaxed) == 0 || !wal_table_) return;

  // 1. The log must be durable before its content is folded: if db-page
  //    writes below tear in a crash, recovery needs the frames to redo them.
  std::uint64_t target;
  {
    std::lock_guard<std::mutex> lk(wal_sync_mu_);
    target = wal_appended_lsn_;
  }
  if (target != 0) syncWalTo(target);

  // 2. Fold the newest WAL-covered committed version into the db file and
  //    cut the file to its page count.
  const std::shared_ptr<const PageTable> table = wal_table_;
  std::vector<PageId> ids(wal_pages_.begin(), wal_pages_.end());
  std::sort(ids.begin(), ids.end());
  std::uint64_t written = 0;
  for (PageId id : ids) {
    if (id >= table->page_count || id >= table->pages.size() || !table->pages[id]) {
      continue;  // freed past the end; the truncate below drops it
    }
    file_->write(std::uint64_t{id} * kPageSize, table->pages[id]->data(), kPageSize);
    ++written;
  }
  file_->truncate(std::uint64_t{table->page_count} * kPageSize);
  file_->sync();

  // 3. Reset the log. The truncate is the checkpoint's commit point: a crash
  //    before it replays the (now redundant) WAL; after it the db file alone
  //    is the committed state.
  wal_->truncate(0);
  wal_->sync();
  wal_end_.store(0, std::memory_order_relaxed);
  wal_chain_ = 0;
  wal_frames_.store(0, std::memory_order_relaxed);
  wal_pages_.clear();
  {
    std::lock_guard<std::mutex> lk(wal_sync_mu_);
    wal_synced_lsn_ = wal_appended_lsn_;
  }
  PagerCounters& c = pagerCounters();
  c.db_fsyncs.inc();
  c.disk_page_writes.inc(written);
  c.wal_checkpoints.inc();
  c.wal_bytes.set(0.0);
}

}  // namespace perftrack::minidb
