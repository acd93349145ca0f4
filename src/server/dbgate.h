// ptserverd concurrency gate.
//
// One minidb Database is single-writer / multi-reader safe only by
// convention: the read paths (catalog lookups, heap/B+-tree scans, the
// Volcano pipeline) never mutate shared state, while DML/DDL/VACUUM rewrite
// pages in place. DbGate turns that convention into a runtime guarantee: a
// reader/writer gate that every server request passes through.
//
// Readers run under pinned storage snapshots (every durability mode
// publishes one per commit), so a DML writer never disturbs them: shared
// holds conflict only with exclusive (schema) holds, and DML writers only
// with each other — SELECTs stream while commits land.
//
// It differs from std::shared_mutex in three server-specific ways:
//   * Acquisition takes a timeout. A writer that cannot start because
//     cursors are pinned open (or a reader blocked behind a queued writer)
//     gets `false` back, which the session layer turns into a clean BUSY
//     error frame instead of a wedged worker thread.
//   * Read holds are not tied to a thread. An open server-side cursor keeps
//     a read hold for its whole lifetime — across many FETCH requests
//     serviced by different pool workers — and releases it from whichever
//     thread closes or exhausts the cursor. (std::shared_mutex makes that
//     undefined behavior.)
//   * Writer preference with a re-entrancy escape hatch. Once a writer is
//     queued, new readers wait (no writer starvation under a steady SELECT
//     load) — except readers from a session that already holds a cursor
//     open, which may bypass the queue: blocking them could deadlock the
//     session against the writer that is waiting for its own cursor to
//     close (the cursor-pin interaction documented in DESIGN.md §5.4).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace perftrack::server {

class DbGate {
 public:
  /// Acquires one shared (read) hold. `bypass_writer_queue` is set by
  /// sessions that already hold at least one read hold (see above).
  /// Returns false on timeout.
  bool lockShared(std::chrono::milliseconds timeout, bool bypass_writer_queue);

  /// Releases one shared hold; callable from any thread.
  void unlockShared();

  /// Acquires the DML-writer hold: excludes only other writers (exclusive
  /// holds included) — readers keep streaming. Returns false on timeout.
  bool lockWrite(std::chrono::milliseconds timeout);

  void unlockWrite();

  /// Acquires the exclusive (schema) hold: waits for every read hold —
  /// including cursor-lifetime holds — and any DML writer to drain.
  /// Returns false on timeout.
  bool lockExclusive(std::chrono::milliseconds timeout);

  void unlockExclusive();

  /// RAII wrapper for request-scoped holds. Cursor-lifetime holds are
  /// managed manually by the session (they outlive the request).
  class SharedHold {
   public:
    SharedHold() = default;
    SharedHold(DbGate& gate, std::chrono::milliseconds timeout, bool bypass)
        : gate_(gate.lockShared(timeout, bypass) ? &gate : nullptr) {}
    SharedHold(SharedHold&& o) noexcept : gate_(o.gate_) { o.gate_ = nullptr; }
    SharedHold& operator=(SharedHold&& o) noexcept {
      if (this != &o) {
        release();
        gate_ = o.gate_;
        o.gate_ = nullptr;
      }
      return *this;
    }
    SharedHold(const SharedHold&) = delete;
    SharedHold& operator=(const SharedHold&) = delete;
    ~SharedHold() { release(); }

    bool held() const { return gate_ != nullptr; }
    /// Transfers ownership to a manually managed hold (cursor lifetime).
    void forget() { gate_ = nullptr; }
    void release() {
      if (gate_ != nullptr) gate_->unlockShared();
      gate_ = nullptr;
    }

   private:
    DbGate* gate_ = nullptr;
  };

  class ExclusiveHold {
   public:
    ExclusiveHold(DbGate& gate, std::chrono::milliseconds timeout)
        : gate_(gate.lockExclusive(timeout) ? &gate : nullptr) {}
    ExclusiveHold(const ExclusiveHold&) = delete;
    ExclusiveHold& operator=(const ExclusiveHold&) = delete;
    ~ExclusiveHold() {
      if (gate_ != nullptr) gate_->unlockExclusive();
    }
    bool held() const { return gate_ != nullptr; }

   private:
    DbGate* gate_ = nullptr;
  };

  /// RAII wrapper for the DML-writer hold. release() exists so a session
  /// can drop the hold after the commit is appended but before the
  /// group-commit fsync — the next writer overlaps with this one's sync.
  class WriteHold {
   public:
    WriteHold(DbGate& gate, std::chrono::milliseconds timeout)
        : gate_(gate.lockWrite(timeout) ? &gate : nullptr) {}
    WriteHold(const WriteHold&) = delete;
    WriteHold& operator=(const WriteHold&) = delete;
    ~WriteHold() { release(); }
    bool held() const { return gate_ != nullptr; }
    void release() {
      if (gate_ != nullptr) gate_->unlockWrite();
      gate_ = nullptr;
    }

   private:
    DbGate* gate_ = nullptr;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;          // active shared holds (incl. cursor-lifetime)
  bool writer_ = false;      // exclusive hold active
  bool dml_writer_ = false;  // DML-writer hold active
  int writers_waiting_ = 0;  // queued exclusive holds (readers defer to them)
};

}  // namespace perftrack::server
