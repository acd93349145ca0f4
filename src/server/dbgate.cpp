#include "server/dbgate.h"

namespace perftrack::server {

bool DbGate::lockShared(std::chrono::milliseconds timeout, bool bypass_writer_queue) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] {
    if (writer_) return false;
    // Writer preference: park new readers behind queued writers unless the
    // caller's session already holds a cursor open (deadlock escape).
    if (writers_waiting_ > 0 && !bypass_writer_queue) return false;
    return true;
  };
  if (!cv_.wait_for(lock, timeout, ready)) return false;
  ++readers_;
  return true;
}

void DbGate::unlockShared() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --readers_;
  }
  cv_.notify_all();
}

bool DbGate::lockWrite(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  // Writer-writer mutual exclusion only; readers stream their snapshots
  // underneath. Park behind queued exclusive (schema) holds so a steady DML
  // load cannot starve DDL.
  const bool ok = cv_.wait_for(lock, timeout, [&] {
    return !writer_ && !dml_writer_ && writers_waiting_ == 0;
  });
  if (!ok) return false;
  dml_writer_ = true;
  return true;
}

void DbGate::unlockWrite() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    dml_writer_ = false;
  }
  cv_.notify_all();
}

bool DbGate::lockExclusive(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  ++writers_waiting_;
  const bool ok = cv_.wait_for(
      lock, timeout, [&] { return !writer_ && !dml_writer_ && readers_ == 0; });
  --writers_waiting_;
  if (!ok) {
    lock.unlock();
    // Our departure may unblock readers parked behind the writer queue.
    cv_.notify_all();
    return false;
  }
  writer_ = true;
  return true;
}

void DbGate::unlockExclusive() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
  }
  cv_.notify_all();
}

}  // namespace perftrack::server
