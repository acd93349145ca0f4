// minidb SQL execution: the shared worker pool behind morsel-driven
// parallelism.
//
// One process-wide pool serves every Engine (and therefore every ptserverd
// session): a parallel query borrows pool threads for the duration of one
// Gather, so N concurrent sessions share the same fixed set of workers
// instead of oversubscribing the machine with N pools. The pool grows on
// demand up to kMaxThreads and never shrinks; threads are detached and block
// on the (intentionally leaked) pool singleton, so process exit is safe at
// any point.
//
// run(extra, fn) executes fn(slot) for slots 1..extra on pool threads while
// the calling thread runs fn(0) — the caller always participates, so a
// saturated pool degrades to serial execution instead of deadlocking. After
// finishing slot 0 the caller steals any of its own still-unclaimed slots,
// then waits for stragglers; the time spent purely waiting is reported back
// (the Gather barrier cost, exported as pt_exec_gather_wait_ms).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perftrack::minidb::sql {

class ExecPool {
 public:
  /// Hard ceiling on pool threads; a larger exec_threads degree just runs
  /// more slots per thread.
  static constexpr std::size_t kMaxThreads = 64;

  /// The process-wide pool. Never destroyed (see file comment).
  static ExecPool& shared();

  struct RunStats {
    std::uint64_t wait_ns = 0;  // caller barrier wait after its own share
    std::size_t workers = 0;    // pool slots requested (excludes the caller)
  };

  /// Runs fn(slot) for slot = 1..extra on pool threads while the caller runs
  /// fn(0), then waits for every slot to finish. The first exception thrown
  /// by any slot (including the caller's) is rethrown here after the
  /// barrier. extra == 0 degenerates to a plain fn(0) call.
  RunStats run(std::size_t extra, const std::function<void(std::size_t)>& fn);

  /// Current number of spawned pool threads (gauge pt_exec_pool_threads).
  std::size_t threadCount() const;

 private:
  ExecPool() = default;

  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next_slot = 0;  // next slot to hand out
    std::size_t end_slot = 0;   // one past the last slot
    std::size_t active = 0;     // slots currently running
    std::exception_ptr error;   // first failure among all slots
    bool finished() const { return next_slot >= end_slot && active == 0; }
  };
  using JobPtr = std::shared_ptr<Job>;

  void ensureThreadsLocked(std::size_t want);
  void workerMain();
  /// Claims and runs one slot of `job`. Called with mu_ held; unlocks while
  /// running, relocks before returning.
  void runOneSlot(const JobPtr& job, std::unique_lock<std::mutex>& lock,
                  const std::function<void(std::size_t)>& fn);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // wakes idle pool threads
  std::condition_variable done_cv_;  // wakes callers waiting at a barrier
  std::deque<JobPtr> queue_;         // jobs with unclaimed slots
  std::size_t thread_count_ = 0;
};

}  // namespace perftrack::minidb::sql
