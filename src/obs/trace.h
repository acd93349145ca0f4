// Zero-dependency observability: the scoped-span query tracer.
//
// Every executed statement — local cursor, DML, or remote round trip —
// records one QueryTrace with its per-stage timings (parse, plan, bind,
// execute) and its streamed row/byte counts. Traces land in a bounded ring
// buffer (newest wins); traces slower than the configured threshold are
// additionally kept in a slow-query ring and logged to stderr, which is the
// `--slow-query-ms` surface of ptserverd.
//
// Recording is gated twice. obs::enabled() is the kill switch: off means a
// single relaxed atomic load and no clock reads. On top of that,
// shouldSample() rate-limits full span capture to one query per coarse
// clock tick (~1-4ms), so a hot loop pays only a coarse clock read per
// query while interactive workloads remain fully traced. Setting a
// slow-query threshold (ptserverd --slow-query-ms) disables sampling —
// classifying a query as slow requires timing every one.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perftrack::obs {

/// One statement execution, stage by stage. All times in microseconds;
/// stages that did not run this execution (cached plan, no parameters)
/// report 0.
struct QueryTrace {
  std::uint64_t seq = 0;  // monotonic id, assigned by the tracer
  std::string sql;        // truncated to kMaxSqlBytes
  std::uint64_t parse_us = 0;
  std::uint64_t plan_us = 0;
  // Remote (pt://) traces: parameters travel inside the EXECUTE round trip,
  // so bind_us is the client-side encoding only and the wire time is in
  // exec_us.
  std::uint64_t bind_us = 0;
  std::uint64_t exec_us = 0;  // open-to-exhaustion, includes streaming
  std::uint64_t rows = 0;     // rows streamed to the consumer
  std::uint64_t bytes = 0;    // approximate payload bytes streamed
  bool remote = false;        // recorded by the client side of a pt:// run

  std::uint64_t totalUs() const { return parse_us + plan_us + bind_us + exec_us; }
  /// One-line rendering used by the trace dump and ptquery --timing.
  std::string toLine() const;
};

/// Steady-clock stopwatch for one stage; microseconds.
class StageTimer {
 public:
  StageTimer() : start_(std::chrono::steady_clock::now()) {}
  std::uint64_t elapsedUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 256;
  static constexpr std::size_t kSlowRingCapacity = 64;
  static constexpr std::size_t kMaxSqlBytes = 200;

  static Tracer& global();

  /// Records one trace (assigns seq, truncates sql, classifies slow).
  /// No-op while obs::enabled() is false.
  void record(QueryTrace t);

  /// Should this query capture a full span? Instrumentation sites call this
  /// once per execution, before arming any stage timers. Returns true for at
  /// most one query per coarse clock tick — unless a slow-query threshold or
  /// setAlwaysSample() is in force, which both mean "time everything".
  /// False whenever obs::enabled() is false. Inline: on the skip path this
  /// is three relaxed loads and one coarse clock read.
  bool shouldSample() {
    if (!enabled()) return false;
    if (always_sample_.load(std::memory_order_relaxed)) return true;
    // --slow-query-ms means every statement must be timed: a slow offender
    // inside a skipped window would otherwise never be classified.
    if (slow_threshold_us_.load(std::memory_order_relaxed) > 0) return true;
    return tickSample();
  }

  /// Defeats the rate limiter (ptquery --timing, tests that assert on
  /// specific statements appearing in the ring).
  void setAlwaysSample(bool on) {
    always_sample_.store(on, std::memory_order_relaxed);
  }

  /// Oldest-to-newest snapshot of the recent ring.
  std::vector<QueryTrace> recent() const;
  /// Oldest-to-newest snapshot of the slow-query ring.
  std::vector<QueryTrace> slow() const;
  /// The most recently recorded trace, if any.
  std::optional<QueryTrace> last() const;

  /// Total traces recorded since start (or clear()).
  std::uint64_t recordedCount() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Statements with totalUs >= threshold go to the slow ring and stderr.
  /// 0 disables slow-query capture (the default).
  void setSlowQueryMillis(std::uint64_t ms) {
    slow_threshold_us_.store(ms * 1000, std::memory_order_relaxed);
  }
  std::uint64_t slowQueryMillis() const {
    return slow_threshold_us_.load(std::memory_order_relaxed) / 1000;
  }

  void clear();

 private:
  /// Rate-limiter tail of shouldSample(): true once per coarse clock tick.
  bool tickSample();

  mutable std::mutex mu_;
  std::vector<QueryTrace> ring_;       // ring of the last kRingCapacity traces
  std::size_t ring_next_ = 0;
  std::vector<QueryTrace> slow_ring_;  // ring of the last kSlowRingCapacity slow ones
  std::size_t slow_next_ = 0;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> slow_threshold_us_{0};
  std::atomic<bool> always_sample_{false};
  std::atomic<std::uint64_t> last_sample_tick_{0};  // coarse ms of last sample
};

/// Text dump of the recent and slow rings (the /traces endpoint body).
std::string renderTraces(const Tracer& tracer);

}  // namespace perftrack::obs
