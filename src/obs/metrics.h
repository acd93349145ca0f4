// Zero-dependency observability: a lock-cheap metrics registry.
//
// Every layer of the stack (pager, plan cache, SQL pipeline, server)
// publishes monotonic counters, gauges, and fixed-bucket latency histograms
// into one process-wide Registry. The design splits the cost asymmetrically:
//
//   hot path   Counter::inc() / Histogram::observe() are relaxed atomic
//              adds on objects the instrumented code holds by pointer —
//              no lock, no lookup, no allocation;
//   cold path  Registry::counter(name) does a mutex-guarded map lookup
//              (called once per instrumentation site, at init) and
//              renderPrometheus() snapshots everything for the METRICS
//              verb and the ptserverd --metrics-port endpoint.
//
// Metric objects live as long as the process (the registry never erases),
// so cached pointers stay valid forever. Naming scheme (DESIGN.md §5.5):
// pt_<layer>_<what>[_total|_ms], e.g. pt_wal_fsyncs_total.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace perftrack::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (open cursors, resident pages).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram (milliseconds). The bucket layout is
/// shared by every histogram so renderings are comparable; percentiles are
/// estimated by linear interpolation inside the covering bucket, which is
/// exact enough for p50/p95/p99 dashboards and costs no per-observation
/// memory.
class Histogram {
 public:
  /// Upper bounds (inclusive, ms) of the finite buckets; one overflow
  /// bucket catches everything above the last bound.
  static constexpr std::array<double, 14> kBounds = {
      0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
      500.0, 1000.0};
  static constexpr std::size_t kBucketCount = kBounds.size() + 1;

  void observe(double ms) {
    std::size_t b = 0;
    while (b < kBounds.size() && ms > kBounds[b]) ++b;
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    // Sum kept in integer nanoseconds so it stays a single atomic add.
    const double ns = ms < 0 ? 0 : ms * 1e6;
    sum_ns_.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  double sumMs() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e6;
  }

  /// Estimated percentile in ms; `p` in (0, 100]. Returns 0 when empty.
  double percentile(double p) const;

  /// Cumulative count of observations <= kBounds[i] (last entry = total).
  std::array<std::uint64_t, kBucketCount> snapshot() const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Named metric directory. Lookup is mutex-guarded (cold path only);
/// returned references are stable for the life of the process.
class Registry {
 public:
  /// The process-wide registry every subsystem publishes into.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Prometheus text exposition (0.0.4): `# TYPE` comments, counter/gauge
  /// sample lines, `_bucket{le=...}` / `_sum` / `_count` per histogram plus
  /// `_p50/_p95/_p99` convenience gauges.
  std::string renderPrometheus() const;

  /// Zeroes every registered metric (bench A/B phases, tests). Does not
  /// drop registrations, so cached pointers stay valid.
  void resetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Global kill switch for the *tracing* hot path (per-query clock reads and
/// ring-buffer records). Counters stay live — a relaxed add is cheaper than
/// the branch that would skip it. bench_obs toggles this to measure the
/// instrumentation overhead.
void setEnabled(bool on);

namespace detail {
/// Storage for the kill switch; read it through obs::enabled().
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// Inline so the once-per-query gate is one relaxed load, not a call.
inline bool enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Escapes a label value for the text exposition (0.0.4): backslash,
/// double-quote, and newline become \\, \", and \n. Used for the histogram
/// `le` labels and by anything that renders user-provided label values.
std::string promEscapeLabel(std::string_view value);

/// Writes renderPrometheus() of the global registry to the path named by
/// the PT_METRICS_SNAPSHOT environment variable (no-op when unset). Bench
/// binaries call this on exit so every BENCH_*.json gets a metrics sidecar.
void writeSnapshotIfRequested();

}  // namespace perftrack::obs
