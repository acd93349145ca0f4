// perfbench: shared pieces of the three workloads.
//
// Every workload follows the same shape: build its inputs from the seed
// (set-up, repeated and reported as a median), run a closed loop for the
// requested number of seconds while checking every answer, and report
//   * headline metrics: the end-to-end names BENCHMARK.json gates on, which
//     every workload defines over its own operations;
//   * detail metrics: the workload's own end-to-end names (results_per_s,
//     point_us_p99, ...), printed with units and sample counts;
//   * layer metrics (traced pass only): per-module numbers taken by timing
//     calls into each module and reading obs::Registry / obs::Tracer deltas.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/datastore.h"
#include "dbal/connection.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace perftrack;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;  // scratch space for generated inputs and stores
  fs::path out;      // where the flat BENCH_perfbench_<workload>.json goes
};

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Samples of one quantity (latencies of one operation kind).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  /// Every sample multiplied by `k` (unit conversion).
  Samples scaled(double k) const {
    Samples s;
    for (const double v : values_) s.add(v * k);
    return s;
  }
  std::size_t count() const { return values_.size(); }
  double sum() const;
  double mean() const { return values_.empty() ? 0.0 : sum() / values_.size(); }
  /// Nearest-rank quantile, q in (0, 1]. 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled quantity
};

/// Adds `<base>_p50` and the highest percentile that has at least ten
/// samples beyond it (p99 from 1000 samples, p90 from 100) to `out`.
void addPercentiles(std::vector<Metric>& out, const std::string& base,
                    const Samples& s, const std::string& unit);

/// What one workload run produced.
struct RunResult {
  std::vector<Metric> headline;  // BENCHMARK.json end_to_end names
  std::vector<Metric> detail;    // the workload's own end-to-end names
  std::vector<Metric> layers;    // traced pass
  std::vector<std::pair<std::string, double>> settings;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few failure descriptions

  void fail(const std::string& what);
};

/// Machine-speed calibration: a fixed CPU kernel (sort, open-addressing hash
/// table, number formatting) that uses none of the code under test. The
/// shared CPUs this benchmark runs on slow down by up to 3x for seconds at a
/// time when other tenants are busy, which moved plain medians by 20% from
/// run to run. The kernel's time, measured while the workload is idle,
/// tracks that speed, so every headline time is scaled to what it would read
/// with the kernel at kReferenceKernelMs ("calibrated ms"), about what the
/// kernel takes on a quiet 4-vCPU VM. It has no memory-bandwidth part: over
/// 0.5 s windows of explore, the time of a 32 MiB copy followed the DIFF's
/// far less (correlation 0.16-0.37) than the sort, hash and format parts
/// did (0.57-0.72).
///
/// The kernel works in buffers allocated once, so it never calls the
/// allocator the program links, and a change to allocation does not move it.
/// It still shares the process's caches (its buffers take about 1.5 MiB),
/// so the single-client workloads drop the operation that follows each
/// measurement from their headline samples. What the kernel cannot separate
/// is a change that slows the machine as a whole (more threads competing
/// for the same cores while the workload is idle); such a change is partly
/// divided out.
inline constexpr double kReferenceKernelMs = 7.0;

class Calibrator {
 public:
  /// Measures now (best of three kernel runs).
  void measure();
  /// Measures when the last measurement is older than `every_s` seconds;
  /// returns whether it did (the next operation runs on a cold cache).
  bool maybeMeasure(double every_s) {
    if (measured_ && since_.seconds() < every_s) return false;
    measure();
    return true;
  }
  /// Kernel time of the last measurement, ms.
  double kernelMs() const { return kernel_ms_; }
  /// Multiplier taking a time measured now to calibrated units.
  double scale() const { return kReferenceKernelMs / kernel_ms_; }

 private:
  Stopwatch since_;
  double kernel_ms_ = kReferenceKernelMs;
  bool measured_ = false;
};

/// Runs `fn` between two calibrations; returns its calibrated seconds.
template <typename Fn>
double calibratedSeconds(Calibrator& cal, Fn&& fn) {
  cal.measure();
  const double before = cal.kernelMs();
  Stopwatch sw;
  fn();
  const double s = sw.seconds();
  cal.measure();
  return s * kReferenceKernelMs / ((before + cal.kernelMs()) / 2.0);
}

/// The headline set every workload reports, in calibrated units.
struct Headline {
  Samples setup_s;     // one per set-up repetition; reported as the median
  Samples fast_op_ms;  // the workload's lightest, most frequent operation
  Samples slow_op_ms;  // its heaviest checked operation
  double ops = 0.0;    // operations completed ...
  double ops_s = 0.0;  // ... in this many seconds (one client: their sum)
  double rows = 0.0;   // bulk rows moved (results loaded, rows returned, lines)
  double rows_s = 0.0;
};
std::vector<Metric> headlineMetrics(const Headline& h);

/// Every per-layer metric name with its unit, in report order. A workload
/// that bypasses a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layerCatalog();
/// Turns a name -> value map into the catalog-ordered metric list.
std::vector<Metric> layerMetrics(const std::map<std::string, double>& values);

// --- inputs --------------------------------------------------------------

enum class FileKind { Irs, SmgUv, SmgBgl };

struct DatasetFile {
  fs::path path;
  FileKind kind = FileKind::Irs;
  std::string exec;
  std::size_t results = 0;  // PerfResult records the converter emitted
};

/// Executions per Table-1 dataset.
struct DatasetShape {
  int irs = 0;  // IRS, 16 procs, alternating Frost / MCR
  int uv = 0;   // SMG2000 on UV, 128 procs, mpiP + PMAPI
  int bgl = 0;  // SMG2000 on BG/L, 512 procs, standard output only
};

struct Dataset {
  std::vector<DatasetFile> files;  // load order
  std::size_t results = 0;
  std::vector<std::string> irs_execs;  // Frost at even indices, MCR at odd
};

/// Generates raw runs with the simulators and converts each to one PTdf
/// file under `dir` (replaced). Same seed, same files.
Dataset generateDataset(std::uint64_t seed, const DatasetShape& shape, const fs::path& dir);

/// A file-backed store opened with Durability::Wal.
struct Store {
  std::unique_ptr<dbal::Connection> conn;
  std::unique_ptr<core::PTDataStore> store;
};

/// Removes the db and its WAL/journal sidecars.
void removeStore(const fs::path& path);
/// db + WAL + journal bytes on disk.
std::uint64_t storeBytes(const fs::path& path);
/// Creates a fresh WAL store at `path` with the schema initialized.
Store createStore(const fs::path& path);
/// Time in the two halves of one file transaction.
struct TxnTimes {
  double load_ms = 0.0;    // ptdf::loadFile
  double commit_ms = 0.0;  // Connection::commit
};
/// Loads one file in its own transaction (begin -> loadFile -> commit).
TxnTimes loadFileTxn(Store& s, const DatasetFile& file);
/// Builds a fresh store holding the whole dataset.
Store buildStore(const fs::path& path, const Dataset& ds);
/// verifyStore() plus result/execution counts against the dataset; returns
/// problems (empty = correct).
std::vector<std::string> checkStore(Store& s, const Dataset& ds);

/// Seeded pseudo-random stream (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 3;

// --- layer accounting ------------------------------------------------------

/// Snapshot of the obs::Registry counters and histogram sums the layer
/// metrics are computed from.
struct RegistrySnapshot {
  std::map<std::string, double> v;
  static RegistrySnapshot take();
  /// this - earlier, per name.
  double delta(const RegistrySnapshot& earlier, const std::string& name) const;
};

/// Operation kinds the traced pass attributes SQL time to.
enum class Op { None, File, Count, Run, Diff, Point, Export, Write };
inline constexpr std::size_t kOpCount = 8;

/// Per-stage SQL totals summed from obs::Tracer records.
struct SqlTotals {
  double parse_us = 0, plan_us = 0, bind_us = 0, exec_us = 0;
  std::uint64_t statements = 0;
  std::uint64_t rows = 0;
  double totalUs() const { return parse_us + plan_us + bind_us + exec_us; }
};

/// Collects every obs::Tracer record while alive: turns on always-sample,
/// and a poller thread drains the 256-entry ring before it can wrap. Records
/// are attributed to the operation kind set by setOp(). Only statements the
/// engine ran (in process or server-side) are summed; the client-side spans
/// of remote calls (remote == true) would count the same statement twice.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Drains what is pending into the current kind, then switches.
  void setOp(Op op);
  /// Drains when `threshold` records are pending. Producers that issue
  /// thousands of statements in one call use this from a progress hook.
  void drainIfNeeded(std::uint64_t threshold = 64);
  SqlTotals local(Op op);
  /// Records that the ring overwrote before they were drained.
  std::uint64_t lost();

 private:
  void drainLocked();
  void pollLoop();

  std::mutex mu_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t recorded_at_start_ = 0;
  Op op_ = Op::None;
  std::array<SqlTotals, kOpCount> local_{};
  std::atomic<std::uint64_t> drained_count_{0};
  std::atomic<bool> stop_{false};
  std::thread poller_;  // last: uses every member above
};

/// Statement-cache hit ratio, invidx probes and fallbacks per operation,
/// invidx builds and build time, and WAL checkpoints between two snapshots
/// taken around `ops` operations.
void addRegistryLayers(std::map<std::string, double>& layers, const RegistrySnapshot& before,
                       const RegistrySnapshot& after, double ops);
/// WAL fsyncs and frames per commit and disk page writes per written result
/// between two snapshots taken around commits that wrote `results` results.
void addCommitLayers(std::map<std::string, double>& layers, const RegistrySnapshot& before,
                     const RegistrySnapshot& after, double results);
/// Adds the four sql.<stage>_us.<op> means and sql.statements.<op> for one
/// operation kind over `ops` operations.
void addSqlLayer(std::map<std::string, double>& layers, Op op, const SqlTotals& t,
                 double ops);

// --- output ------------------------------------------------------------------

/// Prints the report, writes the flat JSON file, and prints the final JSON
/// line. Returns the process exit code.
int emit(const Options& opt, const RunResult& r);

RunResult runIngest(const Options& opt);
RunResult runExplore(const Options& opt);
RunResult runServe(const Options& opt);

}  // namespace perfbench
