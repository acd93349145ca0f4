// serve: an in-process PtServer (default config) over a WAL store built as
// ingest builds it (half the Table-1 mix), driven on loopback TCP by three
// client connections:
//
//   reader A  closed loop over a seeded mix of prepared point lookups on
//             performance_result by id, remote
//             QuerySession::totalMatchCount, and remote DIFF of two Frost
//             IRS runs, each kind taking about a third of its time;
//   reader B  closed loop of remote ptdf::exportExecution of Frost IRS runs
//             (the streamed `ptexport --connect` path);
//   writer    autocommit UPDATEs of result values, all inside one execution
//             that no checked read touches, open loop at a quarter of its
//             capacity.
//
// Remote callers have no local database, so pr-filter counts take the SQL
// path rather than the inverted-index fast path explore uses. Every remote
// answer is compared byte for byte with the local answer computed at
// set-up; the writer's values are read back at the end.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>

#include "common.h"
#include "core/query_session.h"
#include "dbal/remote.h"
#include "ptdf/export.h"
#include "server/server.h"
#include "sim/irs_gen.h"

namespace perfbench {

namespace {

constexpr DatasetShape kShape{/*irs=*/24, /*uv=*/3, /*bgl=*/24};
constexpr std::size_t kPointIds = 512;
constexpr std::size_t kCountQueries = 32;
constexpr std::size_t kDiffPairs = 16;
constexpr std::size_t kExports = 4;

// Reader A's mix follows one rule: each operation kind takes about a third
// of the reader's time. A change of x% in any one kind's latency then moves
// A's operation rate by about x/3%, whichever kind it is. The cycle is
// derived from the mean latency of each kind in this workload, measured on
// this tree (4-vCPU VM, default server config). Every run prints the shares
// it saw (mix_share_*), so a change that shifts them shows.
constexpr double kPointMeanMs = 0.165;
constexpr double kCountMeanMs = 0.84;
constexpr double kDiffMeanMs = 18.9;

// The writer runs open loop at a quarter of its capacity, one over the mean
// service time of its UPDATE (measured as above). At a quarter its queue
// stays stable even when the shared host slows the process 3x (0.75 < 1),
// and every one-second round still sees several commits. Every run prints
// the utilization it saw (writer_utilization).
constexpr double kWriteMeanMs = 17.8;
constexpr double kWriterUtilization = 0.25;
constexpr double kWritesPerSecond = kWriterUtilization * 1e3 / kWriteMeanMs;
constexpr const char* kPointSql = "SELECT value FROM performance_result WHERE id = ?";
constexpr const char* kWriteSql = "UPDATE performance_result SET value = ? WHERE id = ?";

enum class AOp : std::uint8_t { Point, Count, Diff };

struct Refs {
  std::vector<std::int64_t> point_ids;
  std::vector<double> point_values;
  std::vector<std::vector<core::ResourceFilter>> counts;
  std::vector<std::size_t> count_values;
  std::vector<core::diag::Request> diffs;
  std::vector<std::string> diff_texts;
  std::vector<std::string> exports;
  std::vector<std::string> export_texts;
  std::vector<std::int64_t> write_ids;  // the writer's execution
  std::vector<AOp> mix;                 // reader A's cycle
};

double writeValue(std::uint64_t seed, std::size_t k) {
  return static_cast<double>((seed * 1315423911ULL + k * 2654435761ULL) % 1000003) / 7.0;
}

std::size_t remoteCount(core::PTDataStore& store,
                        const std::vector<core::ResourceFilter>& families) {
  core::QuerySession session(store);
  for (const core::ResourceFilter& f : families) session.addFamily(f);
  return session.totalMatchCount();
}

std::string exportText(core::PTDataStore& store, const std::string& exec) {
  std::ostringstream out;
  ptdf::Writer writer(out);
  ptdf::exportExecution(store, exec, writer);
  return out.str();
}

/// Lets the main thread park every client at an operation boundary (or
/// between two exported lines) while it runs the calibration kernel on an
/// otherwise idle process.
class PauseGate {
 public:
  explicit PauseGate(int clients) : clients_(clients) {}
  PauseGate(const PauseGate&) = delete;
  PauseGate& operator=(const PauseGate&) = delete;

  /// Client side: parks while a pause is on; returns the seconds parked.
  double checkpoint() {
    if (!pausing_.load(std::memory_order_acquire)) return 0.0;
    std::unique_lock<std::mutex> lock(mu_);
    if (!paused_) return 0.0;
    Stopwatch sw;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !paused_; });
    --parked_;
    return sw.seconds();
  }
  /// Client side, on exit: a finished client never parks again.
  void leave() {
    std::lock_guard<std::mutex> lock(mu_);
    ++left_;
    cv_.notify_all();
  }
  /// Returns once every client is parked or gone.
  void pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    pausing_.store(true, std::memory_order_release);
    cv_.wait(lock, [&] { return parked_ + left_ == clients_; });
  }
  void resume() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    pausing_.store(false, std::memory_order_release);
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  int parked_ = 0;
  int left_ = 0;
  const int clients_;
  std::atomic<bool> pausing_{false};
};

/// What one client completed in one round (between two calibrations).
struct RoundTally {
  Samples fast_op_ms, slow_op_ms;
  double ops = 0.0;
  double lines = 0.0;
};

/// A client's rounds, indexed by the shared round counter.
class RoundLog {
 public:
  explicit RoundLog(const std::atomic<std::size_t>& round) : round_(&round) {}
  RoundTally& now() {
    const std::size_t k = round_->load(std::memory_order_acquire);
    if (rounds_.size() <= k) rounds_.resize(k + 1);
    return rounds_[k];
  }
  const std::vector<RoundTally>& rounds() const { return rounds_; }

 private:
  const std::atomic<std::size_t>* round_;
  std::vector<RoundTally> rounds_;
};

/// Collects exported text and calls `on_lines(n)` whenever n lines have
/// been written; the callback returns seconds the client spent parked.
class LineTally : public std::streambuf {
 public:
  explicit LineTally(std::function<double(std::size_t)> on_lines)
      : on_lines_(std::move(on_lines)) {}
  const std::string& text() const { return text_; }
  double parkedSeconds() const { return parked_s_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      append(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    append(s, n);
    return n;
  }

 private:
  void append(const char* s, std::streamsize n) {
    text_.append(s, static_cast<std::size_t>(n));
    const auto lines = std::count(s, s + n, '\n');
    if (lines > 0) parked_s_ += on_lines_(static_cast<std::size_t>(lines));
  }

  std::function<double(std::size_t)> on_lines_;
  std::string text_;
  double parked_s_ = 0.0;
};

Refs makeRefs(std::uint64_t seed, const Dataset& ds, Store& s) {
  Rng rng(seed * 104729 + 3);
  Refs refs;
  const std::size_t w = rng.below(ds.irs_execs.size());
  const std::string& writer_exec = ds.irs_execs[w];
  refs.write_ids = s.store->resultsForExecution(writer_exec);

  std::vector<std::string> irs;
  for (const std::string& e : ds.irs_execs) {
    if (e != writer_exec) irs.push_back(e);
  }

  // Result ids run 1..N in load order; the writer's execution is one
  // contiguous range, which point lookups skip.
  const auto [w_lo, w_hi] = std::minmax_element(refs.write_ids.begin(), refs.write_ids.end());
  const std::int64_t lo = *w_lo, hi = *w_hi;
  while (refs.point_ids.size() < kPointIds) {
    const auto id = static_cast<std::int64_t>(1 + rng.below(ds.results));
    if (id >= lo && id <= hi) continue;
    const minidb::Value v = s.conn->queryValue(kPointSql, {minidb::Value(id)});
    if (v.isNull()) continue;
    refs.point_ids.push_back(id);
    refs.point_values.push_back(v.asReal());
  }

  const std::vector<std::string>& fns = sim::irsFunctionNames();
  for (std::size_t i = 0; i < kCountQueries; ++i) {
    std::string fn = fns[rng.below(fns.size())];
    fn = "/IRS-1.4/" + fn.replace(fn.find(':'), 1, "/");
    std::vector<core::ResourceFilter> families = {
        core::ResourceFilter::byName(fn, core::Expansion::None),
        core::ResourceFilter::byName("/" + irs[rng.below(irs.size())],
                                     core::Expansion::Descendants)};
    refs.count_values.push_back(remoteCount(*s.store, families));
    refs.counts.push_back(std::move(families));
  }

  // DIFFs and exports use Frost runs (even indices of the IRS list), so
  // every pair aligns the same contexts and every export is the same size.
  std::vector<std::string> frost;
  for (std::size_t i = 0; i < ds.irs_execs.size(); i += 2) {
    if (ds.irs_execs[i] != writer_exec) frost.push_back(ds.irs_execs[i]);
  }
  for (std::size_t i = 0; i < kDiffPairs; ++i) {
    const std::size_t a = rng.below(frost.size());
    std::size_t b = rng.below(frost.size() - 1);
    if (b >= a) ++b;
    core::diag::Request req;
    req.exec_a = frost[a];
    req.exec_b = frost[b];
    req.top_k = 10;
    refs.diff_texts.push_back(s.conn->diff(req).toText());
    refs.diffs.push_back(std::move(req));
  }
  for (std::size_t i = 0; i < kExports; ++i) {
    refs.exports.push_back(frost[rng.below(frost.size())]);
    refs.export_texts.push_back(exportText(*s.store, refs.exports.back()));
  }

  // One cycle: one DIFF, and as many counts and as many point lookups as
  // take the same time.
  refs.mix.assign(static_cast<std::size_t>(std::lround(kDiffMeanMs / kPointMeanMs)), AOp::Point);
  refs.mix.insert(refs.mix.end(), static_cast<std::size_t>(std::lround(kDiffMeanMs / kCountMeanMs)),
                  AOp::Count);
  refs.mix.push_back(AOp::Diff);
  for (std::size_t i = refs.mix.size(); i > 1; --i) {
    std::swap(refs.mix[i - 1], refs.mix[rng.below(i)]);
  }
  return refs;
}

/// Per-thread tallies, merged into the RunResult after the join.
struct Tally {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// One remote client: a connection plus a PTDataStore over it.
struct Client {
  std::unique_ptr<dbal::Connection> conn;
  std::unique_ptr<core::PTDataStore> store;

  explicit Client(const std::string& url)
      : conn(dbal::Connection::open(url)),
        store(std::make_unique<core::PTDataStore>(*conn)) {}
};

bool samePointValue(const minidb::Value& got, double want) {
  return !got.isNull() && got.asReal() == want;
}

// The client operations. Each is checked against the set-up reference; a
// wrong answer is recorded in `tally`.
void pointOp(Client& c, const Refs& refs, std::size_t k, Samples* ms, Tally& tally) {
  const std::size_t i = k % refs.point_ids.size();
  ++tally.attempted;
  Stopwatch sw;
  const minidb::Value v = c.conn->queryValue(kPointSql, {minidb::Value(refs.point_ids[i])});
  if (ms != nullptr) ms->add(sw.millis());
  if (!samePointValue(v, refs.point_values[i])) {
    tally.fail("point id " + std::to_string(refs.point_ids[i]) + " differs from local");
  }
}

void countOp(Client& c, const Refs& refs, std::size_t k, Samples* ms, Tally& tally) {
  const std::size_t i = k % refs.counts.size();
  ++tally.attempted;
  Stopwatch sw;
  const std::size_t n = remoteCount(*c.store, refs.counts[i]);
  if (ms != nullptr) ms->add(sw.millis());
  if (n != refs.count_values[i]) tally.fail("count " + std::to_string(i) + " differs from local");
}

core::diag::Stats diffOp(Client& c, const Refs& refs, std::size_t k, Samples* ms,
                         Tally& tally) {
  const std::size_t i = k % refs.diffs.size();
  ++tally.attempted;
  Stopwatch sw;
  const core::diag::Report report = c.conn->diff(refs.diffs[i]);
  if (ms != nullptr) ms->add(sw.millis());
  if (report.toText() != refs.diff_texts[i]) {
    tally.fail("diff " + std::to_string(i) + " differs from local");
  }
  return report.stats;
}

/// `on_lines` sees the export's progress line by line (see LineTally); time
/// the client spends parked there is not counted.
std::size_t exportOp(Client& c, const Refs& refs, std::size_t k, Samples* ms, Tally& tally,
                     std::function<double(std::size_t)> on_lines) {
  const std::size_t i = k % refs.exports.size();
  ++tally.attempted;
  LineTally buf(std::move(on_lines));
  std::ostream out(&buf);
  ptdf::Writer writer(out);
  Stopwatch sw;
  ptdf::exportExecution(*c.store, refs.exports[i], writer);
  if (ms != nullptr) ms->add(sw.millis() - buf.parkedSeconds() * 1e3);
  const std::size_t lines = writer.linesWritten();
  const std::string& text = buf.text();
  if (text != refs.export_texts[i]) {
    tally.fail("export of " + refs.exports[i] + " differs from local");
  }
  return lines;
}

void writeOp(Client& c, const Refs& refs, std::uint64_t seed, std::size_t k, Samples* ms,
             Tally& tally) {
  ++tally.attempted;
  Stopwatch sw;
  c.conn->execPrepared(kWriteSql, {minidb::Value(writeValue(seed, k)),
                                   minidb::Value(refs.write_ids[k % refs.write_ids.size()])});
  if (ms != nullptr) ms->add(sw.millis());
}

/// Reads back the last value written to each of the writer's rows.
void checkWrites(Client& c, const Refs& refs, std::uint64_t seed, std::size_t writes,
                 Tally& tally) {
  const std::size_t n = refs.write_ids.size();
  const std::size_t last = std::min({writes, n, std::size_t{64}});
  for (std::size_t back = 1; back <= last; ++back) {
    const std::size_t k = writes - back;
    const minidb::Value v =
        c.conn->queryValue(kPointSql, {minidb::Value(refs.write_ids[k % n])});
    if (!samePointValue(v, writeValue(seed, k))) {
      tally.fail("written row " + std::to_string(refs.write_ids[k % n]) + " lost its value");
    }
  }
}

struct Setup {
  Dataset ds;
  Store store;
  Refs refs;
  std::unique_ptr<server::PtServer> srv;
  std::string url;

  ~Setup() {
    if (srv) srv->stop();
  }
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

std::unique_ptr<Setup> setUp(const Options& opt) {
  auto su = std::make_unique<Setup>();
  su->ds = generateDataset(opt.seed, kShape, opt.workdir / "data");
  su->store = buildStore(opt.workdir / "serve.db", su->ds);
  su->refs = makeRefs(opt.seed, su->ds, su->store);
  server::ServerConfig config;  // defaults, on a kernel-assigned port
  su->srv = std::make_unique<server::PtServer>(su->store.conn->database(), config);
  su->srv->start();
  su->url = "pt://127.0.0.1:" + std::to_string(su->srv->boundPort());
  return su;
}

void merge(RunResult& r, const Tally& t) {
  r.attempted += t.attempted;
  for (const std::string& f : t.failures) r.fail(f);
}

/// Runs `fn`, turning an exception into a recorded failure.
template <typename Fn>
void guarded(Tally& tally, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    tally.fail(std::string("serve: ") + e.what());
  }
}

}  // namespace

RunResult runServe(const Options& opt) {
  RunResult r;
  Headline h;
  Calibrator setup_cal;
  std::unique_ptr<Setup> su;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    su.reset();  // stops the previous server and closes its store
    h.setup_s.add(calibratedSeconds(setup_cal, [&] { su = setUp(opt); }));
  }
  const Refs& refs = su->refs;
  const server::ServerConfig defaults;
  {
    // The local connection is idle from here on: the server owns the store.
    const core::StoreStats stats = su->store.store->stats();
    r.settings = {{"durability_wal", 1.0},
                  {"server_workers", static_cast<double>(defaults.workers)},
                  {"clients", 3.0},
                  {"store_results", static_cast<double>(stats.performance_results)},
                  {"store_executions", static_cast<double>(stats.executions)}};
  }

  if (!opt.trace) {
    // The run is cut into one-second rounds. Between rounds every client
    // parks and the calibration kernel runs; a round's times are scaled by
    // the mean of the kernel times at its two ends.
    constexpr int kClients = 3;
    const auto n_rounds = static_cast<std::size_t>(std::max(1.0, std::round(opt.seconds)));
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> round{0};
    PauseGate gate(kClients);
    Samples point_ms, count_ms, diff_ms, export_ms, write_ms, write_service_ms;
    std::size_t export_lines = 0, writes = 0;
    Tally ta, tb, tw;
    RoundLog la(round), lb(round), lw(round);
    struct Leave {
      PauseGate& gate;
      ~Leave() { gate.leave(); }
    };
    std::thread reader_a([&] {
      const Leave leave{gate};
      guarded(ta, [&] {
        Client c(su->url);
        std::size_t np = 0, nc = 0, nd = 0;
        Samples one;
        for (std::size_t k = 0; !stop.load(); ++k) {
          one = Samples();
          switch (refs.mix[k % refs.mix.size()]) {
            case AOp::Point:
              pointOp(c, refs, np++, &one, ta);
              point_ms.append(one);
              la.now().fast_op_ms.append(one);
              break;
            case AOp::Count:
              countOp(c, refs, nc++, &count_ms, ta);
              break;
            case AOp::Diff:
              diffOp(c, refs, nd++, &one, ta);
              diff_ms.append(one);
              la.now().slow_op_ms.append(one);
              break;
          }
          la.now().ops += 1;
          gate.checkpoint();
        }
      });
    });
    std::thread reader_b([&] {
      const Leave leave{gate};
      guarded(tb, [&] {
        Client c(su->url);
        for (std::size_t k = 0; !stop.load(); ++k) {
          export_lines += exportOp(c, refs, k, &export_ms, tb, [&](std::size_t n) {
            lb.now().lines += static_cast<double>(n);
            return gate.checkpoint();
          });
          lb.now().ops += 1;
          gate.checkpoint();
        }
      });
    });
    std::thread writer([&] {
      // Open loop at kWritesPerSecond: each write's latency runs from when
      // it was due, so a stalled write also charges the ones queued behind.
      const Leave leave{gate};
      guarded(tw, [&] {
        Client c(su->url);
        const auto period = std::chrono::duration<double>(1.0 / kWritesPerSecond);
        auto due = std::chrono::steady_clock::now();
        for (; !stop.load(); ++writes) {
          std::this_thread::sleep_until(due);
          const double late_ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - due)
                  .count();
          Samples one;
          writeOp(c, refs, opt.seed, writes, &one, tw);
          write_ms.add(late_ms + one.sum());
          write_service_ms.append(one);
          lw.now().ops += 1;
          // Time parked at the gate is not the writer's lateness.
          const double parked_s = gate.checkpoint();
          due += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              period + std::chrono::duration<double>(parked_s));
        }
      });
    });
    Calibrator cal;
    std::vector<double> kernel_ms, active_s;
    gate.pause();
    cal.measure();
    kernel_ms.push_back(cal.kernelMs());
    for (std::size_t k = 0; k < n_rounds; ++k) {
      Stopwatch active;
      gate.resume();
      std::this_thread::sleep_for(std::chrono::seconds(1));
      gate.pause();
      active_s.push_back(active.seconds());
      cal.measure();
      kernel_ms.push_back(cal.kernelMs());
      round.store(k + 1, std::memory_order_release);
    }
    stop = true;
    gate.resume();
    reader_a.join();
    reader_b.join();
    writer.join();
    guarded(tw, [&] {
      Client c(su->url);
      checkWrites(c, refs, opt.seed, writes, tw);
    });
    merge(r, ta);
    merge(r, tb);
    merge(r, tw);

    // Latencies and exported lines pool over rounds (an export spans several
    // rounds, and its line rate changes from phase to phase); the operation
    // rate is the median round's, so one round the kernel misjudged cannot
    // move it.
    Samples ops_rate;
    for (std::size_t k = 0; k < n_rounds; ++k) {
      const double scale = kReferenceKernelMs / ((kernel_ms[k] + kernel_ms[k + 1]) / 2.0);
      double ops = 0.0;
      for (const RoundLog* log : {&la, &lb, &lw}) {
        if (k >= log->rounds().size()) continue;
        const RoundTally& t = log->rounds()[k];
        h.fast_op_ms.append(t.fast_op_ms.scaled(scale));
        h.slow_op_ms.append(t.slow_op_ms.scaled(scale));
        ops += t.ops;
        h.rows += t.lines;
      }
      ops_rate.add(ops / (active_s[k] * scale));
      h.rows_s += active_s[k] * scale;
    }
    h.ops = ops_rate.median();
    h.ops_s = 1.0;

    const double export_s = export_ms.sum() / 1e3;
    addPercentiles(r.detail, "point_us", point_ms.scaled(1e3), "us");
    addPercentiles(r.detail, "count_us", count_ms.scaled(1e3), "us");
    r.detail.push_back({"diff_ms_p50", diff_ms.median(), "ms", diff_ms.count()});
    r.detail.push_back({"export_lines_per_s", export_s > 0 ? export_lines / export_s : 0.0,
                        "1/s", export_ms.count()});
    r.detail.push_back({"write_ms_p50", write_ms.median(), "ms", write_ms.count()});
    // What the mix and write-rate rules (see kPointMeanMs) produced.
    const double a_ms = point_ms.sum() + count_ms.sum() + diff_ms.sum();
    const std::pair<const char*, const Samples*> shares[] = {
        {"mix_share_point", &point_ms}, {"mix_share_count", &count_ms}, {"mix_share_diff", &diff_ms}};
    for (const auto& [name, s] : shares) {
      r.detail.push_back({name, a_ms > 0 ? s->sum() / a_ms : 0.0, "ratio", s->count()});
    }
    double active_total_s = 0.0;
    for (const double s : active_s) active_total_s += s;
    r.detail.push_back({"writer_utilization",
                        active_total_s > 0 ? write_service_ms.sum() / 1e3 / active_total_s : 0.0,
                        "ratio", write_service_ms.count()});
    r.headline = headlineMetrics(h);
  } else {
    // Traced pass: one client, the same operations in blocks, so frame and
    // WAL counts per operation repeat exactly at a fixed seed.
    constexpr std::size_t kPoints = 200, kCounts = 24, kDiffs = 8, kWrites = 30;
    std::map<std::string, Samples> acc;
    double untraced_s = 0.0, traced_s = 0.0;
    std::size_t rounds = 0, writes = 0;
    Tally tally;
    Client c(su->url);
    const server::ServerCounters& counters = su->srv->counters();
    Stopwatch budget;
    while (rounds == 0 || budget.seconds() < opt.seconds) {
      const std::size_t base = rounds;
      auto round = [&](TraceCollector* tc, std::map<std::string, double>* out) {
        Samples point_ms, count_ms, diff_ms, export_ms, write_ms;
        std::vector<core::diag::Stats> diag_stats;
        std::size_t lines = 0;
        std::map<Op, double> frames;
        const RegistrySnapshot before = RegistrySnapshot::take();
        const std::uint64_t busy_before = counters.busy_rejections.load();
        RegistrySnapshot write_before, write_after;
        auto block = [&](Op op, std::size_t n, auto&& fn) {
          if (tc != nullptr) tc->setOp(op);
          if (op == Op::Write) write_before = RegistrySnapshot::take();
          const std::uint64_t f0 = counters.frames_served.load();
          for (std::size_t k = 0; k < n; ++k) guarded(tally, [&] { fn(k); });
          frames[op] = static_cast<double>(counters.frames_served.load() - f0);
          if (op == Op::Write) write_after = RegistrySnapshot::take();
          // Server-side spans can land just after the reply; let them.
          if (tc != nullptr) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        };
        block(Op::Point, kPoints,
              [&](std::size_t k) { pointOp(c, refs, base * kPoints + k, &point_ms, tally); });
        block(Op::Count, kCounts,
              [&](std::size_t k) { countOp(c, refs, base * kCounts + k, &count_ms, tally); });
        block(Op::Diff, kDiffs, [&](std::size_t k) {
          diag_stats.push_back(diffOp(c, refs, base * kDiffs + k, &diff_ms, tally));
        });
        block(Op::Export, 1,
              [&](std::size_t) {
                // Drain the tracer from the exporting thread, line by line:
                // one export issues thousands of statements.
                lines += exportOp(c, refs, base, &export_ms, tally, [&](std::size_t) {
                  if (tc != nullptr) tc->drainIfNeeded();
                  return 0.0;
                });
              });
        block(Op::Write, kWrites,
              [&](std::size_t) { writeOp(c, refs, opt.seed, writes++, &write_ms, tally); });
        if (tc != nullptr) tc->setOp(Op::None);
        const RegistrySnapshot after = RegistrySnapshot::take();
        const double busy_s = (point_ms.sum() + count_ms.sum() + diff_ms.sum() +
                               export_ms.sum() + write_ms.sum()) / 1e3;
        if (out == nullptr) return busy_s;

        auto& m = *out;
        m["server.frames_per_op.point"] = frames[Op::Point] / kPoints;
        m["server.frames_per_op.count"] = frames[Op::Count] / kCounts;
        m["server.frames_per_op.diff"] = frames[Op::Diff] / kDiffs;
        m["server.frames_per_op.export_line"] = lines > 0 ? frames[Op::Export] / lines : 0.0;
        m["server.busy_rejections"] =
            static_cast<double>(counters.busy_rejections.load() - busy_before);
        addCommitLayers(m, write_before, write_after, kWrites);
        const double commit_n = write_after.delta(write_before, "pt_pager_commit_ms_count");
        if (commit_n > 0) {
          m["pager.commit_ms"] =
              write_after.delta(write_before, "pt_pager_commit_ms_sum") / commit_n;
        }
        std::uint64_t rows_streamed = 0;
        const std::map<Op, double> ops = {{Op::Point, kPoints}, {Op::Count, kCounts},
                                          {Op::Diff, kDiffs},   {Op::Export, 1.0},
                                          {Op::Write, kWrites}};
        for (const auto& [op, n] : ops) {
          const SqlTotals sql = tc->local(op);
          rows_streamed += sql.rows;
          addSqlLayer(m, op, sql, n);
        }
        m["core.count_self_us"] =
            (count_ms.sum() * 1e3 - tc->local(Op::Count).totalUs()) / kCounts;
        const double returned = kPoints + kCounts + lines + kWrites;
        m["sql.rows_streamed_per_result"] = rows_streamed / returned;
        addRegistryLayers(m, before, after, kPoints + kCounts + kDiffs + 1 + kWrites);
        Samples diff_us, aligned;
        for (const core::diag::Stats& st : diag_stats) {
          diff_us.add(static_cast<double>(st.diff_us));
          aligned.add(static_cast<double>(st.aligned));
        }
        m["diag.diff_us"] = diff_us.mean();
        m["diag.pairs_aligned_per_diff"] = aligned.mean();
        m["trace.lost_records"] = static_cast<double>(tc->lost());
        return busy_s;
      };
      untraced_s += round(nullptr, nullptr);
      std::map<std::string, double> m;
      {
        TraceCollector tc;
        traced_s += round(&tc, &m);
      }
      for (const auto& [name, v] : m) acc[name].add(v);
      ++rounds;
    }
    guarded(tally, [&] { checkWrites(c, refs, opt.seed, writes, tally); });
    merge(r, tally);
    std::map<std::string, double> layers;
    for (const auto& [name, s] : acc) layers[name] = s.median();
    layers["trace_overhead_pct"] =
        untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0;
    r.layers = layerMetrics(layers);
    r.settings.emplace_back("trace_rounds", static_cast<double>(rounds));
  }
  r.detail.push_back({"setup_s", h.setup_s.median(), "s", h.setup_s.count()});
  r.detail.push_back({"error_ratio",
                      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
                      "ratio", r.attempted});
  return r;
}

}  // namespace perfbench
