// ingest: the Table-1 load mix, one PTdf file per transaction, into fresh
// file-backed WAL stores. Single thread, closed loop.
//
// Set-up generates the PTdf files. Each measured pass creates a store,
// loads every file (begin -> ptdf::loadFile -> commit, as ptdfload does),
// and closes it; passes repeat until the time budget is spent. The first
// pass is checked with verifyStore() and against the generator's counts.
#include <fstream>
#include <functional>
#include <sstream>

#include "common.h"
#include "ptdf/ptdf.h"

namespace perfbench {

namespace {

constexpr DatasetShape kShape{/*irs=*/48, /*uv=*/6, /*bgl=*/48};

struct PassTimes {
  Samples file_ms;          // per file transaction, as measured
  Samples load_ms;          // its ptdf::loadFile part
  Samples commit_ms;        // its Connection::commit part
  Samples commit_cal_ms;    // the same in calibrated ms, headline files only
  double load_s = 0.0;      // sum of the per-file transactions
  std::size_t results = 0;
  std::uint64_t bytes = 0;  // db + WAL after close
};

/// One pass: fresh store, every file in its own transaction, close.
/// `check` runs the store checks before closing. With `h` set, the
/// calibration kernel runs between files and calibrated times feed the
/// headline; the file loaded right after a kernel run (cold cache) is left
/// out of it.
PassTimes loadPass(const Options& opt, const Dataset& ds, RunResult& r, bool check,
                   Calibrator& cal, Headline* h) {
  PassTimes t;
  const fs::path db = opt.workdir / "ingest.db";
  removeStore(db);
  {
    Store s = createStore(db);
    for (const DatasetFile& f : ds.files) {
      ++r.attempted;
      const bool cold = h != nullptr && cal.maybeMeasure(0.5);
      Stopwatch op;
      TxnTimes txn;
      try {
        txn = loadFileTxn(s, f);
      } catch (const std::exception& e) {
        r.fail(f.path.filename().string() + ": " + e.what());
        continue;
      }
      const double ms = op.millis();
      t.file_ms.add(ms);
      t.load_ms.add(txn.load_ms);
      t.commit_ms.add(txn.commit_ms);
      t.load_s += ms / 1e3;
      t.results += f.results;
      if (h == nullptr || cold) continue;
      const double k = cal.scale();
      if (f.kind == FileKind::SmgBgl) h->fast_op_ms.add(ms * k);
      if (f.kind == FileKind::SmgUv) h->slow_op_ms.add(ms * k);
      t.commit_cal_ms.add(txn.commit_ms * k);
      h->rows += static_cast<double>(f.results);
      h->rows_s += ms * k / 1e3;
    }
    if (check) {
      for (const std::string& p : checkStore(s, ds)) r.fail("ingest: " + p);
    }
  }
  t.bytes = storeBytes(db);
  removeStore(db);
  return t;
}

/// The parse-only half of ptdf::load over one file: read the lines, split
/// the fields, and parse the resource-set expressions of result records.
double parseOnlyMs(const DatasetFile& f) {
  Stopwatch sw;
  std::ifstream in(f.path);
  std::string line;
  std::size_t sets = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = ptdf::splitFields(line);
    if (fields.size() > 2 && (fields[0] == "PerfResult" || fields[0] == "PerfHistogram")) {
      sets += ptdf::parseResourceSets(fields[2]).size();
    }
  }
  const double ms = sw.millis();
  if (sets == 0 && f.results > 0) throw std::runtime_error("parse-only pass found no results");
  return ms;
}

/// Serves a file to ptdf::load one line at a time and calls `hook` before
/// each line, so the tracer can be drained from the loading thread: one
/// file issues thousands of statements, the tracer's ring holds 256.
class LineFeed : public std::streambuf {
 public:
  LineFeed(const fs::path& path, std::function<void()> hook) : hook_(std::move(hook)) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    text_ = all.str();
  }

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    hook_();
    const std::size_t nl = text_.find('\n', pos_);
    const std::size_t end = nl == std::string::npos ? text_.size() : nl + 1;
    char* base = text_.data();
    setg(base + pos_, base + pos_, base + end);
    pos_ = end;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::function<void()> hook_;
  std::string text_;
  std::size_t pos_ = 0;
};

/// Traced pass: SQL stages from the tracer, pager/WAL/cache/invidx counters
/// from registry deltas. Its times carry the tracer's own cost, so layer
/// times come from the untraced pass instead.
std::map<std::string, double> tracedPass(const Options& opt, const Dataset& ds,
                                         RunResult& r, double& traced_s) {
  const fs::path db = opt.workdir / "ingest.db";
  std::map<std::string, double> m;
  double results = 0.0;
  TraceCollector tc;
  {
    Store s = createStore(db);
    tc.setOp(Op::File);
    const RegistrySnapshot before = RegistrySnapshot::take();
    for (const DatasetFile& f : ds.files) {
      ++r.attempted;
      Stopwatch op;
      try {
        s.conn->begin();
        LineFeed feed(f.path, [&] { tc.drainIfNeeded(); });
        std::istream in(&feed);
        ptdf::load(*s.store, in);
        s.conn->commit();
      } catch (const std::exception& e) {
        r.fail(f.path.filename().string() + ": " + e.what());
        if (s.conn->inTransaction()) s.conn->rollback();
        s.store->clearCache();
        continue;
      }
      traced_s += op.seconds();
      results += static_cast<double>(f.results);
    }
    const RegistrySnapshot after = RegistrySnapshot::take();
    const double files = static_cast<double>(ds.files.size());
    const SqlTotals sql = tc.local(Op::File);
    addSqlLayer(m, Op::File, sql, files);
    addRegistryLayers(m, before, after, files);
    addCommitLayers(m, before, after, results);
    if (results > 0) m["sql.rows_streamed_per_result"] = static_cast<double>(sql.rows) / results;
    m["trace.lost_records"] = static_cast<double>(tc.lost());
  }
  removeStore(db);
  return m;
}

}  // namespace

RunResult runIngest(const Options& opt) {
  RunResult r;
  Headline h;
  Calibrator cal;
  Dataset ds;
  // Generation is short (~0.5 s) and file-system bound, so it gets more
  // repetitions than the store-building set-ups of explore and serve.
  for (int rep = 0; rep < 3 * kSetupReps; ++rep) {
    h.setup_s.add(calibratedSeconds(
        cal, [&] { ds = generateDataset(opt.seed, kShape, opt.workdir / "data"); }));
  }
  r.settings = {{"durability_wal", 1.0},
                {"server_workers", 0.0},
                {"store_results", static_cast<double>(ds.results)},
                {"store_executions", static_cast<double>(ds.files.size())},
                {"dataset_irs", kShape.irs},
                {"dataset_uv", kShape.uv},
                {"dataset_bgl", kShape.bgl}};

  if (!opt.trace) {
    Samples file_ms, commit_cal_ms, bytes_per_result;
    double load_s = 0.0, results = 0.0;
    std::size_t passes = 0;
    Stopwatch budget;
    while (passes == 0 || budget.seconds() < opt.seconds) {
      const PassTimes t = loadPass(opt, ds, r, /*check=*/passes == 0, cal, &h);
      file_ms.append(t.file_ms);
      commit_cal_ms.append(t.commit_cal_ms);
      load_s += t.load_s;
      results += static_cast<double>(t.results);
      if (t.results > 0) bytes_per_result.add(static_cast<double>(t.bytes) / t.results);
      ++passes;
      if (r.failed > 0 && t.file_ms.count() == 0) break;
    }
    r.detail.push_back({"results_per_s", load_s > 0 ? results / load_s : 0.0, "1/s", passes});
    addPercentiles(r.detail, "file_ms", file_ms, "ms");
    r.detail.push_back({"bytes_per_result", bytes_per_result.median(), "B", passes});
    // ops_per_s is commits per second of commit time, so it follows the
    // durability path alone (rows_per_s covers the whole transaction). It
    // is taken from the median commit, which an fsync stall cannot move.
    h.ops = commit_cal_ms.count() > 0 ? 1e3 / commit_cal_ms.median() : 0.0;
    h.ops_s = 1.0;
    r.headline = headlineMetrics(h);
  } else {
    std::map<std::string, Samples> acc;
    double untraced_s = 0.0, traced_s = 0.0;
    Stopwatch budget;
    std::size_t rounds = 0;
    while (rounds == 0 || budget.seconds() < opt.seconds) {
      const PassTimes t = loadPass(opt, ds, r, /*check=*/rounds == 0, cal, nullptr);
      untraced_s += t.load_s;
      std::map<std::string, double> m = tracedPass(opt, ds, r, traced_s);
      Samples parse_ms;
      for (const DatasetFile& f : ds.files) parse_ms.add(parseOnlyMs(f));
      m["ptdf.parse_ms_per_file"] = parse_ms.mean();
      m["core.store_ms_per_file"] = t.load_ms.mean() - parse_ms.mean();
      m["pager.commit_ms"] = t.commit_ms.mean();
      for (const auto& [name, v] : m) acc[name].add(v);
      ++rounds;
    }
    std::map<std::string, double> layers;
    for (const auto& [name, s] : acc) layers[name] = s.median();
    layers["trace_overhead_pct"] = untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0;
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
