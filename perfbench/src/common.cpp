#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/integrity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ptdf/ptdf.h"
#include "sim/irs_gen.h"
#include "sim/smg_gen.h"
#include "tools/ptdfgen.h"

namespace perfbench {

// --- samples -------------------------------------------------------------------

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

void addPercentiles(std::vector<Metric>& out, const std::string& base,
                    const Samples& s, const std::string& unit) {
  out.push_back({base + "_p50", s.median(), unit, s.count()});
  if (s.count() >= 1000) {
    out.push_back({base + "_p99", s.quantile(0.99), unit, s.count()});
  } else if (s.count() >= 100) {
    out.push_back({base + "_p90", s.quantile(0.90), unit, s.count()});
  }
}

void RunResult::fail(const std::string& what) {
  ++failed;
  if (problems.size() < 8) problems.push_back(what);
}

std::vector<Metric> headlineMetrics(const Headline& h) {
  return {
      {"setup_s", h.setup_s.median(), "s", h.setup_s.count()},
      {"ops_per_s", h.ops_s > 0 ? h.ops / h.ops_s : 0.0, "1/s", 0},
      {"fast_op_ms_p50", h.fast_op_ms.median(), "ms", h.fast_op_ms.count()},
      {"slow_op_ms_p50", h.slow_op_ms.median(), "ms", h.slow_op_ms.count()},
      {"rows_per_s", h.rows_s > 0 ? h.rows / h.rows_s : 0.0, "1/s", 0},
  };
}

const std::vector<std::pair<std::string, std::string>>& layerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"ptdf.parse_ms_per_file", "ms"},
        {"core.store_ms_per_file", "ms"},
        {"pager.commit_ms", "ms"},
        {"wal.fsyncs_per_commit", "count"},
        {"wal.frames_per_commit", "count"},
        {"wal.checkpoints", "count"},
        {"pager.disk_page_writes_per_result", "count"},
    };
    for (const char* op : {"file", "count", "run", "diff", "point", "export", "write"}) {
      for (const char* stage : {"parse_us", "plan_us", "bind_us", "exec_us"}) {
        c.emplace_back(std::string("sql.") + stage + "." + op, "us");
      }
      c.emplace_back(std::string("sql.statements.") + op, "count");
    }
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"sql.rows_streamed_per_result", "ratio"},
        {"dbal.stmt_cache_hit_ratio", "ratio"},
        {"core.count_self_us", "us"},
        {"core.run_self_ms", "ms"},
        {"invidx.probes_per_op", "count"},
        {"invidx.fallbacks_per_op", "count"},
        {"invidx.builds", "count"},
        {"invidx.build_ms", "ms"},
        {"diag.diff_us", "us"},
        {"diag.pairs_aligned_per_diff", "count"},
        {"server.frames_per_op.point", "count"},
        {"server.frames_per_op.count", "count"},
        {"server.frames_per_op.diff", "count"},
        {"server.frames_per_op.export_line", "count"},
        {"server.busy_rejections", "count"},
        {"trace.lost_records", "count"},
        {"trace_overhead_pct", "%"},
    };
    c.insert(c.end(), tail.begin(), tail.end());
    return c;
  }();
  return catalog;
}

std::vector<Metric> layerMetrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layerCatalog()) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit, 0});
  }
  return out;
}

// --- calibration ----------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_calibration_sink{0};

/// Every buffer the kernel touches, allocated once before its first run.
struct KernelBuffers {
  static constexpr std::size_t kKeys = 1 << 16;
  static constexpr std::size_t kSlots = 1 << 15;  // hash table, linear probing
  static constexpr std::size_t kNumbers = 4000;

  std::vector<std::uint64_t> base = std::vector<std::uint64_t>(kKeys);
  std::vector<std::uint64_t> sorted = std::vector<std::uint64_t>(kKeys);
  std::vector<std::uint64_t> slot_keys = std::vector<std::uint64_t>(kSlots);
  std::vector<std::uint32_t> slot_values = std::vector<std::uint32_t>(kSlots);
  std::vector<char> text = std::vector<char>(kNumbers * 24);

  KernelBuffers() {
    Rng rng(42);
    for (auto& x : base) x = rng.next() | 1;  // 0 marks an empty slot
  }
};

double kernelOnceMs() {
  static KernelBuffers b;
  Stopwatch sw;
  std::copy(b.base.begin(), b.base.end(), b.sorted.begin());
  std::sort(b.sorted.begin(), b.sorted.end());
  std::fill(b.slot_keys.begin(), b.slot_keys.end(), 0);
  const std::size_t mask = KernelBuffers::kSlots - 1;
  for (std::uint32_t i = 0; i < KernelBuffers::kSlots / 2; ++i) {
    const std::uint64_t key = b.sorted[i * 4];
    std::size_t s = ((key * 0x9e3779b97f4a7c15ULL) >> 49) & mask;
    while (b.slot_keys[s] != 0 && b.slot_keys[s] != key) s = (s + 1) & mask;
    b.slot_keys[s] = key;
    b.slot_values[s] = i;
  }
  std::uint64_t acc = 0;
  for (const std::uint64_t key : b.base) {
    std::size_t s = ((key * 0x9e3779b97f4a7c15ULL) >> 49) & mask;
    while (b.slot_keys[s] != 0 && b.slot_keys[s] != key) s = (s + 1) & mask;
    if (b.slot_keys[s] == key) acc += b.slot_values[s];
  }
  std::size_t len = 0;
  for (std::size_t i = 0; i < KernelBuffers::kNumbers; ++i) {
    len += static_cast<std::size_t>(std::snprintf(b.text.data() + len, 24, "%llu",
                                                  static_cast<unsigned long long>(b.sorted[i])));
  }
  g_calibration_sink.fetch_add(acc + len, std::memory_order_relaxed);
  return sw.millis();
}

}  // namespace

void Calibrator::measure() {
  double best = kernelOnceMs();
  for (int i = 0; i < 2; ++i) best = std::min(best, kernelOnceMs());
  kernel_ms_ = best;
  measured_ = true;
  since_ = Stopwatch();
}

// --- inputs --------------------------------------------------------------------

Dataset generateDataset(std::uint64_t seed, const DatasetShape& shape, const fs::path& dir) {
  fs::remove_all(dir);
  const fs::path raw = dir / "raw";
  const fs::path ptdf_dir = dir / "ptdf";
  fs::create_directories(raw);
  fs::create_directories(ptdf_dir);

  struct Pending {
    double key;
    DatasetFile file;
  };
  std::vector<Pending> pending;
  const std::uint64_t base = seed * 1000;
  auto convert = [&](const std::string& kind, const fs::path& run_dir,
                     const std::string& machine, FileKind file_kind,
                     const std::string& exec, int index, int total) {
    const tools::GenResult gen = tools::generateEntry({kind, run_dir, machine, ""}, ptdf_dir);
    DatasetFile f;
    f.path = gen.ptdf_file;
    f.kind = file_kind;
    f.exec = exec;
    f.results = gen.perf_results;
    // Spread each dataset evenly over the load order.
    pending.push_back({(index + 0.5) / total, std::move(f)});
  };

  Dataset ds;
  for (int i = 0; i < shape.irs; ++i) {
    const bool frost = i % 2 == 0;
    sim::IrsRunSpec spec{frost ? sim::frostConfig() : sim::mcrConfig(), 16, "MPI",
                         base + static_cast<std::uint64_t>(i) + 1, ""};
    const fs::path run_dir = raw / ("irs" + std::to_string(i));
    const sim::GeneratedRun run = sim::generateIrsRun(spec, run_dir);
    convert("irs", run_dir, frost ? "frost" : "mcr", FileKind::Irs, run.exec_name, i,
            shape.irs);
    ds.irs_execs.push_back(run.exec_name);
  }
  for (int i = 0; i < shape.bgl; ++i) {
    sim::SmgRunSpec spec;
    spec.machine = sim::bglConfig();
    spec.nprocs = 512;
    spec.seed = base + 300 + static_cast<std::uint64_t>(i) + 1;
    const fs::path run_dir = raw / ("bgl" + std::to_string(i));
    const sim::GeneratedRun run = sim::generateSmgRun(spec, run_dir);
    convert("smg", run_dir, "bgl", FileKind::SmgBgl, run.exec_name, i, shape.bgl);
  }
  for (int i = 0; i < shape.uv; ++i) {
    sim::SmgRunSpec spec;
    spec.machine = sim::uvConfig();
    spec.nprocs = 128;
    spec.with_mpip = true;
    spec.with_pmapi = true;
    spec.seed = base + 600 + static_cast<std::uint64_t>(i) + 1;
    const fs::path run_dir = raw / ("uv" + std::to_string(i));
    const sim::GeneratedRun run = sim::generateSmgRun(spec, run_dir);
    convert("smg", run_dir, "uv", FileKind::SmgUv, run.exec_name, i, shape.uv);
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) { return a.key < b.key; });
  for (Pending& p : pending) {
    ds.results += p.file.results;
    ds.files.push_back(std::move(p.file));
  }
  fs::remove_all(raw);
  return ds;
}

namespace {

/// The db file and the pager's WAL and rollback-journal sidecars.
std::vector<std::string> storeFiles(const fs::path& path) {
  const std::string p = path.string();
  return {p, p + ".wal", p + ".journal"};
}

}  // namespace

void removeStore(const fs::path& path) {
  for (const std::string& f : storeFiles(path)) fs::remove(f);
}

std::uint64_t storeBytes(const fs::path& path) {
  std::uint64_t total = 0;
  for (const std::string& f : storeFiles(path)) {
    std::error_code ec;
    const auto size = fs::file_size(f, ec);
    if (!ec) total += size;
  }
  return total;
}

Store createStore(const fs::path& path) {
  removeStore(path);
  minidb::OpenOptions options;
  options.durability = minidb::Durability::Wal;
  Store s;
  s.conn = dbal::Connection::open(path.string(), options);
  s.store = std::make_unique<core::PTDataStore>(*s.conn);
  s.store->initialize();
  return s;
}

TxnTimes loadFileTxn(Store& s, const DatasetFile& file) {
  s.conn->begin();
  try {
    TxnTimes t;
    Stopwatch sw;
    ptdf::loadFile(*s.store, file.path.string());
    t.load_ms = sw.millis();
    s.conn->commit();
    t.commit_ms = sw.millis() - t.load_ms;
    return t;
  } catch (...) {
    s.conn->rollback();
    s.store->clearCache();
    throw;
  }
}

Store buildStore(const fs::path& path, const Dataset& ds) {
  Store s = createStore(path);
  for (const DatasetFile& f : ds.files) loadFileTxn(s, f);
  return s;
}

std::vector<std::string> checkStore(Store& s, const Dataset& ds) {
  std::vector<std::string> problems = core::verifyStore(*s.store);
  const core::StoreStats stats = s.store->stats();
  if (stats.performance_results != static_cast<std::int64_t>(ds.results)) {
    problems.push_back("store holds " + std::to_string(stats.performance_results) +
                       " results, generator emitted " + std::to_string(ds.results));
  }
  if (stats.executions != static_cast<std::int64_t>(ds.files.size())) {
    problems.push_back("store holds " + std::to_string(stats.executions) +
                       " executions, generator emitted " + std::to_string(ds.files.size()));
  }
  return problems;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- layer accounting ----------------------------------------------------------

namespace {

const char* const kCounters[] = {
    "pt_pager_commits_total",      "pt_pager_disk_page_writes_total",
    "pt_wal_frames_total",         "pt_wal_fsyncs_total",
    "pt_wal_checkpoints_total",    "pt_stmt_cache_hits_total",
    "pt_stmt_cache_misses_total",  "pt_invidx_probes_total",
    "pt_invidx_fallbacks_total",   "pt_invidx_builds_total",
    "pt_diag_diffs_total",         "pt_diag_pairs_aligned_total",
};
const char* const kHistograms[] = {"pt_pager_commit_ms", "pt_invidx_build_ms",
                                   "pt_diag_diff_ms"};

}  // namespace

RegistrySnapshot RegistrySnapshot::take() {
  obs::Registry& reg = obs::Registry::global();
  RegistrySnapshot s;
  for (const char* name : kCounters) {
    s.v[name] = static_cast<double>(reg.counter(name).value());
  }
  for (const char* name : kHistograms) {
    obs::Histogram& h = reg.histogram(name);
    s.v[std::string(name) + "_sum"] = h.sumMs();
    s.v[std::string(name) + "_count"] = static_cast<double>(h.count());
  }
  return s;
}

double RegistrySnapshot::delta(const RegistrySnapshot& earlier,
                               const std::string& name) const {
  const auto now = v.find(name);
  const auto then = earlier.v.find(name);
  if (now == v.end() || then == earlier.v.end()) return 0.0;
  return now->second - then->second;
}

namespace {

const char* opName(Op op) {
  switch (op) {
    case Op::None: return "none";
    case Op::File: return "file";
    case Op::Count: return "count";
    case Op::Run: return "run";
    case Op::Diff: return "diff";
    case Op::Point: return "point";
    case Op::Export: return "export";
    case Op::Write: return "write";
  }
  return "none";
}

}  // namespace

TraceCollector::TraceCollector() {
  obs::setEnabled(true);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.setAlwaysSample(true);
  std::lock_guard<std::mutex> lock(mu_);
  recorded_at_start_ = tracer.recordedCount();
  for (const obs::QueryTrace& t : tracer.recent()) last_seq_ = std::max(last_seq_, t.seq);
  drained_count_ = recorded_at_start_;
  poller_ = std::thread([this] { pollLoop(); });
}

TraceCollector::~TraceCollector() {
  stop_ = true;
  poller_.join();
  obs::Tracer::global().setAlwaysSample(false);
}

void TraceCollector::pollLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    drainIfNeeded(32);
  }
}

void TraceCollector::drainLocked() {
  const obs::Tracer& tracer = obs::Tracer::global();
  const std::uint64_t recorded = tracer.recordedCount();
  for (const obs::QueryTrace& t : tracer.recent()) {
    if (t.seq <= last_seq_) continue;
    last_seq_ = t.seq;
    ++seen_;
    if (t.remote) continue;
    SqlTotals& bucket = local_[static_cast<std::size_t>(op_)];
    bucket.parse_us += static_cast<double>(t.parse_us);
    bucket.plan_us += static_cast<double>(t.plan_us);
    bucket.bind_us += static_cast<double>(t.bind_us);
    bucket.exec_us += static_cast<double>(t.exec_us);
    bucket.statements += 1;
    bucket.rows += t.rows;
  }
  drained_count_.store(recorded, std::memory_order_relaxed);
}

void TraceCollector::setOp(Op op) {
  std::lock_guard<std::mutex> lock(mu_);
  drainLocked();
  op_ = op;
}

void TraceCollector::drainIfNeeded(std::uint64_t threshold) {
  if (obs::Tracer::global().recordedCount() -
          drained_count_.load(std::memory_order_relaxed) < threshold) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  drainLocked();
}

SqlTotals TraceCollector::local(Op op) {
  std::lock_guard<std::mutex> lock(mu_);
  drainLocked();
  return local_[static_cast<std::size_t>(op)];
}

std::uint64_t TraceCollector::lost() {
  std::lock_guard<std::mutex> lock(mu_);
  drainLocked();
  const std::uint64_t recorded = obs::Tracer::global().recordedCount() - recorded_at_start_;
  return recorded > seen_ ? recorded - seen_ : 0;
}

void addRegistryLayers(std::map<std::string, double>& layers, const RegistrySnapshot& before,
                       const RegistrySnapshot& after, double ops) {
  const double hits = after.delta(before, "pt_stmt_cache_hits_total");
  const double misses = after.delta(before, "pt_stmt_cache_misses_total");
  layers["dbal.stmt_cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  if (ops > 0) {
    layers["invidx.probes_per_op"] = after.delta(before, "pt_invidx_probes_total") / ops;
    layers["invidx.fallbacks_per_op"] = after.delta(before, "pt_invidx_fallbacks_total") / ops;
  }
  layers["invidx.builds"] = after.delta(before, "pt_invidx_builds_total");
  layers["invidx.build_ms"] = after.delta(before, "pt_invidx_build_ms_sum");
  layers["wal.checkpoints"] = after.delta(before, "pt_wal_checkpoints_total");
}

void addCommitLayers(std::map<std::string, double>& layers, const RegistrySnapshot& before,
                     const RegistrySnapshot& after, double results) {
  const double commits = after.delta(before, "pt_pager_commits_total");
  if (commits <= 0 || results <= 0) return;
  layers["wal.fsyncs_per_commit"] = after.delta(before, "pt_wal_fsyncs_total") / commits;
  layers["wal.frames_per_commit"] = after.delta(before, "pt_wal_frames_total") / commits;
  layers["pager.disk_page_writes_per_result"] =
      after.delta(before, "pt_pager_disk_page_writes_total") / results;
}

void addSqlLayer(std::map<std::string, double>& layers, Op op, const SqlTotals& t,
                 double ops) {
  if (ops <= 0) return;
  const std::string suffix = std::string(".") + opName(op);
  layers["sql.parse_us" + suffix] = t.parse_us / ops;
  layers["sql.plan_us" + suffix] = t.plan_us / ops;
  layers["sql.bind_us" + suffix] = t.bind_us / ops;
  layers["sql.exec_us" + suffix] = t.exec_us / ops;
  layers["sql.statements" + suffix] = static_cast<double>(t.statements) / ops;
}

// --- output --------------------------------------------------------------------

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void printMetric(const char* section, const Metric& m) {
  if (m.samples > 0) {
    std::printf("%-9s %-36s %16.6f %-6s n=%zu\n", section, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("%-9s %-36s %16.6f %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// One flat-array entry in the schema pt_perf_ingest parses: the string
/// members name the context, the numeric members are the measurements.
struct Entry {
  std::string layer;
  std::vector<std::pair<std::string, double>> values;
};

/// "sql.parse_us.file" -> layer "sql", key "file_parse_us" (so the unit
/// suffix stays last); "wal.frames_per_commit" -> "wal", "frames_per_commit".
std::pair<std::string, std::string> splitLayerName(const std::string& name) {
  const auto first = name.find('.');
  if (first == std::string::npos) return {"trace", name};
  const std::string layer = name.substr(0, first);
  const std::string rest = name.substr(first + 1);
  const auto second = rest.find('.');
  if (second == std::string::npos) return {layer, rest};
  return {layer, rest.substr(second + 1) + "_" + rest.substr(0, second)};
}

void writeFlatJson(const Options& opt, const RunResult& r) {
  std::vector<Entry> entries;
  Entry e2e{"end_to_end", {}};
  for (const std::vector<Metric>* list : {&r.detail, &r.headline}) {
    for (const Metric& m : *list) {
      const bool dup = std::any_of(e2e.values.begin(), e2e.values.end(),
                                   [&](const auto& kv) { return kv.first == m.name; });
      if (!dup) e2e.values.emplace_back(m.name, m.value);
    }
  }
  entries.push_back(std::move(e2e));
  entries.push_back({"settings", r.settings});
  for (const Metric& m : r.layers) {
    auto [layer, key] = splitLayerName(m.name);
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const Entry& e) { return e.layer == layer; });
    if (it == entries.end()) {
      entries.push_back({layer, {}});
      it = entries.end() - 1;
    }
    it->values.emplace_back(key, m.value);
  }

  fs::create_directories(opt.out);
  const fs::path path = opt.out / ("BENCH_perfbench_" + opt.workload +
                                   (opt.trace ? "_trace" : "") + ".json");
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "  {\"workload\": " << jsonString(opt.workload)
        << ", \"layer\": " << jsonString(entries[i].layer);
    for (const auto& [key, value] : entries[i].values) {
      out << ", " << jsonString(key) << ": " << num(value);
    }
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("wrote %s\n", path.string().c_str());
}

}  // namespace

int emit(const Options& opt, const RunResult& r) {
  for (const auto& [name, value] : r.settings) {
    std::printf("%-9s %-36s %16.6f\n", "setting", name.c_str(), value);
  }
  for (const Metric& m : r.detail) printMetric("detail", m);
  for (const Metric& m : r.headline) printMetric("headline", m);
  for (const Metric& m : r.layers) printMetric("layer", m);
  for (const std::string& p : r.problems) std::printf("problem   %s\n", p.c_str());
  writeFlatJson(opt, r);

  const std::vector<Metric>& reported = opt.trace ? r.layers : r.headline;
  bool finite = true;
  std::string metrics;
  for (const Metric& m : reported) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += jsonString(m.name) + ": {\"value\": " + num(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
  }
  const bool correct = r.failed == 0 && r.attempted > 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
