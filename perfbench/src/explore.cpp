// explore: a local analyst session over a WAL store built as ingest builds
// it (half the Table-1 mix). One client, closed loop, read-only, in process
// (no wire, no fsync).
//
// Each seeded script builds a three-family pr-filter with live counts
// (QuerySession::familyMatchCount / totalMatchCount), retrieves it (run),
// adds a free-resource column, and DIFFs two Frost IRS executions (top 10).
// Every answer is compared with an oracle computed once at set-up with the
// inverted index disabled (the legacy SQL path).
#include <optional>

#include "common.h"
#include "core/query_session.h"
#include "sim/irs_gen.h"

namespace perfbench {

namespace {

constexpr DatasetShape kShape{/*irs=*/24, /*uv=*/3, /*bgl=*/24};
constexpr std::size_t kScripts = 32;
constexpr std::size_t kExecFamily = 1;  // index of the execution family

struct Script {
  std::vector<core::ResourceFilter> families;
  std::string exec_a, exec_b;
};

struct Answer {
  std::vector<std::size_t> counts;  // per family, then the whole filter
  std::vector<std::pair<std::int64_t, double>> rows;
  std::string table_text;  // rows plus the added free-resource column
  std::string diff_text;
  std::size_t diff_rows = 0;

  bool operator==(const Answer& o) const {
    return counts == o.counts && rows == o.rows && table_text == o.table_text &&
           diff_text == o.diff_text;
  }
};

struct ScriptTimes {
  Samples count_us;       // every live count: per family and whole filter
  Samples exec_count_us;  // the execution family's count alone
  Samples run_ms, column_ms, diff_ms;

  std::size_t ops() const {
    return count_us.count() + run_ms.count() + column_ms.count() + diff_ms.count();
  }
  /// Seconds spent in the operations.
  double busySeconds() const {
    return count_us.sum() / 1e6 + (run_ms.sum() + column_ms.sum() + diff_ms.sum()) / 1e3;
  }
};

std::vector<Script> makeScripts(std::uint64_t seed, const Dataset& ds) {
  Rng rng(seed * 7919 + 17);
  const std::vector<std::string>& fns = sim::irsFunctionNames();
  // Scripts use only Frost runs (even indices of the IRS list), so each
  // operation kind costs the same whatever executions a seed picks.
  const std::size_t frost_runs = (ds.irs_execs.size() + 1) / 2;
  std::vector<Script> scripts;
  for (std::size_t i = 0; i < kScripts; ++i) {
    Script sc;
    const std::string& exec = ds.irs_execs[2 * rng.below(frost_runs)];
    // Narrow: one IRS function (N or A expansion).
    std::string fn = fns[rng.below(fns.size())];
    fn = "/IRS-1.4/" + fn.replace(fn.find(':'), 1, "/");
    sc.families.push_back(core::ResourceFilter::byName(
        fn, rng.below(2) == 0 ? core::Expansion::None : core::Expansion::Ancestors));
    // One execution (D or B expansion); its count is the headline fast op.
    sc.families.push_back(core::ResourceFilter::byName(
        "/" + exec,
        rng.below(2) == 0 ? core::Expansion::Descendants : core::Expansion::Both));
    // Broad: by type, by machine name, or by attribute, rotating.
    switch (i % 3) {
      case 0:
        sc.families.push_back(
            core::ResourceFilter::byType("build/module/function", core::Expansion::None));
        break;
      case 1:
        sc.families.push_back(
            core::ResourceFilter::byName("Frost", core::Expansion::Descendants));
        break;
      default:
        sc.families.push_back(core::ResourceFilter::byAttributes(
            {{"nprocs", "=", "16"}}, "execution", core::Expansion::Descendants));
        break;
    }
    // DIFF two Frost runs: every pair aligns the same contexts.
    const std::size_t a = rng.below(frost_runs);
    std::size_t b = rng.below(frost_runs - 1);
    if (b >= a) ++b;
    sc.exec_a = ds.irs_execs[2 * a];
    sc.exec_b = ds.irs_execs[2 * b];
    scripts.push_back(std::move(sc));
  }
  return scripts;
}

/// Runs one script. With `t` set, times each operation; with `tc` set,
/// attributes traced SQL to the operation kinds; with `stats` set, collects
/// the DIFF engine's own statistics.
Answer runScript(Store& s, const Script& sc, ScriptTimes* t, TraceCollector* tc,
                 std::vector<core::diag::Stats>* stats) {
  Answer a;
  core::QuerySession session(*s.store);
  // Returns the operation's time in microseconds and adds it, scaled, to
  // `samples` when timing.
  auto timed = [&](Op op, Samples* samples, double scale, auto&& fn) {
    if (tc != nullptr) tc->setOp(op);
    Stopwatch sw;
    fn();
    const double us = sw.micros();
    if (t != nullptr && samples != nullptr) samples->add(us * scale);
    return us;
  };
  for (const core::ResourceFilter& f : sc.families) {
    const std::size_t index = session.addFamily(f);
    const double us = timed(Op::Count, t ? &t->count_us : nullptr, 1.0,
                            [&] { a.counts.push_back(session.familyMatchCount(index)); });
    if (t != nullptr && index == kExecFamily) t->exec_count_us.add(us);
  }
  timed(Op::Count, t ? &t->count_us : nullptr, 1.0,
        [&] { a.counts.push_back(session.totalMatchCount()); });

  std::optional<core::ResultTable> table;
  timed(Op::Run, t ? &t->run_ms : nullptr, 1e-3, [&] { table.emplace(session.run()); });
  timed(Op::None, t ? &t->column_ms : nullptr, 1e-3, [&] {
    const std::vector<std::string> free = table->freeResourceTypes();
    if (!free.empty()) table->addColumn(free.front());
  });

  core::diag::Request req;
  req.exec_a = sc.exec_a;
  req.exec_b = sc.exec_b;
  req.top_k = 10;
  core::diag::Report report;
  timed(Op::Diff, t ? &t->diff_ms : nullptr, 1e-3,
        [&] { report = s.conn->diff(req); });
  if (tc != nullptr) tc->setOp(Op::None);

  for (const core::ResultRow& row : table->rows()) a.rows.emplace_back(row.result_id, row.value);
  a.table_text = table->toText();
  a.diff_text = report.toText();
  a.diff_rows = report.rows.size();
  if (stats != nullptr) stats->push_back(report.stats);
  return a;
}

struct Setup {
  Dataset ds;
  Store store;
  std::vector<Script> scripts;
  std::vector<Answer> oracle;
};

Setup setUp(const Options& opt) {
  Setup su;
  su.ds = generateDataset(opt.seed, kShape, opt.workdir / "data");
  su.store = buildStore(opt.workdir / "explore.db", su.ds);
  su.scripts = makeScripts(opt.seed, su.ds);
  su.store.conn->setInvidxEnabled(false);
  for (const Script& sc : su.scripts) {
    su.oracle.push_back(runScript(su.store, sc, nullptr, nullptr, nullptr));
  }
  su.store.conn->setInvidxEnabled(true);
  // Warm-up on the measured path: builds the posting lists once, as the
  // first interactive query of a session would.
  for (const Script& sc : su.scripts) runScript(su.store, sc, nullptr, nullptr, nullptr);
  return su;
}

}  // namespace

RunResult runExplore(const Options& opt) {
  RunResult r;
  Headline h;
  Calibrator setup_cal;
  Setup su;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    su = Setup{};  // closes the previous store before rebuilding it
    h.setup_s.add(calibratedSeconds(setup_cal, [&] { su = setUp(opt); }));
  }
  const core::StoreStats stats = su.store.store->stats();
  r.settings = {{"durability_wal", 1.0},
                {"server_workers", 0.0},
                {"store_results", static_cast<double>(stats.performance_results)},
                {"store_executions", static_cast<double>(stats.executions)},
                {"scripts", static_cast<double>(su.scripts.size())}};

  // One script = one live count per family plus the whole-filter count,
  // run, add column, diff.
  auto runChecked = [&](std::size_t i, ScriptTimes* t, TraceCollector* tc,
                        std::vector<core::diag::Stats>* diag_stats) -> Answer {
    const std::size_t k = i % su.scripts.size();
    r.attempted += su.scripts[k].families.size() + 4;
    try {
      Answer a = runScript(su.store, su.scripts[k], t, tc, diag_stats);
      if (!(a == su.oracle[k])) {
        r.fail("explore script " + std::to_string(k) +
               ": answer differs from the invidx-off oracle");
      }
      return a;
    } catch (const std::exception& e) {
      r.fail(std::string("explore: ") + e.what());
      return {};
    }
  };

  if (!opt.trace) {
    ScriptTimes all;
    Calibrator cal;
    Stopwatch budget;
    for (std::size_t i = 0; i == 0 || budget.seconds() < opt.seconds; ++i) {
      // The script right after a kernel run starts on a cold cache; it is
      // checked and kept in the detail lines, not in the headline.
      const bool cold = cal.maybeMeasure(0.5);
      const double k = cal.scale();
      ScriptTimes t;
      const std::size_t rows = runChecked(i, &t, nullptr, nullptr).rows.size();
      all.count_us.append(t.count_us);
      all.run_ms.append(t.run_ms);
      all.diff_ms.append(t.diff_ms);
      if (cold) continue;
      h.fast_op_ms.append(t.exec_count_us.scaled(1e-3 * k));
      h.slow_op_ms.append(t.diff_ms.scaled(k));
      h.ops += static_cast<double>(t.ops());
      h.ops_s += k * t.busySeconds();
      h.rows += static_cast<double>(rows);
      h.rows_s += k * t.run_ms.sum() / 1e3;
    }
    addPercentiles(r.detail, "count_us", all.count_us, "us");
    r.detail.push_back({"run_ms_p50", all.run_ms.median(), "ms", all.run_ms.count()});
    r.detail.push_back({"diff_ms_p50", all.diff_ms.median(), "ms", all.diff_ms.count()});
    r.headline = headlineMetrics(h);
  } else {
    std::map<std::string, Samples> acc;
    double untraced_s = 0.0, traced_s = 0.0;
    Stopwatch budget;
    std::size_t rounds = 0;
    while (rounds == 0 || budget.seconds() < opt.seconds) {
      ScriptTimes plain;
      for (std::size_t i = 0; i < su.scripts.size(); ++i) runChecked(i, &plain, nullptr, nullptr);
      untraced_s += plain.busySeconds();

      ScriptTimes t;
      std::vector<core::diag::Stats> diag_stats;
      std::size_t returned = 0;
      TraceCollector tc;
      const RegistrySnapshot before = RegistrySnapshot::take();
      for (std::size_t i = 0; i < su.scripts.size(); ++i) {
        const Answer a = runChecked(i, &t, &tc, &diag_stats);
        returned += a.rows.size() + a.diff_rows + a.counts.size();
      }
      const RegistrySnapshot after = RegistrySnapshot::take();
      traced_s += t.busySeconds();

      const double counts = static_cast<double>(t.count_us.count());
      const double runs = static_cast<double>(t.run_ms.count());
      const double diffs = static_cast<double>(t.diff_ms.count());
      const double ops = static_cast<double>(t.ops());
      std::map<std::string, double> round;
      std::uint64_t rows_streamed = 0;
      for (const Op op : {Op::Count, Op::Run, Op::Diff}) {
        const SqlTotals sql = tc.local(op);
        rows_streamed += sql.rows;
        addSqlLayer(round, op, sql, op == Op::Count ? counts : op == Op::Run ? runs : diffs);
      }
      round["core.count_self_us"] =
          (t.count_us.sum() - tc.local(Op::Count).totalUs()) / counts;
      round["core.run_self_ms"] =
          (t.run_ms.sum() - tc.local(Op::Run).totalUs() / 1e3) / runs;
      round["sql.rows_streamed_per_result"] =
          returned > 0 ? static_cast<double>(rows_streamed) / returned : 0.0;
      addRegistryLayers(round, before, after, ops);
      Samples diff_us, aligned;
      for (const core::diag::Stats& st : diag_stats) {
        diff_us.add(static_cast<double>(st.diff_us));
        aligned.add(static_cast<double>(st.aligned));
      }
      round["diag.diff_us"] = diff_us.mean();
      round["diag.pairs_aligned_per_diff"] = aligned.mean();
      round["trace.lost_records"] = static_cast<double>(tc.lost());
      for (const auto& [name, v] : round) acc[name].add(v);
      ++rounds;
    }
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
