#include "core/diag.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::core::diag {

namespace {

using minidb::Value;
using minidb::sql::ResultSet;

/// Instrumentation sites, resolved once (registry lookups are cold-path).
struct DiagMetrics {
  obs::Counter* diffs;
  obs::Counter* aligned;
  obs::Counter* divergences;
  obs::Histogram* diff_ms;
};

DiagMetrics& metrics() {
  static DiagMetrics m{
      &obs::Registry::global().counter("pt_diag_diffs_total"),
      &obs::Registry::global().counter("pt_diag_pairs_aligned_total"),
      &obs::Registry::global().counter("pt_diag_divergences_total"),
      &obs::Registry::global().histogram("pt_diag_diff_ms"),
  };
  return m;
}

/// Chunk size for inlined integer IN-lists. Large enough to amortize the
/// per-statement cost, small enough that each probe list stays a short
/// primary-key range walk.
constexpr std::size_t kInChunk = 256;

/// id -> name for each of `ids` that has a row, fetched in chunked
/// primary-key IN-list probes over the distinct ids; `select_prefix` is the
/// statement up to its IN-list, "SELECT id, <name> FROM <table> WHERE id IN (".
std::unordered_map<std::int64_t, std::string> fetchNames(
    minidb::sql::Engine& engine, const char* select_prefix,
    std::vector<std::int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::unordered_map<std::int64_t, std::string> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); i += kInChunk) {
    const std::size_t end = std::min(ids.size(), i + kInChunk);
    std::string sql = select_prefix;
    for (std::size_t j = i; j < end; ++j) {
      if (j > i) sql += ',';
      sql += std::to_string(ids[j]);
    }
    sql += ')';
    for (const auto& row : engine.exec(sql).rows) {
      out.emplace(row[0].asInt(), row[1].asText());
    }
  }
  return out;
}

/// The per-side statements, prepared once per diagnose() and executed for
/// both executions. Each starts from an indexed equality on execution_id
/// (exec_by_name, pr_by_exec, focus_by_exec) and the focus joins probe
/// prhf_by_focus / fhr_by_focus once per focus of the execution, so cost
/// scales with this execution's foci and results, not with the store.
struct Statements {
  explicit Statements(minidb::sql::Engine& engine)
      : execution(engine.prepare("SELECT id FROM execution WHERE name = ?")),
        results(engine.prepare(
            "SELECT id, metric_id, value FROM performance_result "
            "WHERE execution_id = ?")),
        result_foci(engine.prepare(
            "SELECT prhf.result_id, prhf.focus_id "
            "FROM focus f, performance_result_has_focus prhf "
            "WHERE f.execution_id = ? AND prhf.focus_id = f.id")),
        focus_resources(engine.prepare(
            "SELECT fhr.focus_id, fhr.resource_id "
            "FROM focus f, focus_has_resource fhr "
            "WHERE f.execution_id = ? AND fhr.focus_id = f.id")) {}

  minidb::sql::PreparedStatement execution;
  minidb::sql::PreparedStatement results;
  minidb::sql::PreparedStatement result_foci;
  minidb::sql::PreparedStatement focus_resources;
};

/// One execution's rows as read, before names are resolved.
struct RawSide {
  std::string exec;
  struct Result {
    std::int64_t id;
    std::int64_t metric_id;
    double value;
  };
  std::vector<Result> results;  // ascending id
  /// (result id, focus id) links to this execution's foci, ascending.
  std::vector<std::pair<std::int64_t, std::int64_t>> result_foci;
  /// focus id -> its resources.
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> focus_resources;
};

RawSide readSide(Statements& stmts, const std::string& exec) {
  ResultSet exec_rs = stmts.execution.execute({Value(exec)});
  if (exec_rs.rows.empty()) throw util::ModelError("no such execution: " + exec);
  const Value exec_id = exec_rs.rows[0][0];

  RawSide side;
  side.exec = exec;
  ResultSet results = stmts.results.execute({exec_id});
  side.results.reserve(results.rows.size());
  for (const auto& row : results.rows) {
    // A NULL metric_id names no metric: dropped, as a join would drop it.
    if (row[1].isNull()) continue;
    side.results.push_back({row[0].asInt(), row[1].asInt(), row[2].asReal()});
  }
  // Ascending ids make "first sample wins" mean "lowest result id wins"
  // below, whatever order the index scan produced.
  std::sort(side.results.begin(), side.results.end(),
            [](const RawSide::Result& x, const RawSide::Result& y) { return x.id < y.id; });

  // Driven from this execution's foci: a result's links to another
  // execution's foci contribute no resources, so they are never read.
  ResultSet links = stmts.result_foci.execute({exec_id});
  side.result_foci.reserve(links.rows.size());
  for (const auto& row : links.rows) {
    side.result_foci.emplace_back(row[0].asInt(), row[1].asInt());
  }
  std::sort(side.result_foci.begin(), side.result_foci.end());
  for (const auto& row : stmts.focus_resources.execute({exec_id}).rows) {
    side.focus_resources[row[0].asInt()].push_back(row[1].asInt());
  }
  return side;
}

/// Context strings interned to dense ids, shared by both sides so that
/// alignment compares integers.
using ContextIds = std::unordered_map<std::string, std::uint32_t>;

/// One resolved sample: dense metric index (metric name order), context id,
/// value. Listed in ascending result id.
struct Sample {
  std::uint32_t metric;
  std::uint32_t context;
  double value;
};

/// Resolves one side's metrics and contexts. `metric_index` maps metric ids
/// to dense indices; results whose metric id has none are dropped, as an
/// inner join with `metric` would drop them.
std::vector<Sample> resolveSide(
    const RawSide& raw,
    const std::unordered_map<std::int64_t, std::uint32_t>& metric_index,
    const std::unordered_map<std::int64_t, std::string>& resource_names,
    ContextIds& contexts) {
  // A context is the sorted, distinct canonical names of every resource
  // across a result's foci. It is built once per distinct focus set: most
  // results have exactly one focus, shared with many other results.
  auto build = [&](const std::int64_t* foci, std::size_t n) {
    std::set<std::string> names;
    for (std::size_t i = 0; i < n; ++i) {
      const auto res_it = raw.focus_resources.find(foci[i]);
      if (res_it == raw.focus_resources.end()) continue;
      for (std::int64_t rid : res_it->second) {
        const auto name_it = resource_names.find(rid);
        if (name_it == resource_names.end()) continue;
        names.insert(canonicalResourceName(raw.exec, name_it->second));
      }
    }
    return contexts
        .try_emplace(util::join({names.begin(), names.end()}, "|"),
                     static_cast<std::uint32_t>(contexts.size()))
        .first->second;
  };
  std::map<std::vector<std::int64_t>, std::uint32_t> focus_sets;
  const std::uint32_t no_focus = build(nullptr, 0);

  std::vector<Sample> out;
  out.reserve(raw.results.size());
  std::vector<std::int64_t> foci;
  auto link = raw.result_foci.begin();
  for (const RawSide::Result& result : raw.results) {
    foci.clear();
    while (link != raw.result_foci.end() && link->first < result.id) ++link;
    for (; link != raw.result_foci.end() && link->first == result.id; ++link) {
      foci.push_back(link->second);
    }
    const auto metric_it = metric_index.find(result.metric_id);
    if (metric_it == metric_index.end()) continue;
    std::uint32_t context = no_focus;
    if (!foci.empty()) {
      const auto [it, fresh] = focus_sets.try_emplace(foci);
      if (fresh) it->second = build(foci.data(), foci.size());
      context = it->second;
    }
    out.push_back({metric_it->second, context, result.value});
  }
  return out;
}

/// Alignment key (metric name order, then context string order) -> value,
/// ascending and distinct: of several samples with one key the first, i.e.
/// the lowest result id, wins, matching analyze::compareExecutions.
std::vector<std::pair<std::uint64_t, double>> keyedValues(
    const std::vector<Sample>& samples, const std::vector<std::uint32_t>& context_rank) {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    out.emplace_back((static_cast<std::uint64_t>(s.metric) << 32) | context_rank[s.context],
                     s.value);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& x, const auto& y) { return x.first == y.first; }),
            out.end());
  return out;
}

void validate(const Request& request) {
  auto check = [](double value, const char* what) {
    if (!std::isfinite(value) || value < 0.0) {
      throw util::ModelError(std::string("diff: ") + what +
                             " must be finite and >= 0, got " +
                             util::formatReal(value));
    }
  };
  check(request.ratio_threshold, "ratio threshold");
  check(request.abs_threshold, "absolute threshold");
}

}  // namespace

std::string canonicalResourceName(const std::string& execution,
                                  std::string full_name) {
  if (execution.empty() || full_name.size() < 2) return full_name;
  // Canonicalize the leading segment when it embeds the execution name
  // (e.g. /irs-frost-np8-s1/p0, /build-irs-frost-np8-s1, /env-...).
  const auto slash = full_name.find('/', 1);
  const std::string head = slash == std::string::npos
                               ? full_name.substr(1)
                               : full_name.substr(1, slash - 1);
  const auto pos = head.find(execution);
  if (pos == std::string::npos) return full_name;
  const std::string tail =
      slash == std::string::npos ? "" : full_name.substr(slash);
  // Keep any collector prefix ("build-", "env-") so different hierarchies
  // stay distinct after canonicalization.
  std::string prefix = head;
  prefix.replace(pos, execution.size(), "$EXEC");
  return "/" + prefix + tail;
}

const std::vector<std::string>& Report::columns() {
  static const std::vector<std::string> kColumns = {
      "rank",  "metric", "context", "value_a",
      "value_b", "delta",  "ratio",   "contribution_pct"};
  return kColumns;
}

std::vector<minidb::Row> Report::toRows() const {
  std::vector<minidb::Row> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    minidb::Row row;
    row.reserve(8);
    row.emplace_back(static_cast<std::int64_t>(i + 1));
    row.emplace_back(r.metric);
    row.emplace_back(r.context);
    row.emplace_back(r.value_a);
    row.emplace_back(r.value_b);
    row.emplace_back(r.delta());
    row.emplace_back(r.has_ratio ? Value(r.ratio) : Value::null());
    row.emplace_back(r.contribution_pct);
    out.push_back(std::move(row));
  }
  return out;
}

std::string Report::toText() const {
  std::ostringstream out;
  out << "diff: " << request.exec_a << " -> " << request.exec_b << "\n"
      << "  results (A / B):   " << stats.results_a << " / " << stats.results_b
      << "\n"
      << "  aligned pairs:     " << stats.aligned << "\n"
      << "  only in A:         " << stats.only_a << "\n"
      << "  only in B:         " << stats.only_b << "\n"
      << "  zero baselines:    " << stats.zero_baseline << "\n"
      << "  divergent:         " << stats.divergent << " (|ratio-1| > "
      << util::formatReal(request.ratio_threshold) << ", |delta| >= "
      << util::formatReal(request.abs_threshold) << ")\n";
  if (rows.empty()) {
    out << "  ranked explanations: (none)\n";
    return out.str();
  }
  out << "  ranked explanations";
  if (rows.size() < stats.divergent) {
    out << " (top " << rows.size() << " of " << stats.divergent << ")";
  }
  out << ":\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    " << (i + 1) << ". " << r.metric << " [" << r.context << "]  "
        << util::formatReal(r.value_a) << " -> " << util::formatReal(r.value_b);
    if (r.has_ratio) {
      out << "  (x" << util::formatReal(r.ratio);
    } else {
      out << "  (zero baseline";
    }
    out << ", " << util::formatReal(r.contribution_pct) << "% of "
        << r.metric << " change)\n";
  }
  return out.str();
}

Report diagnose(minidb::sql::Engine& engine, const Request& request) {
  validate(request);
  const auto start = std::chrono::steady_clock::now();
  Report report;
  report.request = request;

  Statements stmts(engine);
  const RawSide raw_a = readSide(stmts, request.exec_a);
  const RawSide raw_b = readSide(stmts, request.exec_b);

  // Names are resolved once for both sides: one IN-list over the distinct
  // metric ids and one over the distinct resource ids.
  std::vector<std::int64_t> metric_ids;
  std::vector<std::int64_t> resource_ids;
  for (const RawSide* raw : {&raw_a, &raw_b}) {
    for (const RawSide::Result& r : raw->results) metric_ids.push_back(r.metric_id);
    for (const auto& [focus, resources] : raw->focus_resources) {
      resource_ids.insert(resource_ids.end(), resources.begin(), resources.end());
    }
  }
  const auto metric_names = fetchNames(
      engine, "SELECT id, name FROM metric WHERE id IN (", std::move(metric_ids));
  const auto resource_names =
      fetchNames(engine, "SELECT id, full_name FROM resource_item WHERE id IN (",
                 std::move(resource_ids));

  // Dense metric indices, assigned in name order so that sorting keys by
  // index sorts them by metric name.
  std::vector<std::pair<const std::string*, std::int64_t>> by_name;
  by_name.reserve(metric_names.size());
  for (const auto& [id, name] : metric_names) by_name.emplace_back(&name, id);
  std::sort(by_name.begin(), by_name.end(),
            [](const auto& x, const auto& y) { return *x.first < *y.first; });
  std::unordered_map<std::int64_t, std::uint32_t> metric_index;
  for (std::uint32_t i = 0; i < by_name.size(); ++i) {
    metric_index.emplace(by_name[i].second, i);
  }

  ContextIds contexts;
  const std::vector<Sample> samples_a =
      resolveSide(raw_a, metric_index, resource_names, contexts);
  const std::vector<Sample> samples_b =
      resolveSide(raw_b, metric_index, resource_names, contexts);
  report.stats.results_a = samples_a.size();
  report.stats.results_b = samples_b.size();

  // Contexts ranked in string order, likewise.
  std::vector<std::pair<const std::string*, std::uint32_t>> by_context;
  by_context.reserve(contexts.size());
  for (const auto& [text, id] : contexts) by_context.emplace_back(&text, id);
  std::sort(by_context.begin(), by_context.end(),
            [](const auto& x, const auto& y) { return *x.first < *y.first; });
  std::vector<std::uint32_t> context_rank(by_context.size());
  for (std::uint32_t r = 0; r < by_context.size(); ++r) {
    context_rank[by_context[r].second] = r;
  }
  const auto a = keyedValues(samples_a, context_rank);
  const auto b = keyedValues(samples_b, context_rank);

  // Alignment: a merge of the two sorted key lists. The aligned pairs come
  // out in (metric name, context) order, the order each metric's
  // contribution denominator sums its |delta|s in, so the floating-point
  // total (and every contribution_pct) is reproducible to the last bit.
  struct Aligned {
    std::uint64_t key;
    double value_a;
    double value_b;
  };
  std::vector<Aligned> aligned;
  aligned.reserve(std::min(a.size(), b.size()));
  std::vector<double> metric_total_delta(by_name.size(), 0.0);  // sum of |delta|
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end() || ib != b.end();) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      ++report.stats.only_a;
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      ++report.stats.only_b;
      ++ib;
    } else {
      aligned.push_back({ia->first, ia->second, ib->second});
      metric_total_delta[ia->first >> 32] += std::abs(ib->second - ia->second);
      if (ia->second == 0.0) ++report.stats.zero_baseline;
      ++ia;
      ++ib;
    }
  }
  report.stats.aligned = aligned.size();

  for (const Aligned& pair : aligned) {
    const bool has_ratio = pair.value_a != 0.0;
    const double ratio = has_ratio ? pair.value_b / pair.value_a : 0.0;
    const double delta = std::abs(pair.value_b - pair.value_a);
    // Zero-baseline guard: without a ratio, any change at all is divergent
    // (the value appeared from nothing); with one, apply the threshold.
    const bool past_ratio = has_ratio
                                ? std::abs(ratio - 1.0) > request.ratio_threshold
                                : delta != 0.0;
    if (!past_ratio || delta < request.abs_threshold) continue;
    Row row;
    row.metric = *by_name[pair.key >> 32].first;
    row.context = *by_context[static_cast<std::uint32_t>(pair.key)].first;
    row.value_a = pair.value_a;
    row.value_b = pair.value_b;
    row.has_ratio = has_ratio;
    row.ratio = ratio;
    const double total = metric_total_delta[pair.key >> 32];
    row.contribution_pct = total > 0.0 ? delta / total * 100.0 : 0.0;
    report.rows.push_back(std::move(row));
  }
  report.stats.divergent = report.rows.size();

  // Rank: contribution first, then raw |delta|, then a deterministic
  // name/context tiebreak so local and remote renderings are byte-identical.
  std::sort(report.rows.begin(), report.rows.end(),
            [](const Row& x, const Row& y) {
              if (x.contribution_pct != y.contribution_pct) {
                return x.contribution_pct > y.contribution_pct;
              }
              const double dx = std::abs(x.delta());
              const double dy = std::abs(y.delta());
              if (dx != dy) return dx > dy;
              if (x.metric != y.metric) return x.metric < y.metric;
              return x.context < y.context;
            });
  if (request.top_k > 0 && report.rows.size() > request.top_k) {
    report.rows.resize(request.top_k);
  }

  report.stats.diff_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  DiagMetrics& m = metrics();
  m.diffs->inc();
  m.aligned->inc(report.stats.aligned);
  m.divergences->inc(report.stats.divergent);
  m.diff_ms->observe(static_cast<double>(report.stats.diff_us) / 1000.0);
  return report;
}

}  // namespace perftrack::core::diag
