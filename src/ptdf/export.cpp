#include "ptdf/export.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/typesystem.h"
#include "minidb/sql/row_batch.h"
#include "util/error.h"

namespace perftrack::ptdf {

namespace {

using minidb::Value;

/// Type paths loaded by PTDataStore::initialize(); re-exporting them is
/// harmless but noisy, so they are skipped.
const std::set<std::string>& baseTypePaths() {
  static const std::set<std::string> kBase = [] {
    std::set<std::string> base;
    for (const std::string& path : core::baseHierarchicalTypes()) {
      const auto segments = core::splitTypePath(path);
      std::string prefix;
      for (const std::string& segment : segments) {
        if (!prefix.empty()) prefix.push_back('/');
        prefix.append(segment);
        base.insert(prefix);
      }
    }
    for (const std::string& path : core::baseSingleLevelTypes()) base.insert(path);
    return base;
  }();
  return kBase;
}

/// Ids per IN-list statement. Every list is padded to this width by
/// repeating its last id (IN ignores duplicates), so each lookup is one
/// fixed statement text: the local statement cache and the server's
/// prepared statements reuse it across chunks and exports.
constexpr std::size_t kInChunk = 256;

/// Runs `select_prefix`, a statement that ends in "IN (", over the distinct
/// `ids`, kInChunk ids per statement, and hands every row to `each`.
template <typename Each>
void forEachIn(dbal::Connection& conn, const std::string& select_prefix,
               std::vector<std::int64_t> ids, Each&& each) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.empty()) return;
  std::string sql = select_prefix + "?";
  for (std::size_t i = 1; i < kInChunk; ++i) sql += ",?";
  sql += ')';
  for (std::size_t i = 0; i < ids.size(); i += kInChunk) {
    std::vector<Value> params;
    params.reserve(kInChunk);
    for (std::size_t j = i; j < i + kInChunk; ++j) {
      params.emplace_back(ids[std::min(j, ids.size() - 1)]);
    }
    for (const minidb::Row& row : conn.execPrepared(sql, std::move(params)).rows) {
      each(row);
    }
  }
}

/// One resource as PTDataStore::resourceInfo() reads it: resource_item
/// joined with its type.
struct ResourceRow {
  std::string full_name;
  std::string type_path;
};
using ResourceRows = std::unordered_map<core::ResourceId, ResourceRow>;

ResourceRows fetchResources(dbal::Connection& conn, std::vector<core::ResourceId> ids) {
  ResourceRows out;
  forEachIn(conn,
            "SELECT r.id, r.full_name, f.type_name FROM resource_item r, "
            "focus_framework f WHERE f.id = r.focus_framework_id AND r.id IN (",
            std::move(ids), [&](const minidb::Row& row) {
              out.try_emplace(row[0].asInt(),
                              ResourceRow{row[1].asText(), row[2].asText()});
            });
  return out;
}

const ResourceRow& resourceRow(const ResourceRows& rows, core::ResourceId id) {
  const auto it = rows.find(id);
  if (it == rows.end()) {
    throw util::ModelError("no resource with id " + std::to_string(id));
  }
  return it->second;
}

/// One execution, read set-at-a-time: a fixed set of statements keyed on
/// its id, then its metric and tool names by IN-list.
struct ExecutionRows {
  std::string name;
  std::optional<std::string> application;  // nullopt: no application row

  struct Result {
    std::int64_t id;
    Value metric_id;
    Value tool_id;
    double value;
    std::string units;
    double start_time;
    double end_time;
  };
  std::vector<Result> results;  // ascending id

  /// (result id, focus id) links, by ascending result id and, within one
  /// result, in prhf_by_result order.
  std::vector<std::pair<std::int64_t, std::int64_t>> result_foci;

  /// Focus members in fhr_by_focus order. A focus's set type is that of
  /// its last member row.
  struct Focus {
    std::vector<core::ResourceId> members;
    core::FocusType type = core::FocusType::Primary;
  };
  std::unordered_map<std::int64_t, Focus> foci;

  /// Bins in prb_by_result order.
  std::unordered_map<std::int64_t, core::PTDataStore::Histogram> histograms;

  using Names = std::unordered_map<std::int64_t, std::string>;
  Names metric_names;
  Names tool_names;

  /// Members of every focus a result links to, with repeats.
  std::vector<core::ResourceId> linkedMembers() const {
    std::vector<core::ResourceId> out;
    for (const auto& [result, focus] : result_foci) {
      const auto it = foci.find(focus);
      if (it != foci.end()) {
        out.insert(out.end(), it->second.members.begin(), it->second.members.end());
      }
    }
    return out;
  }

  /// The result's metric and tool names. Throws, as PTDataStore::getResult()
  /// does, when its metric, tool or application row is missing.
  std::pair<const std::string&, const std::string&> names(const Result& r) const {
    auto find = [](const Names& names, const Value& id) -> const std::string* {
      if (id.isNull()) return nullptr;
      const auto it = names.find(id.asInt());
      return it == names.end() ? nullptr : &it->second;
    };
    const std::string* metric = find(metric_names, r.metric_id);
    const std::string* tool = find(tool_names, r.tool_id);
    if (!application || metric == nullptr || tool == nullptr) {
      throw util::ModelError("no performance result with id " + std::to_string(r.id));
    }
    return {*metric, *tool};
  }
};

/// Reads one execution. Results come from pr_by_exec. Their focus links,
/// histogram descriptors and bins come from one range walk each over
/// prhf_by_result / prh_by_result / prb_by_result, between the execution's
/// lowest and highest result id: a load appends an execution's results
/// contiguously, so the range usually holds exactly its results, and rows
/// of another execution's results inside it are dropped. Focus members
/// come from focus_by_exec through fhr_by_focus: a result's foci always
/// belong to its own execution, as PTDataStore creates them.
ExecutionRows readExecution(dbal::Connection& conn, const std::string& exec_name) {
  const auto exec = conn.execPrepared(
      "SELECT e.id, a.name FROM execution e LEFT JOIN application a "
      "ON a.id = e.application_id WHERE e.name = ?",
      {Value(exec_name)});
  if (exec.rows.empty()) throw util::ModelError("no such execution: " + exec_name);
  const Value exec_id = exec.rows[0][0];

  ExecutionRows ex;
  ex.name = exec_name;
  if (!exec.rows[0][1].isNull()) ex.application = exec.rows[0][1].asText();

  const auto results = conn.execPrepared(
      "SELECT id, metric_id, performance_tool_id, value, units, start_time, end_time "
      "FROM performance_result WHERE execution_id = ?",
      {exec_id});
  ex.results.reserve(results.rows.size());
  std::vector<std::int64_t> metric_ids;
  std::vector<std::int64_t> tool_ids;
  for (const minidb::Row& row : results.rows) {
    ex.results.push_back({row[0].asInt(), row[1], row[2], row[3].asReal(), row[4].asText(),
                          row[5].asReal(), row[6].asReal()});
    if (!row[1].isNull()) metric_ids.push_back(row[1].asInt());
    if (!row[2].isNull()) tool_ids.push_back(row[2].asInt());
  }
  std::sort(ex.results.begin(), ex.results.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  if (ex.results.empty()) return ex;
  const std::vector<Value> id_range = {Value(ex.results.front().id),
                                       Value(ex.results.back().id)};
  auto ofThisExecution = [&](const Value& result_id) {
    const auto it = std::lower_bound(
        ex.results.begin(), ex.results.end(), result_id.asInt(),
        [](const ExecutionRows::Result& r, std::int64_t id) { return r.id < id; });
    return it != ex.results.end() && it->id == result_id.asInt();
  };

  for (const minidb::Row& row :
       conn.execPrepared("SELECT result_id, focus_id FROM performance_result_has_focus "
                         "WHERE result_id BETWEEN ? AND ?",
                         id_range)
           .rows) {
    if (ofThisExecution(row[0])) {
      ex.result_foci.emplace_back(row[0].asInt(), row[1].asInt());
    }
  }
  // Index order already groups by result; the stable sort keeps each
  // result's links in that order whatever access path ran.
  std::stable_sort(ex.result_foci.begin(), ex.result_foci.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });

  for (const minidb::Row& row :
       conn.execPrepared("SELECT fhr.focus_id, fhr.resource_id, fhr.focus_type "
                         "FROM focus f, focus_has_resource fhr "
                         "WHERE f.execution_id = ? AND fhr.focus_id = f.id",
                         {exec_id})
           .rows) {
    ExecutionRows::Focus& focus = ex.foci[row[0].asInt()];
    focus.members.push_back(row[1].asInt());
    focus.type = core::focusTypeFromName(row[2].asText());
  }

  for (const minidb::Row& row :
       conn.execPrepared("SELECT result_id, num_bins, bin_width "
                         "FROM performance_result_histogram "
                         "WHERE result_id BETWEEN ? AND ?",
                         id_range)
           .rows) {
    if (!ofThisExecution(row[0])) continue;
    // Of several descriptors the first wins, as getHistogram() reads it.
    ex.histograms.try_emplace(
        row[0].asInt(),
        core::PTDataStore::Histogram{static_cast<int>(row[1].asInt()), row[2].asReal(), {}});
  }
  if (!ex.histograms.empty()) {
    for (const minidb::Row& row :
         conn.execPrepared("SELECT result_id, bin, value FROM performance_result_bin "
                           "WHERE result_id BETWEEN ? AND ?",
                           id_range)
             .rows) {
      const auto it = ex.histograms.find(row[0].asInt());
      if (it == ex.histograms.end()) continue;
      it->second.bins.emplace_back(static_cast<int>(row[1].asInt()), row[2].asReal());
    }
  }

  forEachIn(conn, "SELECT id, name FROM metric WHERE id IN (", std::move(metric_ids),
            [&](const minidb::Row& row) {
              ex.metric_names.try_emplace(row[0].asInt(), row[1].asText());
            });
  forEachIn(conn, "SELECT id, name FROM performance_tool WHERE id IN (",
            std::move(tool_ids), [&](const minidb::Row& row) {
              ex.tool_names.try_emplace(row[0].asInt(), row[1].asText());
            });
  return ex;
}

/// Emits one resource with its string attributes. Resource-typed attributes
/// are skipped here; they re-emerge from the constraint table.
void emitResource(Writer& writer, const std::string& full_name,
                  const std::string& type_path,
                  const std::vector<core::AttributeInfo>& attributes,
                  ExportStats& stats) {
  writer.resource(full_name, type_path);
  ++stats.resources;
  for (const core::AttributeInfo& attr : attributes) {
    if (attr.attr_type == "resource") continue;
    writer.resourceAttribute(full_name, attr.name, attr.value, attr.attr_type);
    ++stats.attributes;
  }
}

void emitConstraints(core::PTDataStore& store, Writer& writer,
                     const core::ResourceInfo& info, ExportStats& stats) {
  for (core::ResourceId other : store.constraintsOf(info.id)) {
    writer.resourceConstraint(info.full_name, store.resourceInfo(other).full_name);
    ++stats.constraints;
  }
}

/// Emits every performance result of one execution in ascending id order,
/// each with its resource sets (empty foci dropped) in link order.
void emitResults(const ExecutionRows& ex, const ResourceRows& resources, Writer& writer,
                 ExportStats& stats) {
  auto link = ex.result_foci.begin();
  for (const ExecutionRows::Result& r : ex.results) {
    const auto [metric, tool] = ex.names(r);
    std::vector<core::ResourceSetSpec> sets;
    for (; link != ex.result_foci.end() && link->first == r.id; ++link) {
      const auto focus = ex.foci.find(link->second);
      if (focus == ex.foci.end()) continue;
      core::ResourceSetSpec spec;
      for (core::ResourceId member : focus->second.members) {
        spec.resource_names.push_back(resourceRow(resources, member).full_name);
      }
      spec.set_type = focus->second.type;
      sets.push_back(std::move(spec));
    }
    const auto hist = ex.histograms.find(r.id);
    if (hist != ex.histograms.end()) {
      // Complex result: re-expand the sparse bins into the full vector with
      // NaN holes so the PerfHistogram record round-trips exactly; of
      // duplicate bins the last one read wins.
      std::vector<double> bins(static_cast<std::size_t>(hist->second.num_bins),
                               std::numeric_limits<double>::quiet_NaN());
      for (const auto& [bin, value] : hist->second.bins) {
        bins.at(static_cast<std::size_t>(bin)) = value;
      }
      writer.perfHistogram(ex.name, sets, tool, metric, hist->second.bin_width,
                           r.units, bins);
    } else {
      writer.perfResult(ex.name, sets, tool, metric, r.value, r.units,
                        r.start_time, r.end_time);
    }
    ++stats.perf_results;
  }
}

}  // namespace

ExportStats exportStore(core::PTDataStore& store, Writer& writer) {
  ExportStats stats;
  dbal::Connection& conn = store.connection();
  writer.comment("PTdf export: full store");

  for (const std::string& type : store.resourceTypes()) {
    if (baseTypePaths().contains(type)) continue;
    writer.resourceType(type);
    ++stats.resource_types;
  }

  // Executions (and their applications) before resources so PerfResults can
  // always resolve.
  {
    auto execs = conn.query(
        "SELECT e.name, a.name FROM execution e JOIN application a "
        "ON e.application_id = a.id ORDER BY e.id");
    minidb::sql::RowBatch batch;
    while (execs.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        writer.application(batch.cols[1][i].asText());
        writer.execution(batch.cols[0][i].asText(), batch.cols[1][i].asText());
        ++stats.executions;
      }
    }
  }

  // Resources in id order: parents were created before children, so a
  // straight replay always finds ancestors in place. Two streaming passes
  // over the resource table instead of one materialized list: the exporter's
  // footprint stays flat in the store size (BENCH_cursor.json measures this).
  {
    auto resources = conn.query("SELECT r.id FROM resource_item r ORDER BY r.id");
    minidb::sql::RowBatch batch;
    while (resources.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        const core::ResourceInfo info = store.resourceInfo(batch.cols[0][i].asInt());
        emitResource(writer, info.full_name, info.type_path, store.attributesOf(info.id),
                     stats);
      }
    }
  }
  {
    auto resources = conn.query("SELECT r.id FROM resource_item r ORDER BY r.id");
    minidb::sql::RowBatch batch;
    while (resources.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        emitConstraints(store, writer, store.resourceInfo(batch.cols[0][i].asInt()),
                        stats);
      }
    }
  }

  for (const std::string& exec : store.executions()) {
    const ExecutionRows ex = readExecution(conn, exec);
    emitResults(ex, fetchResources(conn, ex.linkedMembers()), writer, stats);
  }
  return stats;
}

ExportStats exportExecution(core::PTDataStore& store, const std::string& exec_name,
                            Writer& writer) {
  ExportStats stats;
  dbal::Connection& conn = store.connection();
  const ExecutionRows ex = readExecution(conn, exec_name);
  // Results are checked before the resource closure, so a missing metric
  // or tool row is reported ahead of a missing resource row.
  for (const ExecutionRows::Result& r : ex.results) ex.names(r);
  if (!ex.application) {
    throw util::ModelError("no application for execution: " + exec_name);
  }

  // The resource closure the results reference: context members plus all
  // their ancestors (so paths re-create cleanly), ascending by id, which
  // puts parents first (ids ascend along every path).
  std::vector<core::ResourceId> closure = ex.linkedMembers();
  forEachIn(conn,
            "SELECT resource_id, ancestor_id FROM resource_has_ancestor "
            "WHERE resource_id IN (",
            closure, [&](const minidb::Row& row) { closure.push_back(row[1].asInt()); });
  std::sort(closure.begin(), closure.end());
  closure.erase(std::unique(closure.begin(), closure.end()), closure.end());
  const ResourceRows resources = fetchResources(conn, closure);
  std::set<std::string> types;  // the closure's types, sorted
  for (core::ResourceId id : closure) types.insert(resourceRow(resources, id).type_path);

  // Attributes per resource sorted by name; ties keep ra_by_resource order.
  std::unordered_map<core::ResourceId, std::vector<core::AttributeInfo>> attributes;
  forEachIn(conn,
            "SELECT resource_id, name, value, attr_type FROM resource_attribute "
            "WHERE resource_id IN (",
            closure, [&](const minidb::Row& row) {
              attributes[row[0].asInt()].push_back(
                  {row[1].asText(), row[2].asText(), row[3].asText()});
            });
  for (auto& [id, attrs] : attributes) {
    std::stable_sort(attrs.begin(), attrs.end(),
                     [](const auto& x, const auto& y) { return x.name < y.name; });
  }

  writer.comment("PTdf export: execution " + exec_name);
  for (const std::string& type : types) {
    if (baseTypePaths().contains(type)) continue;
    writer.resourceType(type);
    ++stats.resource_types;
  }

  writer.application(*ex.application);
  writer.execution(exec_name, *ex.application);
  ++stats.executions;
  for (core::ResourceId id : closure) {
    const ResourceRow& row = resources.at(id);
    emitResource(writer, row.full_name, row.type_path, attributes[id], stats);
  }
  emitResults(ex, resources, writer, stats);
  return stats;
}

}  // namespace perftrack::ptdf
