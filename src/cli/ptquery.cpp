// ptquery — the PerfTrack GUI's query workflow as a command-line tool.
//
// Usage:
//   ptquery [--timing] <db> report            store statistics
//   ptquery <db> executions                   execution report
//   ptquery <db> metrics                      metric inventory
//   ptquery <db> types                        resource type list
//   ptquery <db> tree <root-type>             resource tree
//   ptquery <db> sql "<statement>"            raw SQL against the schema
//   ptquery <db> diff <execA> <execB> [--top K] [--threshold T] [--abs T]
//       comparison-based diagnosis: aligns the two executions' results over
//       comparable contexts and prints the divergent (metric, context)
//       pairs ranked by contribution to the total delta, plus alignment
//       stats. Runs server-side (DIFF wire verb) under --connect.
//   ptquery <db> select <family>... [--csv]   pr-filter query; families:
//       type=<type-path>[:N|A|D|B]
//       name=<resource-name>[:N|A|D|B]        (default D, like the GUI)
//       attr=<name><op><value>[:N|A|D|B]      op in = != < <= > >=
//     each family prints its live match count, then the result table with
//     all free-resource columns added.
//
// --timing (first flag) prints the client-observed stage breakdown of the
// last query — parse/plan/bind/execute spans, rows — to stderr on exit.
// It reports the same spans for local files and --connect runs (remote
// spans are marked, and execute covers the streamed fetches). A remote bind
// span is client-side encoding only: the parameters travel inside the
// EXECUTE round trip, which execute covers.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include <fstream>

#include "analyze/session_shell.h"
#include "core/diag.h"
#include "core/filter.h"
#include "obs/trace.h"
#include "core/integrity.h"
#include "core/query_session.h"
#include "core/reports.h"
#include "dbal/connection.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using namespace perftrack;

/// True when `sql` starts with SELECT or EXPLAIN (row-producing statements
/// that should stream through a cursor instead of buffering a ResultSet).
bool isStreamingSql(std::string_view sql) {
  const auto start = sql.find_first_not_of(" \t\r\n");
  if (start == std::string_view::npos) return false;
  sql.remove_prefix(start);
  for (std::string_view keyword : {"SELECT", "EXPLAIN"}) {
    if (sql.size() >= keyword.size()) {
      bool match = true;
      for (std::size_t i = 0; i < keyword.size(); ++i) {
        if (std::toupper(static_cast<unsigned char>(sql[i])) != keyword[i]) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
  }
  return false;
}

/// Streams a SELECT/EXPLAIN: each row prints as soon as the pipeline
/// produces it, so the first row of a huge result appears immediately and
/// the result set never materializes in this process.
void streamSql(dbal::Connection& conn, const char* sql) {
  auto cur = conn.query(sql);
  const auto& columns = cur.columns();
  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::printf("%s%s", c ? " | " : "", columns[c].c_str());
  }
  std::printf("\n");
  minidb::Row row;
  std::uint64_t count = 0;
  while (cur.next(row)) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string text = row[c].isNull() ? "NULL" : row[c].toDisplayString();
      std::printf("%s%s", c ? " | " : "", text.c_str());
    }
    std::printf("\n");
    ++count;
  }
  std::printf("(%llu rows)\n", static_cast<unsigned long long>(count));
}

core::Expansion expansionFromSuffix(std::string& spec) {
  // Trailing ":N" / ":A" / ":D" / ":B" selects the relatives flag.
  if (spec.size() > 2 && spec[spec.size() - 2] == ':') {
    const char c = spec.back();
    if (c == 'N' || c == 'A' || c == 'D' || c == 'B') {
      spec.resize(spec.size() - 2);
      switch (c) {
        case 'N': return core::Expansion::None;
        case 'A': return core::Expansion::Ancestors;
        case 'B': return core::Expansion::Both;
        default: return core::Expansion::Descendants;
      }
    }
  }
  return core::Expansion::Descendants;  // the GUI default
}

core::ResourceFilter parseFamilyArg(std::string arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    throw util::ModelError("bad family spec '" + arg + "'");
  }
  const std::string kind = arg.substr(0, eq);
  std::string spec = arg.substr(eq + 1);
  const core::Expansion expand = expansionFromSuffix(spec);
  if (kind == "type") return core::ResourceFilter::byType(spec, expand);
  if (kind == "name") return core::ResourceFilter::byName(spec, expand);
  if (kind == "attr") {
    // split name/op/value: find the comparator.
    static const char* kOps[] = {"!=", "<=", ">=", "=", "<", ">"};
    for (const char* op : kOps) {
      const auto pos = spec.find(op);
      if (pos != std::string::npos && pos > 0) {
        return core::ResourceFilter::byAttributes(
            {{spec.substr(0, pos), op, spec.substr(pos + std::strlen(op))}}, "", expand);
      }
    }
    throw util::ModelError("attr family needs <name><op><value>: '" + spec + "'");
  }
  throw util::ModelError("unknown family kind '" + kind + "'");
}

int runSelect(core::PTDataStore& store, const std::vector<std::string>& args) {
  core::QuerySession session(store);
  bool csv = false;
  for (std::string arg : args) {
    if (arg == "--csv") {
      csv = true;
      continue;
    }
    const auto index = session.addFamily(parseFamilyArg(arg));
    std::printf("family %zu  %s  matches %zu results alone\n", index,
                session.families()[index].describe().c_str(),
                session.familyMatchCount(index));
  }
  std::printf("full pr-filter matches %zu results\n", session.totalMatchCount());
  core::ResultTable table = session.run();
  for (const std::string& type : table.freeResourceTypes()) {
    table.addColumn(type);
  }
  if (csv) {
    table.toCsv(std::cout);
  } else {
    std::fputs(table.toText().c_str(), stdout);
  }
  return 0;
}

}  // namespace

/// End-of-process stage report for --timing: the destructor prints the last
/// recorded query span (local executor or remote client, whichever ran) and
/// the process wall time to stderr, so stdout stays machine-parseable.
struct TimingReport {
  bool on = false;
  obs::StageTimer wall;

  ~TimingReport() {
    if (!on) return;
    const double wall_ms = static_cast<double>(wall.elapsedUs()) / 1000.0;
    const auto t = obs::Tracer::global().last();
    if (t.has_value()) {
      std::fprintf(stderr,
                   "timing:%s parse=%.3fms plan=%.3fms bind=%.3fms "
                   "execute=%.3fms rows=%llu (wall %.3fms)\n",
                   t->remote ? " [remote]" : "",
                   static_cast<double>(t->parse_us) / 1000.0,
                   static_cast<double>(t->plan_us) / 1000.0,
                   static_cast<double>(t->bind_us) / 1000.0,
                   static_cast<double>(t->exec_us) / 1000.0,
                   static_cast<unsigned long long>(t->rows), wall_ms);
    } else {
      std::fprintf(stderr, "timing: no query trace recorded (wall %.3fms)\n",
                   wall_ms);
    }
  }
};

int main(int argc, char** argv) {
  TimingReport timing_report;
  if (argc >= 2 && std::strcmp(argv[1], "--timing") == 0) {
    timing_report.on = true;
    // The user asked for this run's spans: defeat the tracer's rate limiter
    // so the report never comes up empty.
    obs::Tracer::global().setAlwaysSample(true);
    argv += 1;
    argc -= 1;
  }
  // "--connect host:port" is sugar for the "pt://host:port" connection
  // string: the whole command surface below runs against a ptserverd.
  std::string connect_target;
  if (argc >= 3 && std::strcmp(argv[1], "--connect") == 0) {
    connect_target = std::string("pt://") + argv[2];
    argv += 1;
    argc -= 1;
    argv[1] = const_cast<char*>(connect_target.c_str());
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s [--timing] <db>|--connect <host:port> "
                 "report|executions|metrics|types|tree <type>|"
                 "sql <stmt>|diff <execA> <execB>|select <family>...\n",
                 argv[0]);
    return 2;
  }
  try {
    auto conn = dbal::Connection::open(argv[1]);
    core::PTDataStore store(*conn);
    store.initialize();
    const std::string command = argv[2];
    if (command == "report") {
      std::fputs(core::storeReport(store).c_str(), stdout);
    } else if (command == "check") {
      const auto problems = core::verifyStore(store);
      if (problems.empty()) {
        std::printf("store is consistent\n");
      } else {
        for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
        return 1;
      }
    } else if (command == "executions") {
      std::fputs(core::executionReport(store).c_str(), stdout);
    } else if (command == "metrics") {
      std::fputs(core::metricReport(store).c_str(), stdout);
    } else if (command == "types") {
      for (const std::string& type : store.resourceTypes()) {
        std::printf("%s\n", type.c_str());
      }
    } else if (command == "tree" && argc >= 4) {
      std::fputs(core::resourceTreeReport(store, argv[3]).c_str(), stdout);
    } else if (command == "attrs" && argc >= 4) {
      // The GUI's attribute viewer: all attributes of one resource.
      const auto id = store.findResource(argv[3]);
      if (!id) {
        std::fprintf(stderr, "ptquery: no resource named '%s'\n", argv[3]);
        return 1;
      }
      for (const auto& attr : store.attributesOf(*id)) {
        std::printf("%s = %s (%s)\n", attr.name.c_str(), attr.value.c_str(),
                    attr.attr_type.c_str());
      }
    } else if (command == "children" && argc >= 4) {
      // Incremental browsing: one level of the resource tree on demand.
      const auto id = store.findResource(argv[3]);
      if (!id) {
        std::fprintf(stderr, "ptquery: no resource named '%s'\n", argv[3]);
        return 1;
      }
      for (const auto& child : store.childrenOf(*id)) {
        std::printf("%s [%s]\n", child.full_name.c_str(), child.type_path.c_str());
      }
    } else if (command == "sql" && argc >= 4) {
      if (isStreamingSql(argv[3])) {
        streamSql(*conn, argv[3]);
      } else {
        const auto rs = conn->exec(argv[3]);
        if (!rs.columns.empty()) {
          std::fputs(rs.toText().c_str(), stdout);
        } else {
          std::printf("%lld rows affected\n",
                      static_cast<long long>(rs.rows_affected));
        }
      }
    } else if ((command == "diff" || command == "--diff") && argc >= 5) {
      core::diag::Request req;
      req.exec_a = argv[3];
      req.exec_b = argv[4];
      for (int i = 5; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (flag == "--top" && value != nullptr) {
          const auto k = util::parseInt(value);
          if (!k || *k < 0 || *k > std::numeric_limits<std::uint32_t>::max()) {
            std::fprintf(stderr, "ptquery: bad --top value '%s'\n", value);
            return 2;
          }
          req.top_k = static_cast<std::uint32_t>(*k);
          ++i;
        } else if (flag == "--threshold" && value != nullptr) {
          const auto t = util::parseReal(value);
          if (!t || !std::isfinite(*t) || *t < 0) {
            std::fprintf(stderr, "ptquery: bad --threshold value '%s'\n", value);
            return 2;
          }
          req.ratio_threshold = *t;
          ++i;
        } else if (flag == "--abs" && value != nullptr) {
          const auto t = util::parseReal(value);
          if (!t || !std::isfinite(*t) || *t < 0) {
            std::fprintf(stderr, "ptquery: bad --abs value '%s'\n", value);
            return 2;
          }
          req.abs_threshold = *t;
          ++i;
        } else {
          std::fprintf(stderr, "ptquery: unknown diff flag '%s'\n", flag.c_str());
          return 2;
        }
      }
      std::fputs(conn->diff(req).toText().c_str(), stdout);
    } else if (command == "select") {
      return runSelect(store, {argv + 3, argv + argc});
    } else if (command == "session") {
      // Scripted GUI workflow: commands from a file, or stdin when omitted.
      std::size_t failures = 0;
      if (argc >= 4) {
        std::ifstream script(argv[3]);
        if (!script) {
          std::fprintf(stderr, "ptquery: cannot open session script '%s'\n", argv[3]);
          return 1;
        }
        failures = analyze::runSessionScript(store, script, std::cout);
      } else {
        failures = analyze::runSessionScript(store, std::cin, std::cout);
      }
      return failures == 0 ? 0 : 1;
    } else {
      std::fprintf(stderr, "ptquery: unknown command '%s'\n", command.c_str());
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptquery: %s\n", e.what());
    return 1;
  }
}
