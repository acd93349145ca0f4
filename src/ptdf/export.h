// PTdf export: dump an entire data store (or one execution) back to PTdf.
//
// PTdf is PerfTrack's interchange format; the paper's motivation is sharing
// performance data between "geographically separate data stores" without
// shipping "entire data sets". Export closes that loop: any store can be
// serialized to PTdf and loaded into another store (merging by the unique
// full resource names), and a single execution can be extracted for
// fine-grained exchange.
#pragma once

#include <string>

#include "core/datastore.h"
#include "ptdf/ptdf.h"

namespace perftrack::ptdf {

struct ExportStats {
  std::size_t resource_types = 0;
  std::size_t resources = 0;
  std::size_t attributes = 0;
  std::size_t constraints = 0;
  std::size_t executions = 0;
  std::size_t perf_results = 0;
};

/// Writes every non-base resource type, every resource (parents before
/// children) with its attributes and constraints, every execution, and
/// every performance result with its full context(s).
ExportStats exportStore(core::PTDataStore& store, Writer& writer);

/// Exports one execution: its results, the resources those results
/// reference (with their attributes), and the execution record itself —
/// the "only a small subset of the transferred data is actually needed"
/// exchange granularity from the paper's introduction. The execution is
/// read in a fixed set of statements, whatever its size (DESIGN.md §5.12).
/// An execution without results still exports its Application and
/// Execution records. Throws util::ModelError("no such execution: <name>")
/// for an unknown name, before anything is written.
ExportStats exportExecution(core::PTDataStore& store, const std::string& exec_name,
                            Writer& writer);

}  // namespace perftrack::ptdf
