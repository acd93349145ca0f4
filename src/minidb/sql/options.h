// minidb SQL execution options: the one table of per-engine knobs.
//
// Every execution knob is one row of optionTable(): its name, type, range,
// default and environment variable are written there and nowhere else, and
// its position is its wire id minus one (SET_OPTION). The env parser, the
// Engine, both dbal backends, the server session and ptserverd's flags and
// /varz lines all work from the rows (DESIGN.md §5.11).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace perftrack::minidb::sql {

/// Upper bound on ExecOptions::batch_rows. Must stay below 2^18:
/// cursor-fed morsels are one batch each, and morsel row ranks pack the
/// in-morsel position into 18 bits (kMorselRowBits).
inline constexpr std::size_t kMaxExecBatchRows = 65536;

/// Per-execution knobs, one field per optionTable() row (which holds the
/// defaults), resolved by the Engine.
struct ExecOptions {
  /// use_indexes: whether the planner may use B+-tree indexes (ablation).
  bool use_indexes;
  /// exec_threads: workers including the calling thread; 1 = serial path.
  int degree;
  /// exec_min_pages: heap pages table 0 must span before the plan goes
  /// parallel; 0 turns the gate off (tests force tiny tables parallel).
  std::size_t min_pages;
  /// exec_batch_rows: rows per RowBatch between operators (and inside
  /// worker loops).
  std::size_t batch_rows;
  /// invidx: whether the planner may answer IN-list probes from the
  /// inverted index.
  bool invidx;
};

enum class OptionType : std::uint8_t { Bool, Int };

/// One knob. Bool rows range over [0, 1].
struct OptionSpec {
  std::string_view name;
  OptionType type;
  std::int64_t min;
  std::int64_t max;
  std::int64_t def;
  const char* env;  // nullptr: no environment override
  std::int64_t (*get)(const ExecOptions&);
  void (*set)(ExecOptions&, std::int64_t);
};

inline constexpr std::size_t kOptionCount = 5;

/// The rows, in wire-id order: use_indexes, exec_threads, exec_batch_rows,
/// invidx, exec_min_pages.
const std::array<OptionSpec, kOptionCount>& optionTable();

/// Row index of `name`; throws util::SqlError for an unknown name.
std::size_t optionIndex(std::string_view name);

/// Row index of `name` once `value` is inside its range; throws
/// util::SqlError for an unknown name, or naming the option and its range.
std::size_t checkOption(std::string_view name, std::int64_t value);

/// Strict text form of a value (env vars, command-line flags): the whole
/// string must be 0/1/on/off/true/false (any case) for a bool row, or a
/// decimal integer inside the range for an int row. nullopt otherwise.
std::optional<std::int64_t> parseOptionValue(const OptionSpec& spec,
                                             std::string_view text);

/// Table defaults overridden by every env var that parses; malformed or
/// out-of-range env values leave the default in place. Resolved once per
/// process.
const ExecOptions& processOptions();

// Typed views of processOptions(), for callers that record the settings a
// run used (perfbench).
inline int defaultExecThreads() { return processOptions().degree; }
inline std::size_t defaultExecBatchRows() { return processOptions().batch_rows; }
inline bool defaultInvidxEnabled() { return processOptions().invidx; }

}  // namespace perftrack::minidb::sql
