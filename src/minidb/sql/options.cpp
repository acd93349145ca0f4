#include "minidb/sql/options.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "util/error.h"

namespace perftrack::minidb::sql {

const std::array<OptionSpec, kOptionCount>& optionTable() {
  using I = std::int64_t;
  constexpr I kMaxDegree = 1024;
  static const std::array<OptionSpec, kOptionCount> table{{
      {"use_indexes", OptionType::Bool, 0, 1, 1, nullptr,
       [](const ExecOptions& o) -> I { return o.use_indexes; },
       [](ExecOptions& o, I v) { o.use_indexes = v != 0; }},
      // Degrees past the pool's thread count still work (the caller steals
      // unclaimed slots), but each slot costs per-query state.
      {"exec_threads", OptionType::Int, 1, kMaxDegree,
       std::clamp<I>(std::thread::hardware_concurrency(), 1, kMaxDegree), "PT_EXEC_THREADS",
       [](const ExecOptions& o) -> I { return o.degree; },
       [](ExecOptions& o, I v) { o.degree = static_cast<int>(v); }},
      {"exec_batch_rows", OptionType::Int, 1, I{kMaxExecBatchRows}, 1024,
       "PT_EXEC_BATCH_ROWS", [](const ExecOptions& o) -> I { return I(o.batch_rows); },
       [](ExecOptions& o, I v) { o.batch_rows = static_cast<std::size_t>(v); }},
      {"invidx", OptionType::Bool, 0, 1, 1, "PT_INVIDX",
       [](const ExecOptions& o) -> I { return o.invidx; },
       [](ExecOptions& o, I v) { o.invidx = v != 0; }},
      {"exec_min_pages", OptionType::Int, 0, std::numeric_limits<std::int32_t>::max(),
       16, "PT_EXEC_MIN_PAGES", [](const ExecOptions& o) -> I { return I(o.min_pages); },
       [](ExecOptions& o, I v) { o.min_pages = static_cast<std::size_t>(v); }},
  }};
  return table;
}

std::size_t optionIndex(std::string_view name) {
  const auto& table = optionTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == name) return i;
  }
  throw util::SqlError("unknown option '" + std::string(name) + "'");
}

std::size_t checkOption(std::string_view name, std::int64_t value) {
  const std::size_t row = optionIndex(name);
  const OptionSpec& spec = optionTable()[row];
  if (value < spec.min || value > spec.max) {
    throw util::SqlError("option " + std::string(spec.name) + " must be in [" +
                         std::to_string(spec.min) + ", " +
                         std::to_string(spec.max) + "], got " +
                         std::to_string(value));
  }
  return row;
}

std::optional<std::int64_t> parseOptionValue(const OptionSpec& spec,
                                             std::string_view text) {
  if (spec.type == OptionType::Bool) {
    std::string lower(text);
    for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lower == "1" || lower == "on" || lower == "true") return 1;
    if (lower == "0" || lower == "off" || lower == "false") return 0;
    return std::nullopt;
  }
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (value < spec.min || value > spec.max) return std::nullopt;
  return value;
}

const ExecOptions& processOptions() {
  static const ExecOptions resolved = [] {
    ExecOptions opts{};
    for (const OptionSpec& spec : optionTable()) {
      std::int64_t value = spec.def;
      if (const char* env = spec.env != nullptr ? std::getenv(spec.env) : nullptr) {
        value = parseOptionValue(spec, env).value_or(spec.def);
      }
      spec.set(opts, value);
    }
    return opts;
  }();
  return resolved;
}

}  // namespace perftrack::minidb::sql
