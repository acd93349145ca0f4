// RowBatch: the unit of data flow between pipeline operators.
//
// A batch is column-major — `cols[c][i]` is column c of row i — so operators
// that touch one column (filters, projections, aggregate arguments) walk a
// contiguous vector instead of hopping across materialized rows. Deleted rows
// are never compacted out of the columns; instead `sel` holds the ascending
// indices of the rows still alive, and consumers iterate `for (i : sel)`.
// Filters shrink `sel` in place, which keeps predicate chains allocation-free.
//
// `keys` carries ORDER BY sort keys alongside the output columns (same layout,
// same indices) for the Sort operator; it is empty everywhere else.
//
// `capacity` is how many rows the *producer* should fill per refill. 0 means
// "use your configured default" (ExecOptions::batch_rows); drivers such as the
// cursor layer and the server FETCH path set it explicitly.
#pragma once

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "minidb/value.h"

namespace perftrack::minidb::sql {

struct RowBatch {
  std::size_t capacity = 0;  ///< rows per refill; 0 = producer's default
  std::size_t nrows = 0;     ///< rows filled (including filtered-out ones)
  std::vector<std::vector<Value>> cols;  ///< [column][row]
  std::vector<std::vector<Value>> keys;  ///< ORDER BY keys, [key][row]
  std::vector<std::uint32_t> sel;        ///< ascending indices of live rows

  /// Live rows (what a consumer actually sees).
  std::size_t active() const { return sel.size(); }
  bool empty() const { return sel.empty(); }

  /// Clears row data but keeps the column/key arity (and capacity).
  void clearRows() {
    for (auto& c : cols) c.clear();
    for (auto& k : keys) k.clear();
    sel.clear();
    nrows = 0;
  }

  /// Sets the column/key arity and clears row data.
  void reset(std::size_t ncols, std::size_t nkeys) {
    cols.resize(ncols);
    keys.resize(nkeys);
    clearRows();
  }

  /// Appends a live row by copying; widens the batch if the arity differs.
  void append(const Row& row, const std::vector<Value>& key_vals) {
    if (cols.size() != row.size()) cols.resize(row.size());
    growKeys(key_vals.size(), nrows);
    for (std::size_t c = 0; c < row.size(); ++c) cols[c].push_back(row[c]);
    for (std::size_t k = 0; k < keys.size(); ++k)
      keys[k].push_back(k < key_vals.size() ? key_vals[k] : Value());
    sel.push_back(static_cast<std::uint32_t>(nrows++));
  }

  /// Appends a live row by moving the values out of `row`; the row keeps its
  /// size (values are left moved-from) so callers can `row.clear()` and reuse
  /// the buffer.
  void appendMoveValues(Row& row) {
    if (cols.size() != row.size()) cols.resize(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) cols[c].push_back(std::move(row[c]));
    sel.push_back(static_cast<std::uint32_t>(nrows++));
  }

  /// Same, with ORDER BY keys. Rows with fewer keys than the batch (or vice
  /// versa) are padded with NULLs so every key column stays rectangular.
  void appendMoveValues(Row& row, std::vector<Value>& key_vals) {
    appendMoveValues(row);
    growKeys(key_vals.size(), nrows - 1);
    for (std::size_t k = 0; k < keys.size(); ++k)
      keys[k].push_back(k < key_vals.size() ? std::move(key_vals[k]) : Value());
  }

  /// Copies row `i` (a value from `sel`) into `out`. A column the producer
  /// left empty (a joined batch fills only the columns read above the join)
  /// reads as NULL.
  void materializeRow(std::uint32_t i, Row& out) const {
    out.clear();
    out.reserve(cols.size());
    for (const auto& c : cols) out.push_back(i < c.size() ? c[i] : Value());
  }

  /// Moves row `i` out of the batch (each value is left moved-from; valid
  /// only when the batch is being drained and discarded).
  void takeRow(std::uint32_t i, Row& out) {
    out.clear();
    out.reserve(cols.size());
    for (auto& c : cols) out.push_back(std::move(c[i]));
  }

  /// Copies the ORDER BY keys of row `i` into `out`.
  void materializeKeys(std::uint32_t i, std::vector<Value>& out) const {
    out.clear();
    out.reserve(keys.size());
    for (const auto& k : keys) out.push_back(k[i]);
  }

  /// Moves the ORDER BY keys of row `i` into `out` (drain-and-discard only).
  void takeKeys(std::uint32_t i, std::vector<Value>& out) {
    out.clear();
    out.reserve(keys.size());
    for (auto& k : keys) out.push_back(std::move(k[i]));
  }

 private:
  /// Widens `keys` to `n` columns, back-filling NULLs for the `prior` rows
  /// already in the batch (a row appended before any keyed row appeared).
  void growKeys(std::size_t n, std::size_t prior) {
    if (keys.size() >= n) return;
    const std::size_t old = keys.size();
    keys.resize(n);
    for (std::size_t k = old; k < n; ++k) keys[k].resize(prior);
  }
};

}  // namespace perftrack::minidb::sql
