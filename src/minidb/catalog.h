// minidb: system catalog — persistent table and index definitions.
//
// The catalog lives in its own heap chain (anchored in the header page), one
// serialized row per table or index. DDL is rare, so catalog mutation simply
// rewrites the chain. The in-memory Catalog object is a cache rebuilt from
// pages on open and after a rollback of DDL.
//
// Names resolve once, at DDL or plan time, never per row: a table or index
// lookup is one map find under an ASCII case-insensitive order (defs keep
// their declared spelling), and each TableDef carries the list of its
// indexes. Every mutation rebuilds those lists eagerly, so const readers
// (the planner on snapshot-reader threads) never write.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/pager.h"
#include "minidb/types.h"
#include "minidb/value.h"

namespace perftrack::minidb {

/// ASCII case-insensitive order on catalog names, transparent so finds
/// take any string_view. Two names are equivalent exactly when
/// util::iequals says so.
struct NameLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::Text;
};

struct IndexDef {
  std::string name;
  std::string table;
  std::vector<int> columns;  // column ordinals in key order
  bool unique = false;
  PageId root = kInvalidPage;
};

struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  int primary_key = -1;  // column ordinal, or -1 when the table has no PK
  PageId first_page = kInvalidPage;
  /// Every index on this table, in index-name order. Filled by the Catalog
  /// that owns this def and pointing into it; empty until added to one.
  std::vector<const IndexDef*> indexes;

  /// Ordinal of `column`, or -1.
  int columnIndex(std::string_view column) const;

  /// An index whose leading column is `column`, or nullptr.
  const IndexDef* indexOnColumn(int column) const;
};

/// In-memory view of the catalog with load/save against the pager.
class Catalog {
 public:
  using TableMap = std::map<std::string, TableDef, NameLess>;
  using IndexMap = std::map<std::string, IndexDef, NameLess>;

  Catalog() = default;
  // Each TableDef's index list points into this object's index map.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  void load(const Pager& pager);
  void save(Pager& pager) const;

  const TableDef* findTable(std::string_view name) const;
  const IndexDef* findIndex(std::string_view name) const;

  void addTable(TableDef def);
  void addIndex(IndexDef def);
  void removeTable(std::string_view name);  // also removes its indexes
  void removeIndex(std::string_view name);

  /// Repoints a table's heap chain (used by VACUUM). Throws when absent.
  void setTableFirstPage(std::string_view name, PageId first_page);
  /// Repoints an index's root (used by VACUUM). Throws when absent.
  void setIndexRoot(std::string_view name, PageId root);

  const TableMap& tables() const { return tables_; }
  const IndexMap& indexes() const { return indexes_; }

 private:
  /// Rebuilds every TableDef::indexes from the index map.
  void linkIndexes();

  TableMap tables_;
  IndexMap indexes_;
};

}  // namespace perftrack::minidb
