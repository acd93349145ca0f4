#include "minidb/catalog.h"

#include "minidb/heap.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::minidb {

using util::StorageError;

bool NameLess::operator()(std::string_view a, std::string_view b) const {
  const auto lower = [](char c) {
    return static_cast<unsigned char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  };
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char x = lower(a[i]);
    const unsigned char y = lower(b[i]);
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

int TableDef::columnIndex(std::string_view column) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (util::iequals(columns[i].name, column)) return static_cast<int>(i);
  }
  return -1;
}

const IndexDef* TableDef::indexOnColumn(int column) const {
  for (const IndexDef* index : indexes) {
    if (!index->columns.empty() && index->columns.front() == column) return index;
  }
  return nullptr;
}

namespace {

// Catalog rows:
//   table: ["table", name, first_page, pk_ordinal, "col:TYPE,col:TYPE,..."]
//   index: ["index", name, root_page, unique, table, "0,2,..."]
Row tableRow(const TableDef& t) {
  std::vector<std::string> cols;
  cols.reserve(t.columns.size());
  for (const ColumnDef& c : t.columns) {
    cols.push_back(c.name + ":" + std::string(columnTypeName(c.type)));
  }
  return Row{Value("table"), Value(t.name), Value(static_cast<std::int64_t>(t.first_page)),
             Value(static_cast<std::int64_t>(t.primary_key)), Value(util::join(cols, ","))};
}

Row indexRow(const IndexDef& i) {
  std::vector<std::string> cols;
  cols.reserve(i.columns.size());
  for (int c : i.columns) cols.push_back(std::to_string(c));
  return Row{Value("index"),  Value(i.name), Value(static_cast<std::int64_t>(i.root)),
             Value(static_cast<std::int64_t>(i.unique ? 1 : 0)), Value(i.table),
             Value(util::join(cols, ","))};
}

ColumnType parseType(std::string_view name) {
  if (util::iequals(name, "INTEGER")) return ColumnType::Integer;
  if (util::iequals(name, "REAL")) return ColumnType::Real;
  if (util::iequals(name, "TEXT")) return ColumnType::Text;
  throw StorageError("catalog: unknown column type '" + std::string(name) + "'");
}

}  // namespace

void Catalog::load(const Pager& pager) {
  tables_.clear();
  indexes_.clear();
  const PageId first = pager.header().catalog_first_page;
  if (first == kInvalidPage) return;
  // HeapFile needs a mutable pager reference for insert paths we do not use.
  HeapFile heap(const_cast<Pager&>(pager), first);
  for (auto it = heap.begin(); !it.done(); it.next()) {
    const Row row = deserializeRow(it.data(), it.size());
    const std::string& kind = row.at(0).asText();
    if (kind == "table") {
      TableDef def;
      def.name = row.at(1).asText();
      def.first_page = static_cast<PageId>(row.at(2).asInt());
      def.primary_key = static_cast<int>(row.at(3).asInt());
      for (const std::string& spec : util::split(row.at(4).asText(), ',')) {
        if (spec.empty()) continue;
        const auto parts = util::split(spec, ':');
        if (parts.size() != 2) throw StorageError("catalog: bad column spec " + spec);
        def.columns.push_back({parts[0], parseType(parts[1])});
      }
      tables_.emplace(def.name, std::move(def));
    } else if (kind == "index") {
      IndexDef def;
      def.name = row.at(1).asText();
      def.root = static_cast<PageId>(row.at(2).asInt());
      def.unique = row.at(3).asInt() != 0;
      def.table = row.at(4).asText();
      for (const std::string& c : util::split(row.at(5).asText(), ',')) {
        if (!c.empty()) def.columns.push_back(static_cast<int>(*util::parseInt(c)));
      }
      indexes_.emplace(def.name, std::move(def));
    } else {
      throw StorageError("catalog: unknown entry kind '" + kind + "'");
    }
  }
  linkIndexes();
}

void Catalog::save(Pager& pager) const {
  // Free the previous chain, then write a fresh one.
  const PageId old = pager.header().catalog_first_page;
  if (old != kInvalidPage) {
    HeapFile(pager, old).destroy();
  }
  const PageId first = HeapFile::create(pager);
  HeapFile heap(pager, first);
  std::vector<std::uint8_t> buf;
  for (const auto& [name, def] : tables_) {
    buf.clear();
    serializeRow(tableRow(def), buf);
    heap.insert(buf.data(), buf.size());
  }
  for (const auto& [name, def] : indexes_) {
    buf.clear();
    serializeRow(indexRow(def), buf);
    heap.insert(buf.data(), buf.size());
  }
  pager.headerForWrite().catalog_first_page = first;
}

const TableDef* Catalog::findTable(std::string_view name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const IndexDef* Catalog::findIndex(std::string_view name) const {
  const auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second;
}

void Catalog::linkIndexes() {
  for (auto& [name, def] : tables_) def.indexes.clear();
  for (const auto& [name, def] : indexes_) {
    const auto it = tables_.find(def.table);
    if (it != tables_.end()) it->second.indexes.push_back(&def);
  }
}

void Catalog::addTable(TableDef def) {
  if (tables_.contains(def.name)) {
    throw StorageError("catalog: table '" + def.name + "' already exists");
  }
  tables_.emplace(def.name, std::move(def));
  linkIndexes();
}

void Catalog::addIndex(IndexDef def) {
  if (indexes_.contains(def.name)) {
    throw StorageError("catalog: index '" + def.name + "' already exists");
  }
  indexes_.emplace(def.name, std::move(def));
  linkIndexes();
}

void Catalog::removeTable(std::string_view name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw StorageError("catalog: no table named '" + std::string(name) + "'");
  }
  // Its indexes belong to no other table, so no other list changes.
  for (const IndexDef* index : it->second.indexes) indexes_.erase(indexes_.find(index->name));
  tables_.erase(it);
}

void Catalog::removeIndex(std::string_view name) {
  const auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    throw StorageError("catalog: no index named '" + std::string(name) + "'");
  }
  indexes_.erase(it);
  linkIndexes();
}

void Catalog::setTableFirstPage(std::string_view name, PageId first_page) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw StorageError("catalog: no table named '" + std::string(name) + "'");
  }
  it->second.first_page = first_page;
}

void Catalog::setIndexRoot(std::string_view name, PageId root) {
  const auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    throw StorageError("catalog: no index named '" + std::string(name) + "'");
  }
  it->second.root = root;
}

}  // namespace perftrack::minidb
