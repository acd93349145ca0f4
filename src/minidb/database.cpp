#include "minidb/database.h"

#include "minidb/keycodec.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::minidb {

using util::StorageError;

namespace {

/// The encoded key columns of `row` under `index` (a unique probe's prefix).
EncodedKey keyPrefixFor(const IndexDef& index, const Row& row) {
  EncodedKey key;
  for (int c : index.columns) encodeValue(row.at(c), key);
  return key;
}

/// The full B+-tree entry for `row` at `rid`: key columns, then the rid.
EncodedKey indexKeyFor(const IndexDef& index, const Row& row, RecordId rid) {
  EncodedKey key = keyPrefixFor(index, row);
  encodeRecordIdSuffix(rid, key);
  return key;
}

}  // namespace

std::unique_ptr<Database> Database::open(const std::string& path) {
  return open(path, OpenOptions{});
}

std::unique_ptr<Database> Database::open(const std::string& path,
                                         const OpenOptions& options) {
  return std::make_unique<Database>(std::make_unique<FilePager>(
      path, options.durability, options.vfs, options.wal_autocheckpoint));
}

std::unique_ptr<Database> Database::openMemory() {
  return std::make_unique<Database>(std::make_unique<MemPager>());
}

Database::Database(std::unique_ptr<Pager> pager) : pager_(std::move(pager)) {
  catalog_.load(*pager_);
  pager_->setPublishHook([this](std::uint64_t seq) { invidx_.onPublish(seq); });
}

Database::~Database() {
  // The pager outlives the manager (it may still publish on close).
  pager_->setPublishHook(nullptr);
}

const TableDef& Database::tableOrThrow(const std::string& name) const {
  const TableDef* def = catalog_.findTable(name);
  if (def == nullptr) throw StorageError("no such table: " + name);
  return *def;
}

void Database::assertNoOpenCursors(const char* op) const {
  if (open_cursors_ > 0) {
    throw StorageError(std::string(op) + ": " + std::to_string(open_cursors_) +
                       " cursor(s) still open on this database");
  }
}

void Database::assertNoCursorsAtAll(const char* op) const {
  assertNoOpenCursors(op);
  if (snapshot_cursors_ > 0) {
    throw StorageError(std::string(op) + ": " + std::to_string(snapshot_cursors_) +
                       " snapshot cursor(s) still open on this database");
  }
}

void Database::noteSchemaChange() {
  if (pager_->inTransaction()) txn_schema_touched_ = true;
  ++schema_epoch_;
}

// --- cursors -----------------------------------------------------------------

Database::TableCursor::TableCursor(const Database& db, PageId first_page)
    : pin_(db), it_(db.pager_.get(), first_page, 0) {}

bool Database::TableCursor::next(RecordId& rid, Row& row) {
  if (!pin_.active() || it_.done()) {
    close();
    return false;
  }
  rid = it_.rid();
  row = deserializeRow(it_.data(), it_.size());
  it_.next();
  return true;
}

void Database::TableCursor::close() { pin_.release(); }

Database::IndexCursor::IndexCursor(const Database& db, const IndexDef& index,
                                   const TableDef& table)
    : db_(&db),
      pin_(db),
      index_name_(index.name),
      columns_(index.columns),
      heap_first_(table.first_page) {}

bool Database::IndexCursor::next(RecordId& rid, Row& row) {
  if (!pin_.active()) return false;
  HeapFile heap(const_cast<Pager&>(*db_->pager_), heap_first_);
  std::vector<std::uint8_t> buf;
  while (it_ && !it_->done()) {
    const std::string_view key = it_->key();
    if (equal_mode_ && key.substr(0, prefix_.size()) != prefix_) break;
    const RecordId cur = decodeRecordIdSuffix(std::string(key));
    it_->next();
    if (!heap.read(cur, buf)) {
      close();
      throw StorageError("index cursor: dangling index entry in " + index_name_);
    }
    Row candidate = deserializeRow(buf.data(), buf.size());
    if (equal_mode_) {
      // Numeric index keys round through double; re-verify with exact values.
      bool exact = true;
      for (std::size_t i = 0; i < key_prefix_.size(); ++i) {
        if (candidate.at(columns_[i]).compare(key_prefix_[i]) != 0) {
          exact = false;
          break;
        }
      }
      if (!exact) continue;
    } else {
      const Value& v = candidate.at(first_col_);
      if (lower_) {
        const int c = v.compare(*lower_);
        if (c < 0 || (c == 0 && !lower_inclusive_)) continue;
      }
      if (upper_) {
        const int c = v.compare(*upper_);
        if (c > 0 || (c == 0 && !upper_inclusive_)) break;
      }
    }
    rid = cur;
    row = std::move(candidate);
    return true;
  }
  close();
  return false;
}

void Database::IndexCursor::close() {
  it_.reset();
  pin_.release();
}

Database::TableCursor Database::openCursor(const std::string& table) const {
  const TableDef& def = tableOrThrow(table);
  return TableCursor(*this, def.first_page);
}

Database::IndexCursor Database::openIndexEqual(const IndexDef& index,
                                               std::vector<Value> key_prefix) const {
  const TableDef& table = tableOrThrow(index.table);
  IndexCursor cur(*this, index, table);
  cur.equal_mode_ = true;
  cur.prefix_ = encodeKey(key_prefix);
  cur.key_prefix_ = std::move(key_prefix);
  cur.it_ = BTree(const_cast<Pager&>(*pager_), index.root).lowerBound(cur.prefix_);
  return cur;
}

Database::IndexCursor Database::openIndexRange(const IndexDef& index,
                                               std::optional<Value> lower,
                                               bool lower_inclusive,
                                               std::optional<Value> upper,
                                               bool upper_inclusive) const {
  const TableDef& table = tableOrThrow(index.table);
  IndexCursor cur(*this, index, table);
  cur.equal_mode_ = false;
  cur.lower_ = std::move(lower);
  cur.upper_ = std::move(upper);
  cur.lower_inclusive_ = lower_inclusive;
  cur.upper_inclusive_ = upper_inclusive;
  cur.first_col_ = index.columns.front();
  EncodedKey start;
  if (cur.lower_) encodeValue(*cur.lower_, start);
  cur.it_ = BTree(const_cast<Pager&>(*pager_), index.root).lowerBound(start);
  return cur;
}

void Database::createTable(const std::string& name, std::vector<ColumnDef> columns,
                           int primary_key) {
  assertNoCursorsAtAll("CREATE TABLE");
  if (columns.empty()) throw StorageError("createTable: no columns");
  if (primary_key >= static_cast<int>(columns.size())) {
    throw StorageError("createTable: primary key ordinal out of range");
  }
  if (primary_key >= 0 && columns[primary_key].type != ColumnType::Integer) {
    throw StorageError("createTable: primary key must be INTEGER");
  }
  TableDef def;
  def.name = name;
  def.columns = std::move(columns);
  def.primary_key = primary_key;
  def.first_page = HeapFile::create(*pager_);
  catalog_.addTable(def);
  noteSchemaChange();
  if (primary_key >= 0) {
    IndexDef pk;
    pk.name = name + "__pk";
    pk.table = name;
    pk.columns = {primary_key};
    pk.unique = true;
    pk.root = BTree::create(*pager_);
    catalog_.addIndex(std::move(pk));
  }
  catalog_.save(*pager_);
}

void Database::dropTable(const std::string& name) {
  assertNoCursorsAtAll("DROP TABLE");
  const TableDef& def = tableOrThrow(name);
  for (const IndexDef* index : def.indexes) BTree(*pager_, index->root).destroy();
  HeapFile(*pager_, def.first_page).destroy();
  next_ids_.erase(def.name);
  catalog_.removeTable(name);
  noteSchemaChange();
  catalog_.save(*pager_);
}

void Database::createIndex(const std::string& name, const std::string& table,
                           const std::vector<std::string>& columns, bool unique) {
  assertNoCursorsAtAll("CREATE INDEX");
  const TableDef& def = tableOrThrow(table);
  IndexDef index;
  index.name = name;
  index.table = def.name;
  index.unique = unique;
  for (const std::string& col : columns) {
    const int ordinal = def.columnIndex(col);
    if (ordinal < 0) {
      throw StorageError("createIndex: no column '" + col + "' in " + table);
    }
    index.columns.push_back(ordinal);
  }
  index.root = BTree::create(*pager_);
  // Backfill from existing rows.
  BTree tree(*pager_, index.root);
  HeapFile heap(*pager_, def.first_page);
  for (auto it = heap.begin(); !it.done(); it.next()) {
    const Row row = deserializeRow(it.data(), it.size());
    if (unique) {
      const EncodedKey prefix = keyPrefixFor(index, row);
      auto probe = tree.lowerBound(prefix);
      if (!probe.done() && probe.key().substr(0, prefix.size()) == prefix) {
        BTree(*pager_, index.root).destroy();
        throw StorageError("createIndex: duplicate keys violate UNIQUE for " + name);
      }
    }
    tree.insert(indexKeyFor(index, row, it.rid()));
  }
  catalog_.addIndex(std::move(index));
  noteSchemaChange();
  catalog_.save(*pager_);
}

void Database::dropIndex(const std::string& name) {
  assertNoCursorsAtAll("DROP INDEX");
  const IndexDef* def = catalog_.findIndex(name);
  if (def == nullptr) throw StorageError("no such index: " + name);
  BTree(*pager_, def->root).destroy();
  catalog_.removeIndex(name);
  noteSchemaChange();
  catalog_.save(*pager_);
}

void Database::checkUnique(const IndexDef& index, const Row& row) const {
  const EncodedKey prefix = keyPrefixFor(index, row);
  BTree tree(const_cast<Pager&>(*pager_), index.root);
  auto it = tree.lowerBound(prefix);
  if (!it.done() && it.key().substr(0, prefix.size()) == prefix) {
    throw StorageError("UNIQUE constraint violated on index " + index.name);
  }
}

void Database::insertIntoIndexes(const TableDef& table, const Row& row, RecordId rid) {
  for (const IndexDef* index : table.indexes) {
    BTree(*pager_, index->root).insert(indexKeyFor(*index, row, rid));
  }
}

void Database::removeFromIndexes(const TableDef& table, const Row& row, RecordId rid) {
  for (const IndexDef* index : table.indexes) {
    BTree(*pager_, index->root).erase(indexKeyFor(*index, row, rid));
  }
}

std::int64_t Database::nextId(const TableDef& table) {
  auto it = next_ids_.find(table.name);
  if (it == next_ids_.end()) {
    // First auto-assignment since open/rollback: find the current maximum.
    std::int64_t max_id = 0;
    HeapFile heap(*pager_, table.first_page);
    for (auto rec = heap.begin(); !rec.done(); rec.next()) {
      const Row row = deserializeRow(rec.data(), rec.size());
      const Value& pk = row.at(table.primary_key);
      if (pk.isInt() && pk.asInt() > max_id) max_id = pk.asInt();
    }
    it = next_ids_.emplace(table.name, max_id).first;
  }
  return ++it->second;
}

std::int64_t Database::insertRow(const std::string& table_name, Row row) {
  return insertRow(tableOrThrow(table_name), std::move(row));
}

std::int64_t Database::insertRow(const TableDef& table, Row row) {
  assertNoOpenCursors("INSERT");
  if (row.size() != table.columns.size()) {
    throw StorageError("insertRow: expected " + std::to_string(table.columns.size()) +
                       " values for " + table.name + ", got " + std::to_string(row.size()));
  }
  std::int64_t pk_value = 0;
  if (table.primary_key >= 0) {
    Value& pk = row[table.primary_key];
    if (pk.isNull()) pk = Value(nextId(table));
    pk_value = pk.asInt();
  }
  for (const IndexDef* index : table.indexes) {
    if (index->unique) checkUnique(*index, row);
  }
  std::vector<std::uint8_t> buf;
  serializeRow(row, buf);
  HeapFile heap(*pager_, table.first_page);
  const RecordId rid = heap.insert(buf.data(), buf.size());
  insertIntoIndexes(table, row, rid);
  invidx_.onTableMutated(table.name);
  return pk_value;
}

bool Database::eraseRow(const TableDef& table, RecordId rid) {
  assertNoOpenCursors("DELETE");
  HeapFile heap(*pager_, table.first_page);
  std::vector<std::uint8_t> buf;
  if (!heap.read(rid, buf)) return false;
  const Row row = deserializeRow(buf.data(), buf.size());
  removeFromIndexes(table, row, rid);
  heap.erase(rid);
  invidx_.onTableMutated(table.name);
  return true;
}

void Database::updateRow(const TableDef& table, RecordId rid, const Row& row) {
  assertNoOpenCursors("UPDATE");
  if (row.size() != table.columns.size()) {
    throw StorageError("updateRow: wrong column count for " + table.name);
  }
  HeapFile heap(*pager_, table.first_page);
  std::vector<std::uint8_t> old_buf;
  if (!heap.read(rid, old_buf)) throw StorageError("updateRow: record not found");
  const Row old_row = deserializeRow(old_buf.data(), old_buf.size());
  removeFromIndexes(table, old_row, rid);
  for (const IndexDef* index : table.indexes) {
    if (index->unique) checkUnique(*index, row);
  }
  std::vector<std::uint8_t> buf;
  serializeRow(row, buf);
  const RecordId new_rid = heap.update(rid, buf.data(), buf.size());
  insertIntoIndexes(table, row, new_rid);
  invidx_.onTableMutated(table.name);
}

std::optional<Row> Database::readRow(const std::string& table_name, RecordId rid) const {
  const TableDef& table = tableOrThrow(table_name);
  HeapFile heap(const_cast<Pager&>(*pager_), table.first_page);
  std::vector<std::uint8_t> buf;
  if (!heap.read(rid, buf)) return std::nullopt;
  return deserializeRow(buf.data(), buf.size());
}

void Database::scan(const std::string& table_name,
                    const std::function<bool(RecordId, const Row&)>& fn) const {
  const TableDef& table = tableOrThrow(table_name);
  HeapFile heap(const_cast<Pager&>(*pager_), table.first_page);
  for (auto it = heap.begin(); !it.done(); it.next()) {
    const Row row = deserializeRow(it.data(), it.size());
    if (!fn(it.rid(), row)) return;
  }
}

void Database::indexScanEqual(const IndexDef& index, const std::vector<Value>& key_prefix,
                              const std::function<bool(RecordId, const Row&)>& fn) const {
  const TableDef& table = tableOrThrow(index.table);
  const EncodedKey prefix = encodeKey(key_prefix);
  BTree tree(const_cast<Pager&>(*pager_), index.root);
  HeapFile heap(const_cast<Pager&>(*pager_), table.first_page);
  std::vector<std::uint8_t> buf;
  for (auto it = tree.lowerBound(prefix); !it.done(); it.next()) {
    const std::string_view key = it.key();
    if (key.substr(0, prefix.size()) != prefix) break;
    const RecordId rid = decodeRecordIdSuffix(std::string(key));
    if (!heap.read(rid, buf)) {
      throw StorageError("indexScanEqual: dangling index entry in " + index.name);
    }
    const Row row = deserializeRow(buf.data(), buf.size());
    // Numeric index keys round through double; re-verify with exact values.
    bool exact = true;
    for (std::size_t i = 0; i < key_prefix.size(); ++i) {
      if (row.at(index.columns[i]).compare(key_prefix[i]) != 0) {
        exact = false;
        break;
      }
    }
    if (exact && !fn(rid, row)) return;
  }
}

void Database::indexScanRange(const IndexDef& index, const std::optional<Value>& lower,
                              bool lower_inclusive, const std::optional<Value>& upper,
                              bool upper_inclusive,
                              const std::function<bool(RecordId, const Row&)>& fn) const {
  const TableDef& table = tableOrThrow(index.table);
  EncodedKey start;
  if (lower) encodeValue(*lower, start);
  BTree tree(const_cast<Pager&>(*pager_), index.root);
  HeapFile heap(const_cast<Pager&>(*pager_), table.first_page);
  const int first_col = index.columns.front();
  std::vector<std::uint8_t> buf;
  for (auto it = tree.lowerBound(start); !it.done(); it.next()) {
    const RecordId rid = decodeRecordIdSuffix(std::string(it.key()));
    if (!heap.read(rid, buf)) {
      throw StorageError("indexScanRange: dangling index entry in " + index.name);
    }
    const Row row = deserializeRow(buf.data(), buf.size());
    const Value& v = row.at(first_col);
    if (lower) {
      const int c = v.compare(*lower);
      if (c < 0 || (c == 0 && !lower_inclusive)) continue;
    }
    if (upper) {
      const int c = v.compare(*upper);
      if (c > 0 || (c == 0 && !upper_inclusive)) break;
    }
    if (!fn(rid, row)) return;
  }
}

void Database::vacuum() {
  assertNoCursorsAtAll("VACUUM");
  if (pager_->inTransaction()) {
    throw StorageError("VACUUM is not allowed inside a transaction");
  }
  // Rewrite each heap compactly, then rebuild its indexes against the new
  // record ids. Old pages go back to the free list, so the logical size
  // stops growing and space from deleted rows is reused.
  for (const auto& [table_name, def] : catalog_.tables()) {
    HeapFile old_heap(*pager_, def.first_page);
    const PageId fresh_first = HeapFile::create(*pager_);
    HeapFile fresh(*pager_, fresh_first);

    std::vector<std::pair<Row, RecordId>> moved;  // row + new rid
    for (auto it = old_heap.begin(); !it.done(); it.next()) {
      const RecordId rid = fresh.insert(it.data(), it.size());
      moved.emplace_back(deserializeRow(it.data(), it.size()), rid);
    }
    old_heap.destroy();
    catalog_.setTableFirstPage(table_name, fresh_first);

    for (const IndexDef* index : def.indexes) {
      BTree(*pager_, index->root).destroy();
      const PageId fresh_root = BTree::create(*pager_);
      BTree tree(*pager_, fresh_root);
      for (const auto& [row, rid] : moved) tree.insert(indexKeyFor(*index, row, rid));
      catalog_.setIndexRoot(index->name, fresh_root);
    }
  }
  catalog_.save(*pager_);
  pager_->flush();
  ++schema_epoch_;
}

std::vector<std::string> Database::verifyIntegrity() const {
  std::vector<std::string> problems;
  for (const auto& [table_name, def] : catalog_.tables()) {
    // Collect the expected index keys from the heap.
    HeapFile heap(const_cast<Pager&>(*pager_), def.first_page);
    std::size_t live_rows = 0;
    std::vector<std::pair<Row, RecordId>> rows;
    for (auto it = heap.begin(); !it.done(); it.next()) {
      rows.emplace_back(deserializeRow(it.data(), it.size()), it.rid());
      ++live_rows;
    }
    for (const IndexDef* index : def.indexes) {
      BTree tree(const_cast<Pager&>(*pager_), index->root);
      // Heap -> index: every live row must be findable.
      for (const auto& [row, rid] : rows) {
        if (!tree.contains(indexKeyFor(*index, row, rid))) {
          problems.push_back("index " + index->name + " is missing the entry for a "
                             "live row of " + table_name);
        }
      }
      // Index -> heap: every entry must point at a live record, and the
      // entry count must equal the row count (no duplicates, no orphans).
      std::size_t entries = 0;
      for (auto it = tree.begin(); !it.done(); it.next()) {
        ++entries;
        const RecordId rid = decodeRecordIdSuffix(std::string(it.key()));
        std::vector<std::uint8_t> buf;
        if (!heap.read(rid, buf)) {
          problems.push_back("index " + index->name +
                             " holds an entry for a deleted record of " + table_name);
        }
      }
      if (entries != live_rows) {
        problems.push_back("index " + index->name + " has " + std::to_string(entries) +
                           " entries for " + std::to_string(live_rows) +
                           " live rows of " + table_name);
      }
    }
  }
  return problems;
}

void Database::begin() {
  pager_->beginJournal();
  txn_schema_touched_ = false;
}

void Database::commit() {
  pager_->commitJournal();
  txn_schema_touched_ = false;
  pager_->flush();
}

std::uint64_t Database::commitDeferred() {
  pager_->commitJournal();
  txn_schema_touched_ = false;
  return pager_->flushAsync();
}

void Database::rollback() {
  assertNoOpenCursors("ROLLBACK");
  const bool schema_touched = txn_schema_touched_;
  pager_->rollbackJournal();
  txn_schema_touched_ = false;
  // Pages reverted under us: rebuild every cache derived from them. The
  // catalog reload only matters (and is only safe against concurrent
  // snapshot readers) when the transaction ran DDL, which requires schema
  // exclusion from the server's gate.
  if (schema_touched) catalog_.load(*pager_);
  next_ids_.clear();
  ++schema_epoch_;
}

}  // namespace perftrack::minidb
