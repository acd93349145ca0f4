#include "minidb/invidx/manager.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "minidb/database.h"

namespace perftrack::minidb::invidx {

Counters& counters() {
  static Counters c{
      obs::Registry::global().counter("pt_invidx_builds_total"),
      obs::Registry::global().counter("pt_invidx_build_rows_total"),
      obs::Registry::global().counter("pt_invidx_probes_total"),
      obs::Registry::global().counter("pt_invidx_intersections_total"),
      obs::Registry::global().counter("pt_invidx_unions_total"),
      obs::Registry::global().counter("pt_invidx_topk_early_exits_total"),
      obs::Registry::global().counter("pt_invidx_fallbacks_total"),
      obs::Registry::global().counter("pt_invidx_invalidations_total"),
      obs::Registry::global().gauge("pt_invidx_lists"),
      obs::Registry::global().gauge("pt_invidx_bytes"),
      obs::Registry::global().histogram("pt_invidx_build_ms"),
  };
  return c;
}

namespace {

/// Packs a RecordId the way the B-tree's big-endian rid suffix sorts:
/// ascending (page, slot).
std::uint64_t packRid(RecordId rid) {
  return (static_cast<std::uint64_t>(rid.page) << 16) | rid.slot;
}

PostingList sortedPosting(std::vector<std::uint64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return PostingList::fromSorted(ids);
}

}  // namespace

void Manager::retire(const TableState& t, std::vector<Entry>& entries,
                     std::uint64_t epoch, std::uint64_t oldest_seq) {
  std::erase_if(entries, [&](const Entry& e) {
    if (e.epoch == epoch && (e.version == t.version || e.hi > oldest_seq)) {
      return false;
    }
    if (e.index != nullptr) {
      counters().lists.add(-static_cast<std::int64_t>(e.index->listCount()));
      counters().bytes.add(-static_cast<std::int64_t>(e.index->byteSize()));
    }
    counters().invalidations.inc();
    return true;
  });
}

template <typename T, typename BuildFn>
std::shared_ptr<const T> Manager::getOrBuild(const std::string& table,
                                             const std::string& key,
                                             BuildFn build) {
  const std::uint64_t seq = db_->pager().snapshotScopeSeq();  // 0 = working state
  const std::uint64_t epoch = db_->schemaEpoch();
  // The first entry that holds this reader's view; a negative entry counts
  // as a fallback.
  const auto find = [&](const TableState& t,
                        const std::vector<Entry>& entries) -> const Entry* {
    for (const Entry& e : entries) {
      if (e.epoch != epoch) continue;
      if (seq == 0 ? e.version == t.version : e.lo <= seq && seq < e.hi) return &e;
    }
    return nullptr;
  };
  const auto answer = [](const Entry& e) -> std::shared_ptr<const T> {
    if (e.index == nullptr) counters().fallbacks.inc();
    return std::static_pointer_cast<const T>(e.index);
  };

  std::uint64_t version = 0;
  bool dirty = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TableState& t = tables_[table];
    if (const Entry* e = find(t, t.entries[key])) return answer(*e);
    version = t.version;
    dirty = t.dirty;
  }

  // Build outside the lock: a snapshot reader scans through its own
  // SnapshotScope, so concurrent commits neither block nor disturb it.
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const T> built = build();
  const double build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  const std::uint64_t oldest = db_->pager().oldestVisibleSeq();
  std::lock_guard<std::mutex> lock(mu_);
  TableState& t = tables_[table];
  std::vector<Entry>& entries = t.entries[key];
  if (const Entry* e = find(t, entries)) return answer(*e);  // a racing build won
  Entry entry;
  entry.epoch = epoch;
  entry.index = built;
  if (seq == 0) {
    entry.version = version;
    // Built from working state that equals the latest commit: snapshot
    // readers from that commit on may share it.
    if (!dirty && t.version == version) {
      entry.lo = t.changed_at;
      entry.hi = kOpen;
    }
  } else if (t.changed_at <= seq) {
    // No commit since `seq` changed the table: the build holds until one does.
    entry.lo = t.changed_at;
    entry.hi = kOpen;
    if (!t.dirty) entry.version = t.version;  // working state equals it too
  } else {
    // A later commit changed the table; only `seq` itself is known to match.
    entry.lo = seq;
    entry.hi = seq + 1;
  }
  retire(t, entries, epoch, oldest);
  entries.push_back(std::move(entry));
  if (built == nullptr) {
    counters().fallbacks.inc();
    return nullptr;
  }
  counters().builds.inc();
  counters().build_rows.inc(built->rows());
  counters().lists.add(static_cast<std::int64_t>(built->listCount()));
  counters().bytes.add(static_cast<std::int64_t>(built->byteSize()));
  counters().build_ms.observe(build_ms);
  return built;
}

std::shared_ptr<const RidIndex> Manager::ridIndex(const std::string& table,
                                                  int column) {
  const std::string key = "rid:" + table + ":" + std::to_string(column);
  return getOrBuild<RidIndex>(table, key, [&]() -> std::shared_ptr<const RidIndex> {
    const TableDef* def = db_->catalog().findTable(table);
    if (def == nullptr || column < 0 ||
        column >= static_cast<int>(def->columns.size()) ||
        def->columns[column].type != ColumnType::Integer) {
      return nullptr;
    }
    // Heap iteration visits ascending (page, slot), so the per-value rid
    // vectors come out sorted — the exact order a B-tree point probe emits.
    std::map<std::int64_t, std::vector<std::uint64_t>> per_value;
    std::size_t rows = 0;
    bool ok = true;
    db_->scan(table, [&](RecordId rid, const Row& row) {
      ++rows;
      const Value& v = row[static_cast<std::size_t>(column)];
      if (v.isNull()) return true;  // IN (...) never matches NULL
      if (!v.isInt()) {
        ok = false;  // non-integer under an INTEGER column: decline, the
        return false;  // B-tree path keeps cross-type equality semantics
      }
      per_value[v.asInt()].push_back(packRid(rid));
      return true;
    });
    if (!ok) return nullptr;
    auto idx = std::make_shared<RidIndex>();
    idx->rows_ = rows;
    for (auto& [value, rids] : per_value) {
      PostingList pl = PostingList::fromSorted(rids);
      idx->byte_size_ += pl.byteSize();
      idx->lists_.emplace(value, std::move(pl));
    }
    idx->list_count_ = idx->lists_.size();
    return idx;
  });
}

std::shared_ptr<const ValueIndex> Manager::valueIndex(const std::string& table,
                                                      const std::string& key_col,
                                                      const std::string& value_col) {
  const std::string key = "val:" + table + ":" + key_col + ":" + value_col;
  return getOrBuild<ValueIndex>(table, key, [&]() -> std::shared_ptr<const ValueIndex> {
    const TableDef* def = db_->catalog().findTable(table);
    if (def == nullptr) return nullptr;
    const int kc = def->columnIndex(key_col);
    const int vc = def->columnIndex(value_col);
    if (kc < 0 || vc < 0) return nullptr;
    std::unordered_map<std::int64_t, std::vector<std::uint64_t>> per_key;
    std::size_t rows = 0;
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    bool ok = true;
    db_->scan(table, [&](RecordId, const Row& row) {
      ++rows;
      const Value& k = row[static_cast<std::size_t>(kc)];
      const Value& v = row[static_cast<std::size_t>(vc)];
      // Ids must be non-negative integers (bitmap domain + uint64 posting
      // space); anything else sends callers back to the SQL path.
      if (!k.isInt() || !v.isInt() || k.asInt() < 0 || v.asInt() < 0) {
        ok = false;
        return false;
      }
      const std::uint64_t value = static_cast<std::uint64_t>(v.asInt());
      lo = std::min(lo, value);
      hi = std::max(hi, value);
      per_key[k.asInt()].push_back(value);
      return true;
    });
    if (!ok) return nullptr;
    auto idx = std::make_shared<ValueIndex>();
    idx->rows_ = rows;
    idx->value_lo_ = rows == 0 ? 0 : lo;
    idx->value_hi_ = rows == 0 ? 0 : hi;
    for (auto& [k, values] : per_key) {
      PostingList pl = sortedPosting(values);
      idx->byte_size_ += pl.byteSize();
      idx->lists_.emplace(k, std::move(pl));
    }
    idx->list_count_ = idx->lists_.size();
    return idx;
  });
}

std::shared_ptr<const NameIndex> Manager::nameIndex(const std::string& table,
                                                    const std::string& id_col,
                                                    const std::string& name_col,
                                                    const std::string& full_name_col) {
  const std::string key =
      "name:" + table + ":" + id_col + ":" + name_col + ":" + full_name_col;
  return getOrBuild<NameIndex>(table, key, [&]() -> std::shared_ptr<const NameIndex> {
    const TableDef* def = db_->catalog().findTable(table);
    if (def == nullptr) return nullptr;
    const int ic = def->columnIndex(id_col);
    const int nc = def->columnIndex(name_col);
    const int fc = def->columnIndex(full_name_col);
    if (ic < 0 || nc < 0 || fc < 0) return nullptr;
    std::unordered_map<std::string, std::vector<std::uint64_t>> segments;
    std::unordered_map<std::string, std::vector<std::uint64_t>> trigrams;
    std::unordered_map<std::string, std::vector<std::uint64_t>> base_names;
    auto idx = std::make_shared<NameIndex>();
    std::size_t rows = 0;
    bool ok = true;
    db_->scan(table, [&](RecordId, const Row& row) {
      ++rows;
      const Value& idv = row[static_cast<std::size_t>(ic)];
      const Value& namev = row[static_cast<std::size_t>(nc)];
      const Value& fullv = row[static_cast<std::size_t>(fc)];
      if (!idv.isInt() || idv.asInt() < 0 || !namev.isText() || !fullv.isText()) {
        ok = false;
        return false;
      }
      const std::uint64_t id = static_cast<std::uint64_t>(idv.asInt());
      const std::string& full = fullv.asText();
      base_names[namev.asText()].push_back(id);
      idx->full_names_.emplace(idv.asInt(), full);
      std::size_t start = 0;
      while (start < full.size()) {
        const std::size_t slash = full.find('/', start);
        const std::size_t end = slash == std::string::npos ? full.size() : slash;
        if (end > start) segments[full.substr(start, end - start)].push_back(id);
        start = end + 1;
      }
      for (std::size_t i = 0; i + 3 <= full.size(); ++i) {
        trigrams[full.substr(i, 3)].push_back(id);
      }
      return true;
    });
    if (!ok) return nullptr;
    idx->rows_ = rows;
    auto publish = [&](std::unordered_map<std::string, std::vector<std::uint64_t>>& src,
                       std::unordered_map<std::string, PostingList>& dst) {
      for (auto& [text, ids] : src) {
        PostingList pl = sortedPosting(ids);
        idx->byte_size_ += pl.byteSize() + text.size();
        dst.emplace(text, std::move(pl));
      }
      idx->list_count_ += dst.size();
    };
    publish(segments, idx->segments_);
    publish(trigrams, idx->trigrams_);
    publish(base_names, idx->base_names_);
    return idx;
  });
}

std::shared_ptr<const AttrIndex> Manager::attrIndex(const std::string& table,
                                                    const std::string& id_col,
                                                    const std::string& name_col,
                                                    const std::string& value_col) {
  const std::string key =
      "attr:" + table + ":" + id_col + ":" + name_col + ":" + value_col;
  return getOrBuild<AttrIndex>(table, key, [&]() -> std::shared_ptr<const AttrIndex> {
    const TableDef* def = db_->catalog().findTable(table);
    if (def == nullptr) return nullptr;
    const int ic = def->columnIndex(id_col);
    const int nc = def->columnIndex(name_col);
    const int vc = def->columnIndex(value_col);
    if (ic < 0 || nc < 0 || vc < 0) return nullptr;
    std::map<std::string, std::map<std::string, std::vector<std::uint64_t>>> grouped;
    std::size_t rows = 0;
    bool ok = true;
    db_->scan(table, [&](RecordId, const Row& row) {
      ++rows;
      const Value& idv = row[static_cast<std::size_t>(ic)];
      const Value& namev = row[static_cast<std::size_t>(nc)];
      const Value& valv = row[static_cast<std::size_t>(vc)];
      if (!idv.isInt() || idv.asInt() < 0 || !namev.isText() || !valv.isText()) {
        ok = false;  // legacy path renders values via asText(); only plain
        return false;  // text rows are guaranteed byte-identical
      }
      grouped[namev.asText()][valv.asText()].push_back(
          static_cast<std::uint64_t>(idv.asInt()));
      return true;
    });
    if (!ok) return nullptr;
    auto idx = std::make_shared<AttrIndex>();
    idx->rows_ = rows;
    for (auto& [name, values] : grouped) {
      std::vector<AttrIndex::ValuePosting> list;
      list.reserve(values.size());
      for (auto& [value, ids] : values) {
        AttrIndex::ValuePosting vp;
        vp.value = value;
        vp.ids = sortedPosting(ids);
        idx->byte_size_ += vp.ids.byteSize() + value.size();
        list.push_back(std::move(vp));
      }
      idx->list_count_ += list.size();
      idx->by_name_.emplace(name, std::move(list));
    }
    return idx;
  });
}

void Manager::onTableMutated(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& t = tables_[table];
  ++t.version;
  if (!t.dirty) {
    t.dirty = true;
    dirty_.push_back(&t);
  }
}

void Manager::onPublish(std::uint64_t seq) {
  const std::uint64_t epoch = db_->schemaEpoch();
  const std::uint64_t oldest = db_->pager().oldestVisibleSeq();
  std::lock_guard<std::mutex> lock(mu_);
  for (TableState* t : dirty_) {
    t->dirty = false;
    t->changed_at = seq;
    for (auto& [key, entries] : t->entries) {
      for (Entry& e : entries) {
        if (e.hi == kOpen) e.hi = seq;
      }
      retire(*t, entries, epoch, oldest);
    }
  }
  dirty_.clear();
}

}  // namespace perftrack::minidb::invidx
