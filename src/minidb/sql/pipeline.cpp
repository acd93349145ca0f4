// minidb SQL execution pipeline: planning, expression evaluation, and the
// Volcano-style operator tree (see pipeline.h for the shape).
#include "minidb/sql/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "minidb/keycodec.h"
#include "minidb/sql/exec_pool.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::minidb::sql {

using util::SqlError;

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

namespace {

bool likeMatch(std::string_view text, std::string_view pattern) {
  // Classic two-pointer wildcard matcher: '%' = any run, '_' = any one char.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value arith(BinaryOp op, const Value& a, const Value& b) {
  if (a.isNull() || b.isNull()) return Value::null();
  if (a.isInt() && b.isInt()) {
    const std::int64_t x = a.asInt();
    const std::int64_t y = b.asInt();
    switch (op) {
      case BinaryOp::Add: return Value(x + y);
      case BinaryOp::Sub: return Value(x - y);
      case BinaryOp::Mul: return Value(x * y);
      case BinaryOp::Div:
        if (y == 0) return Value::null();
        return Value(x / y);
      default: break;
    }
  }
  const double x = a.asReal();
  const double y = b.asReal();
  switch (op) {
    case BinaryOp::Add: return Value(x + y);
    case BinaryOp::Sub: return Value(x - y);
    case BinaryOp::Mul: return Value(x * y);
    case BinaryOp::Div:
      if (y == 0.0) return Value::null();
      return Value(x / y);
    default: break;
  }
  throw SqlError("arith: not an arithmetic operator");
}

Value compare(BinaryOp op, const Value& a, const Value& b) {
  // SQL three-valued logic collapsed: comparisons against NULL are false.
  if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
  const int c = a.compare(b);
  bool result = false;
  switch (op) {
    case BinaryOp::Eq: result = c == 0; break;
    case BinaryOp::Ne: result = c != 0; break;
    case BinaryOp::Lt: result = c < 0; break;
    case BinaryOp::Le: result = c <= 0; break;
    case BinaryOp::Gt: result = c > 0; break;
    case BinaryOp::Ge: result = c >= 0; break;
    default: throw SqlError("compare: not a comparison operator");
  }
  return Value(std::int64_t{result ? 1 : 0});
}

}  // namespace

bool truthy(const Value& v) {
  if (v.isNull()) return false;
  if (v.isInt()) return v.asInt() != 0;
  if (v.isReal()) return v.asReal() != 0.0;
  return !v.asText().empty();
}

Value evaluate(const Expr& e, const Tuple& tuple) {
  switch (e.kind) {
    case Expr::Kind::Literal:
    case Expr::Kind::Param:  // bind() stored the parameter value in `value`
      return e.value;
    case Expr::Kind::Column: {
      const Row* row = tuple.at(e.bound_table);
      if (row == nullptr) throw SqlError("internal: unbound tuple slot");
      return row->at(e.bound_col);
    }
    case Expr::Kind::Binary: {
      switch (e.op) {
        case BinaryOp::And: {
          if (!truthy(evaluate(*e.lhs, tuple))) return Value(std::int64_t{0});
          return Value(std::int64_t{truthy(evaluate(*e.rhs, tuple)) ? 1 : 0});
        }
        case BinaryOp::Or: {
          if (truthy(evaluate(*e.lhs, tuple))) return Value(std::int64_t{1});
          return Value(std::int64_t{truthy(evaluate(*e.rhs, tuple)) ? 1 : 0});
        }
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div:
          return arith(e.op, evaluate(*e.lhs, tuple), evaluate(*e.rhs, tuple));
        default:
          return compare(e.op, evaluate(*e.lhs, tuple), evaluate(*e.rhs, tuple));
      }
    }
    case Expr::Kind::Not:
      return Value(std::int64_t{truthy(evaluate(*e.lhs, tuple)) ? 0 : 1});
    case Expr::Kind::IsNull: {
      const bool is_null = evaluate(*e.lhs, tuple).isNull();
      return Value(std::int64_t{(is_null != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Like: {
      const Value v = evaluate(*e.lhs, tuple);
      if (v.isNull()) return Value(std::int64_t{0});
      const bool hit = likeMatch(v.isText() ? v.asText() : v.toDisplayString(),
                                 e.value.asText());
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InList: {
      const Value v = evaluate(*e.lhs, tuple);
      if (v.isNull()) return Value(std::int64_t{0});
      bool hit = false;
      for (const ExprPtr& item : e.list) {
        if (v.compare(evaluate(*item, tuple)) == 0) {
          hit = true;
          break;
        }
      }
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InSelect: {
      const Value v = evaluate(*e.lhs, tuple);
      if (v.isNull()) return Value(std::int64_t{0});
      if (!e.subquery_values) {
        throw SqlError("internal: subquery was not materialized");
      }
      EncodedKey key;
      encodeValue(v, key);
      const bool hit = e.subquery_values->contains(key);
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Aggregate:
      throw SqlError("aggregate used outside of an aggregating SELECT");
  }
  throw SqlError("internal: bad expression kind");
}

Value evalConst(const Expr& e) {
  static const Tuple kEmpty;
  return evaluate(e, kEmpty);
}

// ---------------------------------------------------------------------------
// Binding / analysis
// ---------------------------------------------------------------------------

namespace {

/// Resolves column references against a plan's FROM list.
class Binder {
 public:
  explicit Binder(const std::vector<SelectPlan::FromEntry>& from) : from_(from) {}

  /// Resolves column references; records the highest table index referenced.
  /// Returns -1 for expressions with no column references.
  int bind(Expr& e) const;

 private:
  void bindInner(Expr& e, int& max_table) const;
  void resolve(Expr& e) const;

  const std::vector<SelectPlan::FromEntry>& from_;
};

int Binder::bind(Expr& e) const {
  int max_table = -1;
  bindInner(e, max_table);
  return max_table;
}

void Binder::bindInner(Expr& e, int& max_table) const {
  if (e.kind == Expr::Kind::Column) {
    resolve(e);
    max_table = std::max(max_table, e.bound_table);
    return;
  }
  if (e.lhs) bindInner(*e.lhs, max_table);
  if (e.rhs) bindInner(*e.rhs, max_table);
  for (const ExprPtr& item : e.list) bindInner(*item, max_table);
  // Subqueries bind against their own FROM list (uncorrelated); the
  // executor materializes them before evaluation.
}

void Binder::resolve(Expr& e) const {
  // Always (re)resolve: a cached statement may be replanned after DDL
  // changed column ordinals, so stale annotations must not survive.
  int found_table = -1;
  int found_col = -1;
  int found_flat = -1;
  // `base` is the joined-row ordinal of FROM entry i's first column.
  for (std::size_t i = 0, base = 0; i < from_.size();
       base += from_[i++].def->columns.size()) {
    if (!e.table.empty() && !util::iequals(e.table, from_[i].alias)) continue;
    const int col = from_[i].def->columnIndex(e.column);
    if (col < 0) continue;
    if (found_table >= 0) {
      throw SqlError("ambiguous column reference: " + e.column);
    }
    found_table = static_cast<int>(i);
    found_col = col;
    found_flat = static_cast<int>(base) + col;
  }
  if (found_table < 0) {
    const std::string qual = e.table.empty() ? e.column : e.table + "." + e.column;
    throw SqlError("unknown column: " + qual);
  }
  e.bound_table = found_table;
  e.bound_col = found_col;
  e.bound_flat = found_flat;
}

void collectConjuncts(Expr* e, std::vector<Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Binary && e->op == BinaryOp::And) {
    collectConjuncts(e->lhs.get(), out);
    collectConjuncts(e->rhs.get(), out);
    return;
  }
  out.push_back(e);
}

void collectAggregates(Expr* e, std::vector<Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Aggregate) {
    e->agg_slot = static_cast<int>(out.size());
    out.push_back(e);
    // Aggregate arguments are evaluated per input tuple, not per group;
    // do not descend further.
    return;
  }
  collectAggregates(e->lhs.get(), out);
  collectAggregates(e->rhs.get(), out);
  for (const ExprPtr& item : e->list) collectAggregates(item.get(), out);
}

/// Calls `fn` on every column ref in `e`. Subqueries are not entered: they
/// bind against their own FROM list.
void forEachColumn(const Expr* e, const std::function<void(const Expr&)>& fn) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Column) fn(*e);
  forEachColumn(e->lhs.get(), fn);
  forEachColumn(e->rhs.get(), fn);
  for (const ExprPtr& item : e->list) forEachColumn(item.get(), fn);
}

bool containsAggregate(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == Expr::Kind::Aggregate) return true;
  if (containsAggregate(e->lhs.get()) || containsAggregate(e->rhs.get())) return true;
  for (const ExprPtr& item : e->list) {
    if (containsAggregate(item.get())) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Expression walking (parameter binding)
// ---------------------------------------------------------------------------

void forEachExpr(SelectStmt& sel, const std::function<void(Expr&)>& fn);

void forEachExpr(Expr* e, const std::function<void(Expr&)>& fn) {
  if (e == nullptr) return;
  fn(*e);
  forEachExpr(e->lhs.get(), fn);
  forEachExpr(e->rhs.get(), fn);
  for (const ExprPtr& item : e->list) forEachExpr(item.get(), fn);
  if (e->subquery) forEachExpr(*e->subquery, fn);
}

void forEachExpr(SelectStmt& sel, const std::function<void(Expr&)>& fn) {
  for (SelectItem& item : sel.items) forEachExpr(item.expr.get(), fn);
  for (TableRef& ref : sel.from) forEachExpr(ref.join_on.get(), fn);
  forEachExpr(sel.where.get(), fn);
  for (ExprPtr& e : sel.group_by) forEachExpr(e.get(), fn);
  forEachExpr(sel.having.get(), fn);
  for (OrderItem& item : sel.order_by) forEachExpr(item.expr.get(), fn);
}

void forEachExpr(Statement& stmt, const std::function<void(Expr&)>& fn) {
  switch (stmt.kind) {
    case Statement::Kind::Select:
    case Statement::Kind::Update:
    case Statement::Kind::Delete:
      forEachExpr(*stmt.select, fn);
      break;
    case Statement::Kind::Insert:
      for (auto& row : stmt.insert->rows) {
        for (ExprPtr& e : row) forEachExpr(e.get(), fn);
      }
      break;
    default:
      break;  // DDL/Txn/Vacuum carry no expressions
  }
}

}  // namespace

void bindParamValues(Statement& stmt, const std::vector<Value>& params) {
  forEachExpr(stmt, [&](Expr& e) {
    if (e.kind == Expr::Kind::Param) {
      e.value = params.at(static_cast<std::size_t>(e.param_index));
    }
  });
}

// ---------------------------------------------------------------------------
// Aggregation state
// ---------------------------------------------------------------------------

namespace {

struct AggState {
  std::int64_t count = 0;
  std::int64_t isum = 0;
  double rsum = 0.0;
  bool saw_real = false;
  Value min;
  Value max;
  std::set<EncodedKey> distinct;

  void add(const Value& v, bool distinct_only) {
    if (v.isNull()) return;
    if (distinct_only) {
      EncodedKey key;
      encodeValue(v, key);
      if (!distinct.insert(key).second) return;
    }
    ++count;
    if (v.isReal()) {
      saw_real = true;
      rsum += v.asReal();
    } else if (v.isInt()) {
      isum += v.asInt();
      rsum += static_cast<double>(v.asInt());
    }
    if (min.isNull() || v.compare(min) < 0) min = v;
    if (max.isNull() || v.compare(max) > 0) max = v;
  }

  Value result(AggFunc fn) const {
    switch (fn) {
      case AggFunc::Count: return Value(count);
      case AggFunc::Sum:
        if (count == 0) return Value::null();
        return saw_real ? Value(rsum) : Value(isum);
      case AggFunc::Avg:
        if (count == 0) return Value::null();
        return Value(rsum / static_cast<double>(count));
      case AggFunc::Min: return min;
      case AggFunc::Max: return max;
    }
    return Value::null();
  }
};

struct Group {
  Row first_row;  // copy of the group's first joined input row
  std::vector<AggState> aggs;
};

/// Evaluates an expression in grouped mode: Aggregate nodes read their
/// accumulated slot; everything else evaluates against the group's first
/// input row (SQLite-style bare-column semantics).
Value evaluateGrouped(const Expr& e, const Group& g) {
  if (e.kind == Expr::Kind::Aggregate) {
    return g.aggs.at(e.agg_slot).result(e.agg);
  }
  switch (e.kind) {
    case Expr::Kind::Literal:
    case Expr::Kind::Param:
      return e.value;
    case Expr::Kind::Column:
      return g.first_row.at(static_cast<std::size_t>(e.bound_flat));
    case Expr::Kind::Binary: {
      switch (e.op) {
        case BinaryOp::And:
          return Value(std::int64_t{truthy(evaluateGrouped(*e.lhs, g)) &&
                                            truthy(evaluateGrouped(*e.rhs, g))
                                        ? 1
                                        : 0});
        case BinaryOp::Or:
          return Value(std::int64_t{truthy(evaluateGrouped(*e.lhs, g)) ||
                                            truthy(evaluateGrouped(*e.rhs, g))
                                        ? 1
                                        : 0});
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div:
          return arith(e.op, evaluateGrouped(*e.lhs, g), evaluateGrouped(*e.rhs, g));
        default:
          return compare(e.op, evaluateGrouped(*e.lhs, g), evaluateGrouped(*e.rhs, g));
      }
    }
    case Expr::Kind::Not:
      return Value(std::int64_t{truthy(evaluateGrouped(*e.lhs, g)) ? 0 : 1});
    case Expr::Kind::IsNull: {
      const bool is_null = evaluateGrouped(*e.lhs, g).isNull();
      return Value(std::int64_t{(is_null != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Like: {
      const Value v = evaluateGrouped(*e.lhs, g);
      if (v.isNull()) return Value(std::int64_t{0});
      const bool hit = likeMatch(v.isText() ? v.asText() : v.toDisplayString(),
                                 e.value.asText());
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InList: {
      const Value v = evaluateGrouped(*e.lhs, g);
      if (v.isNull()) return Value(std::int64_t{0});
      bool hit = false;
      for (const ExprPtr& item : e.list) {
        if (v.compare(evaluateGrouped(*item, g)) == 0) {
          hit = true;
          break;
        }
      }
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InSelect: {
      const Value v = evaluateGrouped(*e.lhs, g);
      if (v.isNull()) return Value(std::int64_t{0});
      if (!e.subquery_values) {
        throw SqlError("internal: subquery was not materialized");
      }
      EncodedKey key;
      encodeValue(v, key);
      const bool hit = e.subquery_values->contains(key);
      return Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Aggregate:
      break;  // handled above
  }
  throw SqlError("internal: bad grouped expression");
}

/// Output rows with their ORDER BY keys, as the blocking operators buffer
/// them.
using KeyedRows = std::vector<std::pair<Row, std::vector<Value>>>;

/// Appends group `g`'s output row and ORDER BY keys unless HAVING rejects it.
void emitGroup(const SelectPlan& plan, const Group& g, KeyedRows& out) {
  const SelectStmt& sel = *plan.sel;
  if (sel.having && !truthy(evaluateGrouped(*sel.having, g))) return;
  Row row;
  row.reserve(plan.outputs.size());
  for (const SelectPlan::OutputCol& col : plan.outputs) {
    row.push_back(evaluateGrouped(*col.expr, g));
  }
  std::vector<Value> keys;
  keys.reserve(sel.order_by.size());
  for (const OrderItem& item : sel.order_by) {
    keys.push_back(evaluateGrouped(*item.expr, g));
  }
  out.emplace_back(std::move(row), std::move(keys));
}

/// The one row a fully-aggregated SELECT yields over zero input rows. Bare
/// column refs are undefined over an empty input; they report NULL.
void emitEmptyInput(const SelectPlan& plan, KeyedRows& out) {
  Group empty;
  empty.aggs.resize(plan.aggregates.size());
  Row row;
  for (const SelectPlan::OutputCol& col : plan.outputs) {
    if (containsAggregate(col.expr) || col.expr->kind == Expr::Kind::Literal) {
      row.push_back(evaluateGrouped(*col.expr, empty));
    } else {
      row.push_back(Value::null());
    }
  }
  out.emplace_back(std::move(row), std::vector<Value>{});
}

/// Moves up to `cap` buffered rows, from `pos` on, into `b`; false once
/// the buffer is drained.
bool emitBuffered(KeyedRows& rows, std::size_t& pos, std::size_t cap, std::size_t nkeys,
                  RowBatch& b) {
  if (pos >= rows.size()) return false;
  b.reset(rows[pos].first.size(), nkeys);
  while (b.nrows < cap && pos < rows.size()) {
    b.appendMoveValues(rows[pos].first, rows[pos].second);
    ++pos;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Subquery materialization and plan construction
// ---------------------------------------------------------------------------

namespace {

/// Runs every uncorrelated IN (SELECT ...) subquery below `e` and caches the
/// first-column values for membership tests.
void materializeSubqueries(Expr* e, Database& db, bool use_indexes) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::InSelect) {
    if (!e->subquery) throw SqlError("internal: InSelect without a subquery");
    // Subqueries run serially and without the inverted index.
    ExecOptions opts = processOptions();
    opts.degree = 1;
    opts.invidx = false;
    SelectPlan plan = buildSelectPlan(db, *e->subquery, use_indexes);
    const ResultSet rs = execSelectPlan(db, plan, opts);
    auto values = std::make_shared<std::set<std::string>>();
    for (const Row& row : rs.rows) {
      if (row.empty() || row[0].isNull()) continue;  // NULL never matches IN
      EncodedKey key;
      encodeValue(row[0], key);
      values->insert(std::move(key));
    }
    e->subquery_values = std::move(values);
  }
  materializeSubqueries(e->lhs.get(), db, use_indexes);
  materializeSubqueries(e->rhs.get(), db, use_indexes);
  for (const ExprPtr& item : e->list) {
    materializeSubqueries(item.get(), db, use_indexes);
  }
}

}  // namespace

void materializePlanSubqueries(Database& db, SelectPlan& plan) {
  // A FROM-less SELECT never materializes (mirrors the historical early
  // return; an InSelect there fails at evaluation time instead).
  if (plan.from.empty()) return;
  SelectStmt& sel = *plan.sel;
  for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
    materializeSubqueries(pc.expr, db, plan.use_indexes);
  }
  for (const SelectPlan::OutputCol& out : plan.outputs) {
    materializeSubqueries(out.expr, db, plan.use_indexes);
  }
  if (sel.having) materializeSubqueries(sel.having.get(), db, plan.use_indexes);
  for (OrderItem& item : sel.order_by) {
    materializeSubqueries(item.expr.get(), db, plan.use_indexes);
  }
}

SelectPlan buildSelectPlan(Database& db, SelectStmt& sel, bool use_indexes,
                           bool invidx) {
  SelectPlan plan;
  plan.sel = &sel;
  plan.epoch = db.schemaEpoch();
  plan.use_indexes = use_indexes;
  plan.invidx = invidx;

  // --- resolve FROM ---
  for (const TableRef& ref : sel.from) {
    const TableDef* def = db.catalog().findTable(ref.table);
    if (def == nullptr) throw SqlError("no such table: " + ref.table);
    plan.from.push_back({def, ref.alias});
  }
  Binder binder(plan.from);

  if (plan.from.empty()) {
    // SELECT without FROM: items evaluate against an empty tuple at run time.
    for (SelectItem& item : sel.items) {
      if (!item.expr) throw SqlError("SELECT * requires a FROM clause");
      binder.bind(*item.expr);
      plan.outputs.push_back({item.expr.get(),
                              item.alias.empty() ? "expr" : item.alias});
    }
    return plan;
  }

  // --- expand '*' and bind select items ---
  for (SelectItem& item : sel.items) {
    if (!item.expr) {
      for (std::size_t t = 0; t < plan.from.size(); ++t) {
        for (std::size_t c = 0; c < plan.from[t].def->columns.size(); ++c) {
          ExprPtr e = Expr::columnRef(plan.from[t].alias,
                                      plan.from[t].def->columns[c].name);
          binder.bind(*e);
          plan.outputs.push_back({e.get(), plan.from[t].def->columns[c].name});
          plan.star_exprs.push_back(std::move(e));
        }
      }
      continue;
    }
    binder.bind(*item.expr);
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == Expr::Kind::Column ? item.expr->column : "expr";
    }
    plan.outputs.push_back({item.expr.get(), std::move(name)});
  }

  // --- gather and bind conjuncts (WHERE + every JOIN ... ON) ---
  auto addConjuncts = [&](Expr* root, int on_table) {
    std::vector<Expr*> raw;
    collectConjuncts(root, raw);
    for (Expr* e : raw) {
      SelectPlan::PlannedConjunct pc;
      pc.expr = e;
      pc.level = std::max(binder.bind(*e), 0);
      if (on_table >= 0 && sel.from[static_cast<std::size_t>(on_table)].left_join) {
        pc.level = std::max(pc.level, on_table);
      }
      pc.on_table = on_table;
      plan.conjuncts.push_back(pc);
    }
  };
  addConjuncts(sel.where.get(), -1);
  for (std::size_t t = 0; t < sel.from.size(); ++t) {
    addConjuncts(sel.from[t].join_on.get(), static_cast<int>(t));
  }

  // --- bind the remaining clauses ---
  for (ExprPtr& e : sel.group_by) binder.bind(*e);
  if (sel.having) binder.bind(*sel.having);
  for (OrderItem& item : sel.order_by) binder.bind(*item.expr);

  // --- aggregation analysis ---
  for (const SelectPlan::OutputCol& out : plan.outputs) {
    collectAggregates(out.expr, plan.aggregates);
  }
  if (sel.having) collectAggregates(sel.having.get(), plan.aggregates);
  for (OrderItem& item : sel.order_by) {
    collectAggregates(item.expr.get(), plan.aggregates);
  }
  plan.grouped = !sel.group_by.empty() || !plan.aggregates.empty();

  // --- columns read above the join ---
  std::vector<int> reads;  // per joined-row ordinal: column refs reading it
  const auto count = [&reads](const Expr& col) {
    const auto flat = static_cast<std::size_t>(col.bound_flat);
    if (reads.size() <= flat) reads.resize(flat + 1, 0);
    ++reads[flat];
  };
  std::vector<const Expr*> projected;  // outputs, then ORDER BY keys
  for (const SelectPlan::OutputCol& out : plan.outputs) projected.push_back(out.expr);
  for (OrderItem& item : sel.order_by) projected.push_back(item.expr.get());
  for (const Expr* e : projected) forEachColumn(e, count);
  for (const Expr* e : projected) {
    plan.sole_column.push_back(e->kind == Expr::Kind::Column &&
                               reads[static_cast<std::size_t>(e->bound_flat)] == 1);
  }
  for (const ExprPtr& e : sel.group_by) forEachColumn(e.get(), count);
  forEachColumn(sel.having.get(), count);
  for (std::size_t t = 0, flat = 0; t < plan.from.size(); ++t) {
    for (std::size_t c = 0; c < plan.from[t].def->columns.size(); ++c, ++flat) {
      if (flat < reads.size() && reads[flat] > 0) plan.read_cols.push_back({t, c, flat});
    }
  }

  // --- choose an access path per table ---
  plan.paths.assign(plan.from.size(), {});
  if (!use_indexes) return plan;

  // Highest FROM index a bound expression depends on (-1 = constant).
  std::function<int(const Expr*)> maxTableOf = [&](const Expr* x) -> int {
    if (x == nullptr) return -1;
    int m = -1;
    if (x->kind == Expr::Kind::Column) m = x->bound_table;
    m = std::max(m, maxTableOf(x->lhs.get()));
    m = std::max(m, maxTableOf(x->rhs.get()));
    for (const ExprPtr& item : x->list) m = std::max(m, maxTableOf(item.get()));
    return m;
  };

  for (std::size_t t = 0; t < plan.from.size(); ++t) {
    SelectPlan::AccessPath& path = plan.paths[t];
    for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
      // A later LEFT JOIN's ON conjunct must not narrow this table's rows.
      if (pc.level > static_cast<int>(t)) continue;
      Expr* e = pc.expr;

      // col IN (list): sorted multi-point probe when every list element is
      // computable before table t is scanned. Beats a range path, loses to
      // a single-key equality.
      if (e->kind == Expr::Kind::InList && !e->negated) {
        Expr* col = e->lhs.get();
        if (!(col->kind == Expr::Kind::Column &&
              col->bound_table == static_cast<int>(t))) {
          continue;
        }
        int list_max = -1;
        for (const ExprPtr& item : e->list) {
          list_max = std::max(list_max, maxTableOf(item.get()));
        }
        if (list_max >= static_cast<int>(t)) continue;
        const IndexDef* index = plan.from[t].def->indexOnColumn(col->bound_col);
        if (index == nullptr) continue;
        if (path.kind == SelectPlan::AccessPath::Kind::IndexEqual ||
            path.kind == SelectPlan::AccessPath::Kind::IndexInList ||
            path.kind == SelectPlan::AccessPath::Kind::PostingInList) {
          continue;
        }
        path = {};
        path.kind = SelectPlan::AccessPath::Kind::IndexInList;
        // Integer key columns upgrade to the inverted index: one posting
        // lookup per key, rids emitted in the same per-key order as the
        // B-tree probes (the iterator falls back to the index at runtime
        // when the posting path must decline).
        if (invidx &&
            plan.from[t].def->columns[col->bound_col].type == ColumnType::Integer) {
          path.kind = SelectPlan::AccessPath::Kind::PostingInList;
        }
        path.index = index;
        path.key_column = col->bound_col;
        path.in_list = e;
        path.consumed = e;
        continue;
      }

      if (e->kind != Expr::Kind::Binary) continue;
      if (e->op != BinaryOp::Eq && e->op != BinaryOp::Lt && e->op != BinaryOp::Le &&
          e->op != BinaryOp::Gt && e->op != BinaryOp::Ge) {
        continue;
      }
      // Normalize: want column-of-t on the left.
      Expr* col = e->lhs.get();
      Expr* other = e->rhs.get();
      BinaryOp op = e->op;
      auto flip = [](BinaryOp o) {
        switch (o) {
          case BinaryOp::Lt: return BinaryOp::Gt;
          case BinaryOp::Le: return BinaryOp::Ge;
          case BinaryOp::Gt: return BinaryOp::Lt;
          case BinaryOp::Ge: return BinaryOp::Le;
          default: return o;
        }
      };
      if (!(col->kind == Expr::Kind::Column && col->bound_table == static_cast<int>(t))) {
        std::swap(col, other);
        op = flip(op);
        if (!(col->kind == Expr::Kind::Column &&
              col->bound_table == static_cast<int>(t))) {
          continue;
        }
      }
      // The other side must be computable before table t is scanned.
      if (maxTableOf(other) >= static_cast<int>(t)) continue;
      const IndexDef* index = plan.from[t].def->indexOnColumn(col->bound_col);
      if (index == nullptr) continue;
      if (op == BinaryOp::Eq) {
        path = {};
        path.kind = SelectPlan::AccessPath::Kind::IndexEqual;
        path.index = index;
        path.key_column = col->bound_col;
        path.equal_rhs = other;
        path.consumed = e;
        break;  // equality beats any other path
      }
      // Range bound: merge into an existing range path on the same column.
      if (path.kind == SelectPlan::AccessPath::Kind::IndexEqual ||
          path.kind == SelectPlan::AccessPath::Kind::IndexInList ||
          path.kind == SelectPlan::AccessPath::Kind::PostingInList) {
        continue;
      }
      if (path.kind == SelectPlan::AccessPath::Kind::IndexRange &&
          path.key_column != col->bound_col) {
        continue;
      }
      path.kind = SelectPlan::AccessPath::Kind::IndexRange;
      path.index = index;
      path.key_column = col->bound_col;
      if (op == BinaryOp::Gt || op == BinaryOp::Ge) {
        path.lower_rhs = other;
        path.lower_inclusive = op == BinaryOp::Ge;
      } else {
        path.upper_rhs = other;
        path.upper_inclusive = op == BinaryOp::Le;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// SlotIter — per-FROM-entry row producers inside the nested loop
// ---------------------------------------------------------------------------

void appendActuals(std::string& line, const OpStats& stats) {
  char buf[128];
  if (stats.batches > 0) {
    std::snprintf(buf, sizeof(buf),
                  " (actual rows=%llu loops=%llu time=%.3fms batches=%llu"
                  " avg_fill=%.1f)",
                  static_cast<unsigned long long>(stats.rows),
                  static_cast<unsigned long long>(stats.loops),
                  static_cast<double>(stats.time_ns) / 1e6,
                  static_cast<unsigned long long>(stats.batches),
                  static_cast<double>(stats.batch_rows) /
                      static_cast<double>(stats.batches));
  } else {
    std::snprintf(buf, sizeof(buf), " (actual rows=%llu loops=%llu time=%.3fms)",
                  static_cast<unsigned long long>(stats.rows),
                  static_cast<unsigned long long>(stats.loops),
                  static_cast<double>(stats.time_ns) / 1e6);
  }
  line += buf;
}

namespace {

std::string indentOf(int depth) { return std::string(2 * depth, ' '); }

/// Exec-layer metrics, resolved once (pt_exec_pool_threads lives in
/// exec_pool.cpp).
struct ExecCounters {
  obs::Counter& morsels_dispatched;
  obs::Counter& parallel_queries;
  obs::Counter& batches;
  obs::Histogram& gather_wait_ms;
  obs::Histogram& batch_fill;
};

ExecCounters& execCounters() {
  auto& reg = obs::Registry::global();
  static ExecCounters* c = new ExecCounters{
      reg.counter("pt_exec_morsels_dispatched_total"),
      reg.counter("pt_exec_parallel_queries_total"),
      reg.counter("pt_exec_batches_total"),
      reg.histogram("pt_exec_gather_wait_ms"),
      reg.histogram("pt_exec_batch_fill_rows"),
  };
  return *c;
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
//
// evalRows() is the batch twin of evaluate(): it computes `e` for every row
// index in `sel` against a batch of joined rows — every FROM entry's columns
// concatenated in FROM order, so Column refs resolve through bound_flat (a
// table-0 batch below the join is the prefix, and its conjuncts bind table 0
// only). `out` is sized to the batch and only the `sel` lanes are written.
// And/Or evaluate the right side only on the lanes the scalar evaluator
// would have reached, so the two agree even on expressions that throw (e.g.
// an InSelect whose subquery was never materialized).
// ---------------------------------------------------------------------------

void evalRows(const Expr& e, const RowBatch& b,
              const std::vector<std::uint32_t>& sel, std::vector<Value>& out) {
  out.resize(b.nrows);
  switch (e.kind) {
    case Expr::Kind::Literal:
    case Expr::Kind::Param:
      for (const std::uint32_t i : sel) out[i] = e.value;
      return;
    case Expr::Kind::Column: {
      const std::vector<Value>& col =
          b.cols.at(static_cast<std::size_t>(e.bound_flat));
      for (const std::uint32_t i : sel) out[i] = col[i];
      return;
    }
    case Expr::Kind::Binary: {
      switch (e.op) {
        case BinaryOp::And: {
          std::vector<Value> lhs;
          evalRows(*e.lhs, b, sel, lhs);
          std::vector<std::uint32_t> live;
          live.reserve(sel.size());
          for (const std::uint32_t i : sel) {
            if (truthy(lhs[i])) {
              live.push_back(i);
            } else {
              out[i] = Value(std::int64_t{0});
            }
          }
          std::vector<Value> rhs;
          evalRows(*e.rhs, b, live, rhs);
          for (const std::uint32_t i : live) {
            out[i] = Value(std::int64_t{truthy(rhs[i]) ? 1 : 0});
          }
          return;
        }
        case BinaryOp::Or: {
          std::vector<Value> lhs;
          evalRows(*e.lhs, b, sel, lhs);
          std::vector<std::uint32_t> live;
          live.reserve(sel.size());
          for (const std::uint32_t i : sel) {
            if (truthy(lhs[i])) {
              out[i] = Value(std::int64_t{1});
            } else {
              live.push_back(i);
            }
          }
          std::vector<Value> rhs;
          evalRows(*e.rhs, b, live, rhs);
          for (const std::uint32_t i : live) {
            out[i] = Value(std::int64_t{truthy(rhs[i]) ? 1 : 0});
          }
          return;
        }
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div: {
          std::vector<Value> lhs;
          std::vector<Value> rhs;
          evalRows(*e.lhs, b, sel, lhs);
          evalRows(*e.rhs, b, sel, rhs);
          for (const std::uint32_t i : sel) out[i] = arith(e.op, lhs[i], rhs[i]);
          return;
        }
        default: {
          std::vector<Value> lhs;
          std::vector<Value> rhs;
          evalRows(*e.lhs, b, sel, lhs);
          evalRows(*e.rhs, b, sel, rhs);
          for (const std::uint32_t i : sel) out[i] = compare(e.op, lhs[i], rhs[i]);
          return;
        }
      }
    }
    case Expr::Kind::Not: {
      std::vector<Value> lhs;
      evalRows(*e.lhs, b, sel, lhs);
      for (const std::uint32_t i : sel) {
        out[i] = Value(std::int64_t{truthy(lhs[i]) ? 0 : 1});
      }
      return;
    }
    case Expr::Kind::IsNull: {
      std::vector<Value> lhs;
      evalRows(*e.lhs, b, sel, lhs);
      for (const std::uint32_t i : sel) {
        out[i] = Value(std::int64_t{(lhs[i].isNull() != e.negated) ? 1 : 0});
      }
      return;
    }
    case Expr::Kind::Like: {
      std::vector<Value> lhs;
      evalRows(*e.lhs, b, sel, lhs);
      const std::string_view pattern = e.value.asText();
      for (const std::uint32_t i : sel) {
        const Value& v = lhs[i];
        if (v.isNull()) {
          out[i] = Value(std::int64_t{0});
          continue;
        }
        const bool hit =
            likeMatch(v.isText() ? v.asText() : v.toDisplayString(), pattern);
        out[i] = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
      }
      return;
    }
    case Expr::Kind::InList: {
      std::vector<Value> lhs;
      evalRows(*e.lhs, b, sel, lhs);
      std::vector<std::vector<Value>> items(e.list.size());
      for (std::size_t k = 0; k < e.list.size(); ++k) {
        evalRows(*e.list[k], b, sel, items[k]);
      }
      for (const std::uint32_t i : sel) {
        if (lhs[i].isNull()) {
          out[i] = Value(std::int64_t{0});
          continue;
        }
        bool hit = false;
        for (const std::vector<Value>& item : items) {
          if (lhs[i].compare(item[i]) == 0) {
            hit = true;
            break;
          }
        }
        out[i] = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
      }
      return;
    }
    case Expr::Kind::InSelect: {
      std::vector<Value> lhs;
      evalRows(*e.lhs, b, sel, lhs);
      for (const std::uint32_t i : sel) {
        if (lhs[i].isNull()) {
          out[i] = Value(std::int64_t{0});
          continue;
        }
        if (!e.subquery_values) {
          throw SqlError("internal: subquery was not materialized");
        }
        EncodedKey key;
        encodeValue(lhs[i], key);
        const bool hit = e.subquery_values->contains(key);
        out[i] = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
      }
      return;
    }
    case Expr::Kind::Aggregate:
      throw SqlError("aggregate used outside of an aggregating SELECT");
  }
  throw SqlError("internal: bad expression kind");
}

/// Produces the candidate rows of one FROM entry for the current binding of
/// the earlier tuple slots. produced() counts rows emitted since open().
/// Like RowOp, the public surface wraps virtual do*() hooks so EXPLAIN
/// ANALYZE can account loops/rows/time per iterator stage.
class SlotIter {
 public:
  virtual ~SlotIter() = default;

  void open() {
    if (!stats_.timed) return doOpen();
    ++stats_.loops;
    const detail::OpTick tick(stats_);
    doOpen();
  }
  /// Row pull: the next row and its RecordId (the heap slot UPDATE and
  /// DELETE change).
  bool next(RecordId& rid, Row& out) {
    if (!stats_.timed) return doNext(rid, out);
    const detail::OpTick tick(stats_);
    const bool ok = doNext(rid, out);
    if (ok) ++stats_.rows;
    return ok;
  }
  /// Batch pull; returns false only at end of stream (a true return carries
  /// at least one live row).
  bool nextBatch(RowBatch& out) {
    if (!stats_.timed) return doNextBatch(out);
    const detail::OpTick tick(stats_);
    const bool ok = doNextBatch(out);
    if (ok) stats_.rows += out.active();
    return ok;
  }
  void close() {
    if (!stats_.timed) return doClose();
    const detail::OpTick tick(stats_);
    doClose();
  }
  void describe(std::vector<std::string>& lines, int depth) const {
    const std::size_t first = lines.size();
    doDescribe(lines, depth);
    if (stats_.timed && first < lines.size()) appendActuals(lines[first], stats_);
  }

  virtual void setAnalyze(bool on) { stats_.timed = on; }
  std::size_t produced() const { return produced_; }

  /// Appends this stage's OpStats pointer (children first is not required;
  /// the order only has to match between two chains built from the same
  /// plan, which GatherOp relies on to roll worker stats into the template
  /// tree it describes).
  virtual void collectStats(std::vector<OpStats*>& out) { out.push_back(&stats_); }

 protected:
  virtual void doOpen() = 0;
  virtual bool doNext(RecordId& rid, Row& out) = 0;
  /// Default adapter: loops doNext(), transposing rows into the batch's
  /// columns (Value moves, so string payloads are stolen, not copied).
  /// FilterIter overrides it to compact the selection vector instead.
  virtual bool doNextBatch(RowBatch& b) {
    b.clearRows();
    const std::size_t cap = b.capacity > 0 ? b.capacity : 1;
    RecordId rid;
    Row row;
    while (b.nrows < cap && doNext(rid, row)) {
      b.appendMoveValues(row);
      row.clear();
    }
    return b.nrows > 0;
  }
  virtual void doClose() = 0;
  virtual void doDescribe(std::vector<std::string>& lines, int depth) const = 0;

  std::size_t produced_ = 0;
  OpStats stats_;
};

class SeqScanIter : public SlotIter {
 public:
  SeqScanIter(Database& db, const SelectPlan::AccessPath& path,
              const SelectPlan::FromEntry& entry)
      : db_(&db), path_(&path), entry_(&entry) {}

  void doOpen() override {
    produced_ = 0;
    cur_.emplace(db_->openCursor(entry_->def->name));
  }
  bool doNext(RecordId& rid, Row& out) override {
    if (!cur_ || !cur_->next(rid, out)) return false;
    ++produced_;
    return true;
  }
  void doClose() override { cur_.reset(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_));
  }

 private:
  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  std::optional<Database::TableCursor> cur_;
};

class IndexEqualIter : public SlotIter {
 public:
  IndexEqualIter(Database& db, const SelectPlan::AccessPath& path,
                 const SelectPlan::FromEntry& entry, const Tuple& tuple)
      : db_(&db), path_(&path), entry_(&entry), tuple_(&tuple) {}

  void doOpen() override {
    produced_ = 0;
    cur_.reset();
    const Value key = evaluate(*path_->equal_rhs, *tuple_);
    if (!key.isNull()) {  // col = NULL matches nothing; may null-extend
      cur_.emplace(db_->openIndexEqual(*path_->index, {key}));
    }
  }
  bool doNext(RecordId& rid, Row& out) override {
    if (!cur_ || !cur_->next(rid, out)) return false;
    ++produced_;
    return true;
  }
  void doClose() override { cur_.reset(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_));
  }

 private:
  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  const Tuple* tuple_;
  std::optional<Database::IndexCursor> cur_;
};

/// Sorted multi-point probe: one B+-tree descent per distinct key, in key
/// order, instead of a heap scan with per-row membership.
class IndexInListIter : public SlotIter {
 public:
  IndexInListIter(Database& db, const SelectPlan::AccessPath& path,
                  const SelectPlan::FromEntry& entry, const Tuple& tuple)
      : db_(&db), path_(&path), entry_(&entry), tuple_(&tuple) {}

  void doOpen() override {
    produced_ = 0;
    cur_.reset();
    next_key_ = 0;
    keys_.clear();
    keys_.reserve(path_->in_list->list.size());
    for (const ExprPtr& item : path_->in_list->list) {
      Value v = evaluate(*item, *tuple_);
      if (!v.isNull()) keys_.push_back(std::move(v));
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const Value& a, const Value& b) { return a.compare(b) < 0; });
    keys_.erase(std::unique(keys_.begin(), keys_.end(),
                            [](const Value& a, const Value& b) {
                              return a.compare(b) == 0;
                            }),
                keys_.end());
  }
  bool doNext(RecordId& rid, Row& out) override {
    for (;;) {
      if (cur_ && cur_->next(rid, out)) {
        ++produced_;
        return true;
      }
      if (next_key_ >= keys_.size()) return false;
      cur_.emplace(db_->openIndexEqual(*path_->index, {keys_[next_key_++]}));
    }
  }
  void doClose() override {
    cur_.reset();
    keys_.clear();
    next_key_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_));
  }

 private:
  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  const Tuple* tuple_;
  std::vector<Value> keys_;
  std::size_t next_key_ = 0;
  std::optional<Database::IndexCursor> cur_;
};

/// IN-list probe answered from the inverted index: each key's rid posting
/// is decoded and rows are fetched by RecordId. Packed rids are ascending
/// (page, slot), which is exactly the order a B+-tree point probe emits
/// rows for one key, so the row stream is byte-identical to
/// IndexInListIter's. Falls back to B-tree point probes when the index
/// declines (undecodable column) or a key is not an integer.
class PostingInListIter : public SlotIter {
 public:
  PostingInListIter(Database& db, const SelectPlan::AccessPath& path,
                    const SelectPlan::FromEntry& entry, const Tuple& tuple)
      : db_(&db), path_(&path), entry_(&entry), tuple_(&tuple) {}

  void doOpen() override {
    produced_ = 0;
    probes_ = 0;
    hits_ = 0;
    cur_.reset();
    pcur_.reset();
    index_.reset();
    next_key_ = 0;
    keys_.clear();
    keys_.reserve(path_->in_list->list.size());
    bool all_int = true;
    for (const ExprPtr& item : path_->in_list->list) {
      Value v = evaluate(*item, *tuple_);
      if (v.isNull()) continue;  // col IN (..., NULL, ...) never matches NULL
      all_int = all_int && v.isInt();
      keys_.push_back(std::move(v));
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const Value& a, const Value& b) { return a.compare(b) < 0; });
    keys_.erase(std::unique(keys_.begin(), keys_.end(),
                            [](const Value& a, const Value& b) {
                              return a.compare(b) == 0;
                            }),
                keys_.end());
    if (all_int) {
      index_ = db_->invidx().ridIndex(entry_->def->name, path_->key_column);
    } else {
      // Mixed-type key list: the manager never saw this probe, count the
      // fallback here (the manager counts its own declines).
      invidx::counters().fallbacks.inc();
    }
  }
  bool doNext(RecordId& rid, Row& out) override {
    for (;;) {
      if (index_) {
        if (pcur_ && pcur_->valid()) {
          const std::uint64_t packed = pcur_->value();
          pcur_->next();
          rid = {static_cast<PageId>(packed >> 16),
                 static_cast<std::uint16_t>(packed & 0xffff)};
          std::optional<Row> row = db_->readRow(entry_->def->name, rid);
          if (!row) continue;  // defensive: a valid index has no dangling rids
          out = std::move(*row);
          ++produced_;
          return true;
        }
        if (next_key_ >= keys_.size()) return false;
        ++probes_;
        invidx::counters().probes.inc();
        const invidx::PostingList* pl =
            index_->find(keys_[next_key_++].asInt());
        pcur_.reset();
        if (pl) {
          hits_ += pl->size();
          pcur_.emplace(pl->cursor());
        }
        continue;
      }
      // B-tree fallback, identical to IndexInListIter.
      if (cur_ && cur_->next(rid, out)) {
        ++produced_;
        return true;
      }
      if (next_key_ >= keys_.size()) return false;
      cur_.emplace(db_->openIndexEqual(*path_->index, {keys_[next_key_++]}));
    }
  }
  void doClose() override {
    cur_.reset();
    pcur_.reset();
    index_.reset();
    keys_.clear();
    next_key_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line = indentOf(depth) + path_->describe(*entry_);
    if (probes_ > 0) {
      line += " [postings: " + std::to_string(probes_) + " probed, " +
              std::to_string(hits_) + " ids]";
    } else if (produced_ > 0 || next_key_ > 0) {
      line += " [btree fallback]";
    }
    lines.push_back(line);
  }

 private:
  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  const Tuple* tuple_;
  std::shared_ptr<const invidx::RidIndex> index_;
  std::vector<Value> keys_;
  std::size_t next_key_ = 0;
  std::size_t probes_ = 0;
  std::size_t hits_ = 0;
  std::optional<invidx::PostingList::Cursor> pcur_;
  std::optional<Database::IndexCursor> cur_;
};

class IndexRangeIter : public SlotIter {
 public:
  IndexRangeIter(Database& db, const SelectPlan::AccessPath& path,
                 const SelectPlan::FromEntry& entry, const Tuple& tuple)
      : db_(&db), path_(&path), entry_(&entry), tuple_(&tuple) {}

  void doOpen() override {
    produced_ = 0;
    std::optional<Value> lower;
    std::optional<Value> upper;
    if (path_->lower_rhs) lower = evaluate(*path_->lower_rhs, *tuple_);
    if (path_->upper_rhs) upper = evaluate(*path_->upper_rhs, *tuple_);
    cur_.emplace(db_->openIndexRange(*path_->index, std::move(lower),
                                     path_->lower_inclusive, std::move(upper),
                                     path_->upper_inclusive));
  }
  bool doNext(RecordId& rid, Row& out) override {
    if (!cur_ || !cur_->next(rid, out)) return false;
    ++produced_;
    return true;
  }
  void doClose() override { cur_.reset(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_));
  }

 private:
  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  const Tuple* tuple_;
  std::optional<Database::IndexCursor> cur_;
};

/// The scan/probe iterator for `path` over `entry`; probe bounds evaluate
/// against `tuple` (the earlier FROM entries' bound rows).
std::unique_ptr<SlotIter> makeAccessIter(Database& db, const SelectPlan::AccessPath& path,
                                         const SelectPlan::FromEntry& entry,
                                         const Tuple& tuple) {
  switch (path.kind) {
    case SelectPlan::AccessPath::Kind::Scan:
      return std::make_unique<SeqScanIter>(db, path, entry);
    case SelectPlan::AccessPath::Kind::IndexEqual:
      return std::make_unique<IndexEqualIter>(db, path, entry, tuple);
    case SelectPlan::AccessPath::Kind::IndexInList:
      return std::make_unique<IndexInListIter>(db, path, entry, tuple);
    case SelectPlan::AccessPath::Kind::PostingInList:
      return std::make_unique<PostingInListIter>(db, path, entry, tuple);
    case SelectPlan::AccessPath::Kind::IndexRange:
      return std::make_unique<IndexRangeIter>(db, path, entry, tuple);
  }
  throw SqlError("internal: bad access path kind");
}

/// Applies a conjunct list to the child's rows. Binds the candidate row into
/// its tuple slot while evaluating (the slot's final binding is re-set by the
/// nested loop once the row is accepted).
class FilterIter : public SlotIter {
 public:
  FilterIter(std::unique_ptr<SlotIter> child, std::vector<Expr*> conjuncts,
             Tuple& tuple, std::size_t slot, bool is_on)
      : child_(std::move(child)),
        conjuncts_(std::move(conjuncts)),
        tuple_(&tuple),
        slot_(slot),
        is_on_(is_on) {}

  void doOpen() override {
    produced_ = 0;
    child_->open();
  }
  bool doNext(RecordId& rid, Row& out) override {
    while (child_->next(rid, out)) {
      (*tuple_)[slot_] = &out;
      bool pass = true;
      for (const Expr* e : conjuncts_) {
        if (!truthy(evaluate(*e, *tuple_))) {
          pass = false;
          break;
        }
      }
      (*tuple_)[slot_] = nullptr;
      if (pass) {
        ++produced_;
        return true;
      }
    }
    return false;
  }
  /// Only level 0 is pulled batch-at-a-time (every conjunct due there binds
  /// table 0, so evalRows needs no tuple context); inner join levels are
  /// stepped per outer row through the tuple-binding path above.
  bool doNextBatch(RowBatch& b) override {
    for (;;) {
      if (!child_->nextBatch(b)) return false;
      for (const Expr* e : conjuncts_) {
        if (b.sel.empty()) break;
        evalRows(*e, b, b.sel, eval_scratch_);
        sel_scratch_.clear();
        for (const std::uint32_t i : b.sel) {
          if (truthy(eval_scratch_[i])) sel_scratch_.push_back(i);
        }
        b.sel.swap(sel_scratch_);
      }
      // A batch whose selection vector emptied stays internal: loop for the
      // next child batch rather than emitting a zero-row batch upstream.
      if (!b.sel.empty()) {
        produced_ += b.sel.size();
        return true;
      }
    }
  }
  void doClose() override { child_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + (is_on_ ? "FILTER ON (" : "FILTER (") +
                    std::to_string(conjuncts_.size()) + " conjunct" +
                    (conjuncts_.size() == 1 ? "" : "s") + ")");
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }
  void collectStats(std::vector<OpStats*>& out) override {
    out.push_back(&stats_);
    child_->collectStats(out);
  }

 private:
  std::unique_ptr<SlotIter> child_;
  std::vector<Expr*> conjuncts_;
  Tuple* tuple_;
  std::size_t slot_;
  bool is_on_;
  std::vector<Value> eval_scratch_;
  std::vector<std::uint32_t> sel_scratch_;
};

// ---------------------------------------------------------------------------
// NestedLoop — iterative join over the per-table SlotIter chains
// ---------------------------------------------------------------------------

/// Pull-based nested-loop join that emits batches of joined rows: a lane is
/// one joined tuple whose columns are every FROM entry's columns in FROM
/// order (see evalRows); only the plan's read_cols are filled, the rest stay
/// empty. Table 0 arrives in batches from its scan/filter chain; per outer
/// lane the inner levels are stepped row-at-a-time through their access
/// paths, depth-first, so lanes come out in tuple-at-a-time nested-loop
/// order. A batch never spans two outer batches, which keeps every lane's
/// origin (outer row, ordinal under it) known for GatherOp's ranks. With a
/// single table the outer batch itself is the output.
///
/// LEFT JOIN follows standard semantics: a row "matches" when it passes the
/// table's ON conjuncts; if nothing matches, one null-extended tuple is
/// produced and only non-ON (WHERE) conjuncts apply to it.
class NestedLoop {
 public:
  /// `level0` (optional) replaces the base scan/probe iterator of the first
  /// FROM entry; GatherOp feeds per-worker loops from a shared MorselSource
  /// this way while the filter chain and join levels stay identical.
  NestedLoop(Database& db, SelectPlan& plan, std::size_t batch_rows,
             std::unique_ptr<SlotIter> level0 = nullptr)
      : read_(&plan.read_cols),
        batch_rows_(batch_rows > 0 ? batch_rows : 1),
        record_origins_(level0 != nullptr),
        tuple_(plan.from.size(), nullptr) {
    const SelectStmt& sel = *plan.sel;
    for (std::size_t t = 0; t < plan.from.size(); ++t) {
      Level lv;
      const SelectPlan::AccessPath& path = plan.paths[t];
      std::unique_ptr<SlotIter> it = (t == 0 && level0)
                                         ? std::move(level0)
                                         : makeAccessIter(db, path, plan.from[t], tuple_);
      SlotIter* matched = it.get();
      // Route the conjuncts due at this level: ON conjuncts decide LEFT JOIN
      // matching; the rest filter accepted rows. The conjunct an index
      // probe consumed already holds by construction and is skipped — except
      // on null-extended rows, which must still fail `col = x` or
      // `col IN (...)`.
      std::vector<Expr*> on_list;
      std::vector<Expr*> where_list;
      for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
        if (pc.level != static_cast<int>(t)) continue;
        if (pc.on_table == static_cast<int>(t)) {
          if (pc.expr != path.consumed) on_list.push_back(pc.expr);
        } else {
          lv.null_conjuncts.push_back(pc.expr);
          if (pc.expr != path.consumed) where_list.push_back(pc.expr);
        }
      }
      if (!on_list.empty()) {
        it = std::make_unique<FilterIter>(std::move(it), std::move(on_list),
                                          tuple_, t, /*is_on=*/true);
        matched = it.get();
      }
      if (!where_list.empty()) {
        it = std::make_unique<FilterIter>(std::move(it), std::move(where_list),
                                          tuple_, t, /*is_on=*/false);
      }
      lv.top = std::move(it);
      lv.matched_stage = matched;
      lv.null_row = Row(plan.from[t].def->columns.size());  // all NULL
      lv.left_join = sel.from[t].left_join;
      width_ += lv.null_row.size();
      levels_.push_back(std::move(lv));
    }
  }

  void open() {
    if (!stats_.timed) return openImpl();
    ++stats_.loops;
    const detail::OpTick tick(stats_);
    openImpl();
  }
  /// Fills `b` with up to `b.capacity` joined lanes (0 = batch_rows);
  /// returns false only at end of stream.
  bool nextBatch(RowBatch& b) {
    if (!stats_.timed) return nextBatchImpl(b);
    const detail::OpTick tick(stats_);
    const bool ok = nextBatchImpl(b);
    if (ok) stats_.rows += b.active();
    return ok;
  }
  void close() {
    if (!stats_.timed) return closeImpl();
    const detail::OpTick tick(stats_);
    closeImpl();
  }

  /// Table 0's scan/probe and filter chain (collectTargetRows drives it
  /// row at a time, for the rids).
  SlotIter& level0() { return *levels_[0].top; }

  /// Arms EXPLAIN ANALYZE accounting on the loop and every SlotIter chain.
  void setAnalyze(bool on) {
    stats_.timed = on;
    for (Level& lv : levels_) lv.top->setAnalyze(on);
  }

  /// Where lane `i` of the last batch came from: its row index in the
  /// level-0 batch, and its ordinal among the lanes joined to that row.
  /// Recorded by loops with a level-0 override (GatherOp's workers).
  std::pair<std::uint32_t, std::uint32_t> origin(std::uint32_t i) const {
    if (levels_.size() == 1) return {i, 0};
    return {lane_outer_[i], lane_sub_[i]};
  }

  /// OpStats pointers in construction order (loop, then each level's chain).
  /// Two loops built from the same plan produce parallel lists, so worker
  /// stats can be rolled element-wise into a template tree.
  void collectStats(std::vector<OpStats*>& out) {
    out.push_back(&stats_);
    for (Level& lv : levels_) lv.top->collectStats(out);
  }

  /// Adds `other`'s per-stage counters into this loop's (EXPLAIN ANALYZE
  /// roll-up of per-worker pipelines into the described template).
  void absorbStats(NestedLoop& other) {
    std::vector<OpStats*> mine;
    std::vector<OpStats*> theirs;
    collectStats(mine);
    other.collectStats(theirs);
    const std::size_t n = std::min(mine.size(), theirs.size());
    for (std::size_t i = 0; i < n; ++i) {
      mine[i]->loops += theirs[i]->loops;
      mine[i]->rows += theirs[i]->rows;
      mine[i]->time_ns += theirs[i]->time_ns;
    }
  }

  void describe(std::vector<std::string>& lines, int depth) const {
    int child_depth = depth;
    if (levels_.size() > 1) {
      std::string line = indentOf(depth) + "NESTED LOOP JOIN (" +
                         std::to_string(levels_.size()) + " tables)";
      if (stats_.timed) appendActuals(line, stats_);
      lines.push_back(std::move(line));
      child_depth = depth + 1;
    }
    for (const Level& lv : levels_) lv.top->describe(lines, child_depth);
  }

 private:
  struct Level {
    std::unique_ptr<SlotIter> top;      // filter stages over the scan/probe
    SlotIter* matched_stage = nullptr;  // produced() > 0 <=> ON-matched
    Row row;
    Row null_row;
    bool left_join = false;
    std::vector<Expr*> null_conjuncts;  // checked on the null-extended row
    bool null_pending = false;
    bool null_done = false;
  };

  void openImpl() {
    started_ = false;
    done_ = false;
    inner_open_ = false;
    outer_.clearRows();
    outer_pos_ = 0;
    std::fill(tuple_.begin(), tuple_.end(), nullptr);
  }

  bool nextBatchImpl(RowBatch& b) {
    if (done_ || levels_.empty()) return false;
    if (!started_) {
      started_ = true;
      levels_[0].top->open();
    }
    const std::size_t cap = b.capacity > 0 ? b.capacity : batch_rows_;
    if (levels_.size() == 1) {
      b.capacity = cap;
      if (levels_[0].top->nextBatch(b)) return true;
      finish();
      return false;
    }
    b.reset(width_, 0);
    lane_outer_.clear();
    lane_sub_.clear();
    while (b.nrows < cap) {
      if (!inner_open_) {
        if (outer_pos_ >= outer_.sel.size()) {
          if (b.nrows > 0) break;  // lanes never span two outer batches
          outer_.capacity = cap;
          if (!levels_[0].top->nextBatch(outer_)) {
            finish();
            break;
          }
          outer_pos_ = 0;
        }
        // Lanes copy table 0's columns from outer_row_, so the batch's
        // values can move.
        outer_.takeRow(outer_.sel[outer_pos_], outer_row_);
        tuple_[0] = &outer_row_;
        sub_ = 0;
      }
      if (!nextInner()) {  // this outer row has no further combinations
        ++outer_pos_;
        continue;
      }
      for (const SelectPlan::ReadCol& rc : *read_) {
        b.cols[rc.flat].push_back((*tuple_[rc.table])[rc.col]);
      }
      b.sel.push_back(static_cast<std::uint32_t>(b.nrows++));
      if (record_origins_) {
        lane_outer_.push_back(outer_.sel[outer_pos_]);
        lane_sub_.push_back(sub_);
      }
      ++sub_;
    }
    return b.nrows > 0;
  }

  /// Binds the next joined tuple under the current outer row into tuple_,
  /// stepping levels 1..last depth-first from where the previous tuple left
  /// them; false, with every inner level closed, once the row is exhausted.
  bool nextInner() {
    const int last = static_cast<int>(levels_.size()) - 1;
    int t = last;
    if (!inner_open_) {
      inner_open_ = true;
      openLevel(1);
      t = 1;
    }
    RecordId rid;  // inner levels join rows; their rids go unused
    while (t >= 1) {
      Level& lv = levels_[static_cast<std::size_t>(t)];
      if (lv.null_pending) {
        lv.null_pending = false;
        tuple_[static_cast<std::size_t>(t)] = &lv.null_row;
        if (!nullRowPasses(lv)) {
          t = ascend(t);
          continue;
        }
      } else if (lv.top->next(rid, lv.row)) {
        tuple_[static_cast<std::size_t>(t)] = &lv.row;
      } else {
        if (lv.left_join && !lv.null_done && lv.matched_stage->produced() == 0) {
          lv.null_pending = true;
          lv.null_done = true;
          continue;
        }
        t = ascend(t);
        continue;
      }
      if (t == last) return true;
      openLevel(static_cast<std::size_t>(t) + 1);
      ++t;
    }
    inner_open_ = false;
    return false;
  }

  void closeImpl() {
    for (Level& lv : levels_) lv.top->close();
    std::fill(tuple_.begin(), tuple_.end(), nullptr);
    done_ = true;
  }

  /// End of stream: table 0 is exhausted.
  void finish() {
    levels_[0].top->close();
    done_ = true;
  }

  void openLevel(std::size_t t) {
    Level& lv = levels_[t];
    lv.null_pending = false;
    lv.null_done = false;
    tuple_[t] = nullptr;
    lv.top->open();
  }

  bool nullRowPasses(const Level& lv) const {
    for (const Expr* e : lv.null_conjuncts) {
      if (!truthy(evaluate(*e, tuple_))) return false;
    }
    return true;
  }

  int ascend(int t) {
    levels_[static_cast<std::size_t>(t)].top->close();
    tuple_[static_cast<std::size_t>(t)] = nullptr;
    return t - 1;
  }

  const std::vector<SelectPlan::ReadCol>* read_;  // the columns lanes carry
  std::size_t batch_rows_;
  bool record_origins_;
  std::size_t width_ = 0;  // columns of a joined row
  Tuple tuple_;
  std::vector<Level> levels_;
  RowBatch outer_;          // the level-0 batch being joined
  std::size_t outer_pos_ = 0;  // index into outer_.sel of the current outer row
  Row outer_row_;           // that row, bound as tuple_[0] for inner probes
  std::uint32_t sub_ = 0;   // lanes emitted so far under the current outer row
  bool inner_open_ = false;  // inner levels are mid-enumeration for it
  std::vector<std::uint32_t> lane_outer_;  // per lane of the last joined batch
  std::vector<std::uint32_t> lane_sub_;
  bool started_ = false;
  bool done_ = false;
  OpStats stats_;
};

// ---------------------------------------------------------------------------
// Operators above the join
// ---------------------------------------------------------------------------

/// SELECT without FROM: one row of constant expressions.
class ConstRowOp : public RowOp {
 public:
  explicit ConstRowOp(SelectPlan& plan) : plan_(&plan) {}

  void doOpen() override { emitted_ = false; }
  bool doNextBatch(RowBatch& b) override {
    if (emitted_) return false;
    emitted_ = true;
    Row row;
    row.reserve(plan_->outputs.size());
    for (const SelectPlan::OutputCol& out : plan_->outputs) {
      row.push_back(evalConst(*out.expr));
    }
    b.reset(row.size(), 0);
    b.appendMoveValues(row);
    return true;
  }
  void doClose() override {}
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + "CONST ROW");
  }

 private:
  SelectPlan* plan_;
  bool emitted_ = false;
};

/// Evaluates the output expressions (and ORDER BY keys) column-wise over the
/// join's batches. A plan's sole_column outputs and keys move out of the
/// input batch (refilled on the next pull) instead of being copied.
class ProjectOp : public RowOp {
 public:
  ProjectOp(std::unique_ptr<NestedLoop> src, SelectPlan& plan, std::size_t batch_rows)
      : src_(std::move(src)), plan_(&plan), batch_rows_(batch_rows) {}

  void doOpen() override { src_->open(); }
  bool doNextBatch(RowBatch& b) override {
    in_.capacity = b.capacity ? b.capacity : batch_rows_;
    if (!src_->nextBatch(in_)) return false;
    const SelectStmt& sel = *plan_->sel;
    const std::size_t nout = plan_->outputs.size();
    b.reset(nout, sel.order_by.size());
    for (std::size_t c = 0; c < nout; ++c) {
      fill(*plan_->outputs[c].expr, plan_->sole_column[c], b.cols[c]);
    }
    for (std::size_t k = 0; k < sel.order_by.size(); ++k) {
      fill(*sel.order_by[k].expr, plan_->sole_column[nout + k], b.keys[k]);
    }
    const std::size_t n = in_.sel.size();
    b.nrows = n;
    b.sel.resize(n);
    for (std::size_t i = 0; i < n; ++i) b.sel[i] = static_cast<std::uint32_t>(i);
    return true;
  }
  void doClose() override { src_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string cols;
    for (const SelectPlan::OutputCol& out : plan_->outputs) {
      if (!cols.empty()) cols += ", ";
      cols += out.name;
    }
    lines.push_back(indentOf(depth) + "PROJECT " + cols);
    src_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    src_->setAnalyze(on);
  }

 private:
  /// Appends `e`'s value for every live input lane to `out` (empty).
  void fill(const Expr& e, bool sole_column, std::vector<Value>& out) {
    if (sole_column) {
      std::vector<Value>& col = in_.cols[static_cast<std::size_t>(e.bound_flat)];
      if (in_.sel.size() == in_.nrows) {
        out.swap(col);  // every lane live: hand the column over whole
        return;
      }
      out.reserve(in_.sel.size());
      for (const std::uint32_t i : in_.sel) out.push_back(std::move(col[i]));
      return;
    }
    out.reserve(in_.sel.size());
    evalRows(e, in_, in_.sel, eval_scratch_);
    for (const std::uint32_t i : in_.sel) out.push_back(std::move(eval_scratch_[i]));
  }

  std::unique_ptr<NestedLoop> src_;
  SelectPlan* plan_;
  std::size_t batch_rows_;
  RowBatch in_;
  std::vector<Value> eval_scratch_;
};

/// The group keys and aggregate arguments of a plan over the live lanes of
/// a batch: a bare column is read in place, anything else is evaluated.
class GroupInputs {
 public:
  explicit GroupInputs(const SelectPlan& plan)
      : plan_(&plan),
        keys_(plan.sel->group_by.size()),
        args_(plan.aggregates.size()),
        scratch_(keys_.size() + args_.size()) {}

  void evaluate(const RowBatch& b) {
    for (std::size_t g = 0; g < keys_.size(); ++g) {
      keys_[g] = &lanes(*plan_->sel->group_by[g], b, scratch_[g]);
    }
    for (std::size_t a = 0; a < args_.size(); ++a) {
      const Expr* arg = plan_->aggregates[a]->lhs.get();
      args_[a] = arg ? &lanes(*arg, b, scratch_[keys_.size() + a]) : nullptr;
    }
  }
  /// The encoded group key of lane `i`.
  EncodedKey key(std::uint32_t i) const {
    EncodedKey key;
    for (const std::vector<Value>* col : keys_) encodeValue((*col)[i], key);
    return key;
  }
  /// Aggregate `a`'s argument at lane `i`; nullptr for COUNT(*).
  const Value* arg(std::size_t a, std::uint32_t i) const {
    return args_[a] ? &(*args_[a])[i] : nullptr;
  }

 private:
  static const std::vector<Value>& lanes(const Expr& e, const RowBatch& b,
                                         std::vector<Value>& scratch) {
    if (e.kind == Expr::Kind::Column) {
      return b.cols[static_cast<std::size_t>(e.bound_flat)];
    }
    evalRows(e, b, b.sel, scratch);
    return scratch;
  }

  const SelectPlan* plan_;
  std::vector<const std::vector<Value>*> keys_;  // per GROUP BY key
  std::vector<const std::vector<Value>*> args_;  // per aggregate
  std::vector<std::vector<Value>> scratch_;
};

/// Blocking aggregation: drains the join on the first pull, groups by the
/// GROUP BY keys, then emits one row per HAVING-surviving group. The build
/// phase evaluates group keys and aggregate arguments column-wise per batch
/// and only materializes a row when a group first appears.
class AggregateOp : public RowOp {
 public:
  AggregateOp(std::unique_ptr<NestedLoop> src, SelectPlan& plan, std::size_t batch_rows)
      : src_(std::move(src)), plan_(&plan), batch_rows_(batch_rows) {}

  void doOpen() override {
    src_->open();
    built_ = false;
    out_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!built_) build();
    return emitBuffered(out_, pos_, b.capacity ? b.capacity : batch_rows_,
                        plan_->sel->order_by.size(), b);
  }
  void doClose() override {
    src_->close();
    out_.clear();
    pos_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    const SelectStmt& sel = *plan_->sel;
    std::string line = indentOf(depth) + "AGGREGATE (" +
                       std::to_string(plan_->aggregates.size()) + " aggregate" +
                       (plan_->aggregates.size() == 1 ? "" : "s") + ", " +
                       std::to_string(sel.group_by.size()) + " group key" +
                       (sel.group_by.size() == 1 ? "" : "s") + ")";
    if (sel.having) line += " HAVING";
    lines.push_back(std::move(line));
    src_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    src_->setAnalyze(on);
  }

 private:
  void build() {
    const SelectStmt& sel = *plan_->sel;
    std::map<EncodedKey, Group> groups;
    accumulate(groups);
    src_->close();
    for (const auto& [key, group] : groups) emitGroup(*plan_, group, out_);
    if (groups.empty() && sel.group_by.empty()) emitEmptyInput(*plan_, out_);
    built_ = true;
  }

  /// Evaluates the group keys and aggregate arguments column-at-a-time over
  /// each input batch, then probes the group map per live lane.
  void accumulate(std::map<EncodedKey, Group>& groups) {
    RowBatch in;
    in.capacity = batch_rows_;
    GroupInputs inputs(*plan_);
    while (src_->nextBatch(in)) {
      inputs.evaluate(in);
      for (std::uint32_t i : in.sel) {
        auto [it, inserted] = groups.try_emplace(inputs.key(i));
        Group& grp = it->second;
        if (inserted) {
          grp.aggs.resize(plan_->aggregates.size());
          in.materializeRow(i, grp.first_row);
        }
        for (std::size_t a = 0; a < plan_->aggregates.size(); ++a) {
          if (const Value* v = inputs.arg(a, i)) {
            grp.aggs[a].add(*v, plan_->aggregates[a]->agg_distinct);
          } else {
            grp.aggs[a].count++;  // COUNT(*)
          }
        }
      }
    }
  }

  std::unique_ptr<NestedLoop> src_;
  SelectPlan* plan_;
  std::size_t batch_rows_;
  bool built_ = false;
  KeyedRows out_;
  std::size_t pos_ = 0;
};

/// Streaming duplicate elimination on the projected row values.
class DistinctOp : public RowOp {
 public:
  explicit DistinctOp(std::unique_ptr<RowOp> child) : child_(std::move(child)) {}

  void doOpen() override {
    child_->open();
    seen_.clear();
  }
  bool doNextBatch(RowBatch& b) override {
    // Probe the seen-set per live lane and compact the selection vector;
    // a batch whose rows are all duplicates is skipped, not returned empty.
    while (child_->nextBatch(b)) {
      sel_scratch_.clear();
      for (std::uint32_t i : b.sel) {
        EncodedKey key;
        for (const auto& c : b.cols) encodeValue(c[i], key);
        if (seen_.insert(std::move(key)).second) sel_scratch_.push_back(i);
      }
      b.sel.swap(sel_scratch_);
      if (!b.sel.empty()) return true;
    }
    return false;
  }
  void doClose() override {
    child_->close();
    seen_.clear();
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + "DISTINCT");
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  std::unique_ptr<RowOp> child_;
  std::set<EncodedKey> seen_;
  std::vector<std::uint32_t> sel_scratch_;
};

/// Blocking sort on the ORDER BY keys. With a pushed-down LIMIT the sort
/// keeps a bounded top-K heap (K = offset + limit) instead of materializing
/// and sorting every input row. An input sequence number is the final
/// comparison key, so the output order is exactly what a stable sort of the
/// full input would produce.
class SortOp : public RowOp {
 public:
  SortOp(std::unique_ptr<RowOp> child, SelectPlan& plan,
         std::optional<std::size_t> top_k, std::size_t batch_rows)
      : child_(std::move(child)),
        plan_(&plan),
        top_k_(top_k),
        batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

  void doOpen() override {
    child_->open();
    sorted_ = false;
    rows_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!sorted_) drain();
    if (pos_ >= rows_.size()) return false;
    const std::size_t cap = b.capacity ? b.capacity : batch_rows_;
    // Keys are consumed by the sort; downstream sees plain rows.
    b.reset(rows_[pos_].row.size(), 0);
    while (b.nrows < cap && pos_ < rows_.size()) {
      b.appendMoveValues(rows_[pos_].row);
      ++pos_;
    }
    return true;
  }
  void doClose() override {
    child_->close();
    rows_.clear();
    pos_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    const std::size_t n = plan_->sel->order_by.size();
    std::string line = indentOf(depth) + "SORT BY " + std::to_string(n) + " key" +
                       (n == 1 ? "" : "s");
    if (top_k_) line += " (TOP-K " + std::to_string(*top_k_) + ")";
    lines.push_back(std::move(line));
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  struct Keyed {
    std::vector<Value> keys;
    Row row;
    std::uint64_t seq = 0;
  };

  bool before(const Keyed& a, const Keyed& b) const {
    const auto& order = plan_->sel->order_by;
    const std::size_t n =
        std::min({order.size(), a.keys.size(), b.keys.size()});
    for (std::size_t i = 0; i < n; ++i) {
      const int c = a.keys[i].compare(b.keys[i]);
      if (c != 0) return order[i].descending ? c > 0 : c < 0;
    }
    return a.seq < b.seq;  // stable: ties keep input order
  }

  void drain() {
    auto cmp = [this](const Keyed& a, const Keyed& b) { return before(a, b); };
    RowBatch in;
    in.capacity = batch_rows_;
    std::uint64_t seq = 0;
    while (child_->nextBatch(in)) {
      for (std::uint32_t i : in.sel) {
        if (top_k_ && *top_k_ == 0) {
          ++seq;
          continue;  // LIMIT 0: consume input, keep nothing
        }
        Keyed k;
        in.takeRow(i, k.row);
        in.takeKeys(i, k.keys);
        k.seq = seq++;
        rows_.push_back(std::move(k));
        if (top_k_) {
          std::push_heap(rows_.begin(), rows_.end(), cmp);
          if (rows_.size() > *top_k_) {
            std::pop_heap(rows_.begin(), rows_.end(), cmp);
            rows_.pop_back();
          }
        }
      }
    }
    if (top_k_) {
      std::sort_heap(rows_.begin(), rows_.end(), cmp);
    } else {
      std::sort(rows_.begin(), rows_.end(), cmp);
    }
    sorted_ = true;
  }

  std::unique_ptr<RowOp> child_;
  SelectPlan* plan_;
  std::optional<std::size_t> top_k_;
  std::size_t batch_rows_;
  std::vector<Keyed> rows_;
  std::size_t pos_ = 0;
  bool sorted_ = false;
};

/// Streaming OFFSET/LIMIT; without an ORDER BY below it this stops pulling
/// (and therefore scanning) as soon as the limit is reached.
class LimitOp : public RowOp {
 public:
  LimitOp(std::unique_ptr<RowOp> child, std::optional<std::size_t> limit,
          std::size_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  void doOpen() override {
    child_->open();
    skipped_ = 0;
    emitted_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (limit_ && emitted_ >= *limit_) return false;
    const std::size_t caller_cap = b.capacity;
    while (true) {
      // Never ask the child for more rows than the limit still needs —
      // without an ORDER BY below, that over-pull would over-scan the table.
      if (limit_) {
        const std::size_t need = (offset_ - skipped_) + (*limit_ - emitted_);
        if (caller_cap == 0 || need < caller_cap) b.capacity = need;
      }
      const bool ok = child_->nextBatch(b);
      b.capacity = caller_cap;
      if (!ok) return false;
      if (skipped_ < offset_) {
        const std::size_t drop =
            std::min(offset_ - skipped_, b.sel.size());
        b.sel.erase(b.sel.begin(),
                    b.sel.begin() + static_cast<std::ptrdiff_t>(drop));
        skipped_ += drop;
      }
      if (limit_ && b.sel.size() > *limit_ - emitted_) {
        b.sel.resize(*limit_ - emitted_);
      }
      if (!b.sel.empty()) {
        emitted_ += b.sel.size();
        return true;
      }
      if (limit_ && emitted_ >= *limit_) return false;
    }
  }
  void doClose() override { child_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line = indentOf(depth);
    if (limit_) {
      line += "LIMIT " + std::to_string(*limit_);
      if (offset_ > 0) line += " OFFSET " + std::to_string(offset_);
    } else {
      line += "OFFSET " + std::to_string(offset_);
    }
    lines.push_back(std::move(line));
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  std::unique_ptr<RowOp> child_;
  std::optional<std::size_t> limit_;
  std::size_t offset_ = 0;
  std::size_t skipped_ = 0;
  std::size_t emitted_ = 0;
};

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution
//
// A MorselSource partitions table 0 into ~kMorselTargetRows-row morsels that
// workers claim with one atomic (page partitioning) or one short lock
// (cursor chunking). Each morsel is decoded into the RowBatch that becomes
// the outer batch of the worker's join, and carries a dense morsel id: a
// joined lane's global rank is (morsel id, row index in the morsel, ordinal
// under that row), so concatenating morsels in id order reproduces the
// serial scan order exactly and parallel runs stay bit-identical to serial
// ones (group representatives, DISTINCT survivors, and ORDER BY tie-breaks
// all resolve by rank).
// ---------------------------------------------------------------------------

/// Bits of the rank reserved for the row's offset inside its morsel (page
/// morsels are capped well below 2^18 rows).
constexpr unsigned kMorselRowBits = 18;

/// Thread-safe supplier of decoded row batches. abort() drains the source
/// early when one worker fails, so the others reach the barrier quickly.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Decodes the next morsel into `out` (every row live) and its id into
  /// `id`; false once the source is drained.
  bool next(RowBatch& out, std::uint64_t& id) {
    if (aborted_.load(std::memory_order_relaxed)) return false;
    if (!produce(out, id)) return false;
    execCounters().morsels_dispatched.inc();
    return true;
  }

  void abort() { aborted_.store(true, std::memory_order_relaxed); }

 protected:
  virtual bool produce(RowBatch& out, std::uint64_t& id) = 0;

 private:
  std::atomic<bool> aborted_{false};
};

/// SeqScan partitioning: snapshot the heap page chain, hand out fixed runs
/// of whole pages per morsel (atomic claim, no lock), decode on the worker.
class PageMorselSource : public MorselSource {
 public:
  PageMorselSource(Database& db, const TableDef& table)
      : pager_(&db.pager()), ncols_(table.columns.size()) {
    pages_ = HeapFile::collectPages(*pager_, table.first_page);
    // Whole pages per morsel, sized from the first page's fill so a morsel
    // lands near kMorselTargetRows rows. Capped so ranks fit kMorselRowBits.
    std::size_t rows_on_first = 0;
    if (!pages_.empty()) {
      HeapFile::visitPageRecords(*pager_, pages_[0],
                                 [&](const std::uint8_t*, std::size_t) {
                                   ++rows_on_first;
                                   return true;
                                 });
    }
    rows_per_page_ = std::max<std::size_t>(rows_on_first, 1);
    pages_per_morsel_ =
        std::clamp<std::size_t>(kMorselTargetRows / rows_per_page_, 1, 64);
  }

  std::size_t morselCount() const {
    return (pages_.size() + pages_per_morsel_ - 1) / pages_per_morsel_;
  }

 protected:
  bool produce(RowBatch& out, std::uint64_t& id) override {
    const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = idx * pages_per_morsel_;
    if (begin >= pages_.size()) return false;
    const std::size_t end = std::min(begin + pages_per_morsel_, pages_.size());
    id = idx;
    out.reset(ncols_, 0);
    const std::size_t expect = rows_per_page_ * (end - begin);
    for (std::vector<Value>& col : out.cols) col.reserve(expect);
    out.sel.reserve(expect);
    Row row;
    for (std::size_t p = begin; p < end; ++p) {
      HeapFile::visitPageRecords(*pager_, pages_[p],
                                 [&](const std::uint8_t* data, std::size_t size) {
                                   row = deserializeRow(data, size);
                                   out.appendMoveValues(row);
                                   return true;
                                 });
    }
    return true;
  }

 private:
  Pager* pager_;
  std::size_t ncols_;
  std::vector<PageId> pages_;
  std::size_t rows_per_page_ = 1;  // the first page's, to size the batch
  std::size_t pages_per_morsel_ = 1;
  std::atomic<std::size_t> next_{0};
};

/// Index-path partitioning: one shared storage cursor, chunked into
/// batch_rows-row batches under a mutex. The lock covers the decode, but
/// filter/project/aggregate work — the bulk of these queries — still fans
/// out. Chunk boundaries depend only on the pull count, so morsel contents
/// are deterministic regardless of which worker claims them.
class CursorMorselSource : public MorselSource {
 public:
  CursorMorselSource(std::unique_ptr<SlotIter> iter, std::size_t batch_rows)
      : iter_(std::move(iter)), batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

  /// Opens the underlying cursor (bound evaluation) on the caller's thread.
  void open() { iter_->open(); }

 protected:
  bool produce(RowBatch& out, std::uint64_t& id) override {
    const std::lock_guard<std::mutex> lock(mu_);
    if (done_) return false;
    id = next_id_++;
    out.capacity = batch_rows_;
    if (!iter_->nextBatch(out) || out.nrows < batch_rows_) {
      done_ = true;
      iter_->close();
    }
    return out.nrows > 0;
  }

 private:
  std::mutex mu_;
  std::unique_ptr<SlotIter> iter_;
  std::size_t batch_rows_;
  bool done_ = false;
  std::uint64_t next_id_ = 0;
};

/// The level-0 iterator of a per-worker NestedLoop: each batch is one whole
/// morsel claimed from the shared MorselSource, so a lane's row index in the
/// outer batch is its offset in the morsel. morselId() names the morsel of
/// the batch handed out last.
class MorselFedIter : public SlotIter {
 public:
  MorselFedIter(MorselSource* src, const SelectPlan::AccessPath& path,
                const SelectPlan::FromEntry& entry)
      : src_(src), path_(&path), entry_(&entry) {}

  std::uint64_t morselId() const { return morsel_id_; }

 protected:
  void doOpen() override { produced_ = 0; }
  bool doNext(RecordId&, Row&) override {
    throw SqlError("internal: morsel-fed scans are batch-only");
  }
  bool doNextBatch(RowBatch& b) override {
    while (src_->next(b, morsel_id_)) {
      if (b.nrows == 0) continue;  // a morsel of empty pages
      produced_ += b.nrows;
      return true;
    }
    return false;
  }
  void doClose() override {}
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_) + " [morsel]");
  }

 private:
  MorselSource* src_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  std::uint64_t morsel_id_ = 0;
};

/// The parallel subtree: runs per-worker partial pipelines over a shared
/// MorselSource on the process-wide ExecPool and merges their thread-local
/// states at one barrier. Emits exactly what the serial
/// (Project|Aggregate)(NestedLoop) subtree would, in the same order, so the
/// serial operators above (Distinct, Sort, Limit) run unchanged:
///
///   grouped   partial hash aggregates merge per group key; the group
///             representative (bare-column first_row) is the minimum-rank
///             input, matching serial first-arrival; groups emit in encoded
///             key order like AggregateOp.
///   row mode  per-worker buffers (optionally deduped for DISTINCT and
///             bounded by an ORDER BY+LIMIT top-K heap, both of which only
///             shrink the candidate set the serial operators re-check)
///             merge sorted by rank, i.e. serial scan order.
class GatherOp : public RowOp {
 public:
  GatherOp(Database& db, SelectPlan& plan, const ExecOptions& opts,
           std::optional<std::size_t> row_top_k)
      : db_(&db),
        plan_(&plan),
        degree_(opts.degree),
        batch_rows_(opts.batch_rows),
        top_k_(row_top_k),
        grouped_(plan.grouped),
        distinct_(plan.sel->distinct && !plan.grouped),
        src_tuple_(plan.from.size(), nullptr),
        template_loop_(std::make_unique<NestedLoop>(db, plan, opts.batch_rows)) {}

  void doOpen() override {
    built_ = false;
    out_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!built_) runParallel();
    return emitBuffered(out_, pos_, b.capacity ? b.capacity : batch_rows_,
                        plan_->sel->order_by.size(), b);
  }
  void doClose() override {
    out_.clear();
    pos_ = 0;
  }

  void setAnalyze(bool on) override {
    stats_.timed = on;
    analyze_ = on;
    partial_stats_.timed = on;
    template_loop_->setAnalyze(on);
  }

  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line =
        indentOf(depth) + "GATHER (workers=" + std::to_string(degree_);
    if (grouped_) line += ", partial aggregate";
    if (distinct_) line += ", partial distinct";
    if (top_k_) line += ", top-k " + std::to_string(*top_k_);
    line += ")";
    lines.push_back(std::move(line));
    if (analyze_ && ran_) {
      lines.push_back(indentOf(depth + 1) + perWorkerLine());
    }
    const std::size_t partial_line = lines.size();
    if (grouped_) {
      const SelectStmt& sel = *plan_->sel;
      std::string agg = indentOf(depth + 1) + "PARTIAL AGGREGATE (" +
                        std::to_string(plan_->aggregates.size()) + " aggregate" +
                        (plan_->aggregates.size() == 1 ? "" : "s") + ", " +
                        std::to_string(sel.group_by.size()) + " group key" +
                        (sel.group_by.size() == 1 ? "" : "s") + ")";
      if (sel.having) agg += " HAVING";
      lines.push_back(std::move(agg));
    } else {
      std::string cols;
      for (const SelectPlan::OutputCol& out : plan_->outputs) {
        if (!cols.empty()) cols += ", ";
        cols += out.name;
      }
      lines.push_back(indentOf(depth + 1) + "PROJECT " + cols);
    }
    if (partial_stats_.timed) appendActuals(lines[partial_line], partial_stats_);
    template_loop_->describe(lines, depth + 2);
  }

 private:
  // --- per-worker state ----------------------------------------------------

  struct Entry {
    std::vector<Value> keys;  // ORDER BY keys
    Row row;                  // projected output row
    std::uint64_t rank = 0;   // global scan rank of the outer row
    std::uint64_t sub = 0;    // join-output ordinal under that outer row
  };

  /// Mergeable fragment of one AggState. DISTINCT aggregates carry the
  /// distinct values themselves (keyed by encoding) so the final counts and
  /// sums are recomputed exactly after the cross-worker union.
  struct PartialAggState {
    std::int64_t count = 0;
    std::int64_t isum = 0;
    double rsum = 0.0;
    bool saw_real = false;
    Value min;
    Value max;
    std::map<EncodedKey, Value> distinct;
  };

  struct PartialGroup {
    Row first_row;
    std::uint64_t first_rank = 0;
    std::uint64_t first_sub = 0;
    std::vector<PartialAggState> aggs;
  };

  struct WorkerState {
    std::unordered_map<EncodedKey, PartialGroup> groups;  // grouped mode
    std::vector<Entry> rows;                              // row mode
    std::set<EncodedKey> seen;     // row-mode local DISTINCT dedup
    std::uint64_t emitted = 0;     // partial-stage outputs (per-worker line)
    std::uint64_t busy_ns = 0;
  };

  static void partialAdd(PartialAggState& s, const Value& v, bool distinct_only) {
    if (v.isNull()) return;
    if (distinct_only) {
      EncodedKey key;
      encodeValue(v, key);
      s.distinct.emplace(std::move(key), v);
      return;
    }
    ++s.count;
    if (v.isReal()) {
      s.saw_real = true;
      s.rsum += v.asReal();
    } else if (v.isInt()) {
      s.isum += v.asInt();
      s.rsum += static_cast<double>(v.asInt());
    }
    if (s.min.isNull() || v.compare(s.min) < 0) s.min = v;
    if (s.max.isNull() || v.compare(s.max) > 0) s.max = v;
  }

  void runParallel() {
    built_ = true;
    // Mirror the serial path's invariant: storage is pinned for the whole
    // drain, so a concurrent DDL/DML attempt on this database throws
    // instead of invalidating worker iterators.
    const Database::CursorPin pin = db_->pinCursor();
    execCounters().parallel_queries.inc();

    const SelectPlan::AccessPath& path = plan_->paths[0];
    std::unique_ptr<MorselSource> src;
    std::size_t extra = static_cast<std::size_t>(degree_ > 0 ? degree_ - 1 : 0);
    if (path.kind == SelectPlan::AccessPath::Kind::Scan) {
      auto ps = std::make_unique<PageMorselSource>(*db_, *plan_->from[0].def);
      // No point spinning more workers than there are morsels.
      const std::size_t morsels = ps->morselCount();
      extra = std::min(extra, morsels > 0 ? morsels - 1 : 0);
      src = std::move(ps);
    } else {
      auto cs = std::make_unique<CursorMorselSource>(
          makeAccessIter(*db_, path, plan_->from[0], src_tuple_), batch_rows_);
      cs->open();  // bound evaluation happens on the calling thread
      src = std::move(cs);
    }

    states_.clear();
    states_.resize(extra + 1);
    MorselSource* s = src.get();
    // Pool workers are fresh threads: when this cursor reads through a
    // pinned snapshot, re-install it on each worker so every morsel is
    // resolved against the same committed version the caller sees.
    const Pager::SnapshotToken snap_token = Pager::currentToken();
    const ExecPool::RunStats run = ExecPool::shared().run(
        extra, [&](std::size_t slot) {
          std::optional<Pager::SnapshotScope> snap_scope;
          if (snap_token.pager != nullptr) snap_scope.emplace(snap_token);
          try {
            runWorker(slot, *s);
          } catch (...) {
            s->abort();  // stop the other workers' morsel supply
            throw;
          }
        });
    gather_wait_ns_ = run.wait_ns;
    execCounters().gather_wait_ms.observe(static_cast<double>(run.wait_ns) / 1e6);

    if (grouped_) {
      mergeGrouped();
    } else {
      mergeRows();
    }
    if (analyze_) {
      partial_stats_.loops = states_.size();
      partial_stats_.time_ns = 0;
      for (const WorkerState& ws : states_) partial_stats_.time_ns += ws.busy_ns;
    }
    ran_ = true;
  }

  void runWorker(std::size_t slot, MorselSource& src) {
    WorkerState& ws = states_[slot];
    const auto start = std::chrono::steady_clock::now();
    // The worker's private copy of the serial join, fed whole morsels as
    // its outer batches.
    auto fed =
        std::make_unique<MorselFedIter>(&src, plan_->paths[0], plan_->from[0]);
    const MorselFedIter* fed_raw = fed.get();
    NestedLoop loop(*db_, *plan_, batch_rows_, std::move(fed));
    if (analyze_) loop.setAnalyze(true);
    loop.open();
    RowBatch in;
    GroupInputs inputs(*plan_);
    for (;;) {
      in.capacity = batch_rows_;
      if (!loop.nextBatch(in)) break;
      const std::uint64_t morsel = fed_raw->morselId() << kMorselRowBits;
      if (grouped_) {
        accumulate(ws, inputs, in, loop, morsel);
      } else {
        emitRows(ws, in, loop, morsel);
      }
    }
    loop.close();
    if (analyze_) {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      template_loop_->absorbStats(loop);
    }
    ws.busy_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  /// Partial aggregation of one joined batch. A lane's rank is its morsel
  /// bits (`morsel`) | its row index in the morsel, tie-broken by its
  /// ordinal under that row.
  void accumulate(WorkerState& ws, GroupInputs& inputs, const RowBatch& in,
                  const NestedLoop& loop, std::uint64_t morsel) {
    inputs.evaluate(in);
    for (const std::uint32_t i : in.sel) {
      auto [it, inserted] = ws.groups.try_emplace(inputs.key(i));
      PartialGroup& g = it->second;
      if (inserted) {
        ++ws.emitted;
        const auto [outer, sub] = loop.origin(i);
        g.first_rank = morsel | outer;
        g.first_sub = sub;
        g.aggs.resize(plan_->aggregates.size());
        // A worker consumes lanes in increasing rank order, so the first
        // arrival is the worker-local minimum; cross-worker minima resolve
        // at the merge.
        in.materializeRow(i, g.first_row);
      }
      for (std::size_t a = 0; a < plan_->aggregates.size(); ++a) {
        if (const Value* v = inputs.arg(a, i)) {
          partialAdd(g.aggs[a], *v, plan_->aggregates[a]->agg_distinct);
        } else {
          ++g.aggs[a].count;  // COUNT(*)
        }
      }
    }
  }

  /// Projects one joined batch into ranked entries (locally deduplicated
  /// and top-K bounded when the plan allows). Sole-column outputs and keys
  /// take the input column whole (the next pull refills it).
  void emitRows(WorkerState& ws, RowBatch& in, const NestedLoop& loop,
                std::uint64_t morsel) {
    const SelectStmt& sel = *plan_->sel;
    const std::size_t ncols = plan_->outputs.size();
    std::vector<std::vector<Value>> cols(ncols + sel.order_by.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const Expr& e = c < ncols ? *plan_->outputs[c].expr : *sel.order_by[c - ncols].expr;
      if (plan_->sole_column[c]) {
        cols[c].swap(in.cols[static_cast<std::size_t>(e.bound_flat)]);
      } else {
        evalRows(e, in, in.sel, cols[c]);
      }
    }
    auto cmp = [this](const Entry& a, const Entry& b) { return entryBefore(a, b); };
    for (const std::uint32_t i : in.sel) {
      Entry e;
      e.row.reserve(ncols);
      for (std::size_t c = 0; c < ncols; ++c) e.row.push_back(std::move(cols[c][i]));
      if (distinct_) {
        // Local dedup: keeps the worker's first (minimum-rank) copy. The
        // DistinctOp above resolves cross-worker duplicates; dedup must
        // happen before the top-K heap so duplicates never evict candidates.
        EncodedKey key;
        for (const Value& v : e.row) encodeValue(v, key);
        if (!ws.seen.insert(std::move(key)).second) continue;
      }
      ++ws.emitted;
      if (top_k_ && *top_k_ == 0) continue;  // LIMIT 0: consume input, keep nothing
      const auto [outer, sub] = loop.origin(i);
      e.rank = morsel | outer;
      e.sub = sub;
      e.keys.reserve(sel.order_by.size());
      for (std::size_t k = ncols; k < cols.size(); ++k) {
        e.keys.push_back(std::move(cols[k][i]));
      }
      ws.rows.push_back(std::move(e));
      if (top_k_) {
        std::push_heap(ws.rows.begin(), ws.rows.end(), cmp);
        if (ws.rows.size() > *top_k_) {
          std::pop_heap(ws.rows.begin(), ws.rows.end(), cmp);
          ws.rows.pop_back();
        }
      }
    }
  }

  /// SortOp::before() over global ranks: a worker's top-K heap keeps its K
  /// best by exactly the ordering the serial sort would apply, so the union
  /// of worker heaps is a superset of the true top K.
  bool entryBefore(const Entry& a, const Entry& b) const {
    const auto& order = plan_->sel->order_by;
    const std::size_t n = std::min({order.size(), a.keys.size(), b.keys.size()});
    for (std::size_t i = 0; i < n; ++i) {
      const int c = a.keys[i].compare(b.keys[i]);
      if (c != 0) return order[i].descending ? c > 0 : c < 0;
    }
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.sub < b.sub;
  }

  void mergeGrouped() {
    const SelectStmt& sel = *plan_->sel;
    std::map<EncodedKey, PartialGroup> merged;
    for (WorkerState& ws : states_) {
      for (auto& [key, pg] : ws.groups) {
        auto [it, inserted] = merged.try_emplace(key);
        if (inserted) {
          it->second = std::move(pg);
          continue;
        }
        PartialGroup& dst = it->second;
        if (pg.first_rank < dst.first_rank ||
            (pg.first_rank == dst.first_rank && pg.first_sub < dst.first_sub)) {
          // This worker saw the group earlier in scan order; its first
          // tuple is the serial path's group representative.
          dst.first_rank = pg.first_rank;
          dst.first_sub = pg.first_sub;
          dst.first_row = std::move(pg.first_row);
        }
        for (std::size_t a = 0; a < dst.aggs.size(); ++a) {
          PartialAggState& d = dst.aggs[a];
          PartialAggState& s = pg.aggs[a];
          d.count += s.count;
          d.isum += s.isum;
          d.rsum += s.rsum;
          d.saw_real = d.saw_real || s.saw_real;
          if (!s.min.isNull() && (d.min.isNull() || s.min.compare(d.min) < 0)) {
            d.min = s.min;
          }
          if (!s.max.isNull() && (d.max.isNull() || s.max.compare(d.max) > 0)) {
            d.max = s.max;
          }
          d.distinct.merge(s.distinct);
        }
      }
      ws.groups.clear();
    }
    if (analyze_) partial_stats_.rows = merged.size();
    // Finalize: the same tail as the serial AggregateOp::build(), over
    // groups in encoded-key order.
    for (auto& [key, pg] : merged) {
      Group g;
      g.first_row = std::move(pg.first_row);
      g.aggs.resize(plan_->aggregates.size());
      for (std::size_t a = 0; a < g.aggs.size(); ++a) {
        const Expr* agg = plan_->aggregates[a];
        PartialAggState& p = pg.aggs[a];
        AggState& s = g.aggs[a];
        if (agg->lhs && agg->agg_distinct) {
          for (auto& [ek, v] : p.distinct) s.add(v, false);
        } else {
          s.count = p.count;
          s.isum = p.isum;
          s.rsum = p.rsum;
          s.saw_real = p.saw_real;
          s.min = p.min;
          s.max = p.max;
        }
      }
      emitGroup(*plan_, g, out_);
    }
    if (merged.empty() && sel.group_by.empty()) emitEmptyInput(*plan_, out_);
  }

  void mergeRows() {
    std::size_t total = 0;
    for (const WorkerState& ws : states_) total += ws.rows.size();
    std::vector<Entry> all;
    all.reserve(total);
    for (WorkerState& ws : states_) {
      for (Entry& e : ws.rows) all.push_back(std::move(e));
      ws.rows.clear();
      ws.rows.shrink_to_fit();
      ws.seen.clear();
    }
    // Emit in global scan order so the serial operators above see exactly
    // the serial stream (stable ORDER BY ties, DISTINCT first-occurrence).
    std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
      return a.rank != b.rank ? a.rank < b.rank : a.sub < b.sub;
    });
    if (analyze_) {
      partial_stats_.rows = 0;
      for (const WorkerState& ws : states_) partial_stats_.rows += ws.emitted;
    }
    out_.reserve(all.size());
    for (Entry& e : all) {
      out_.emplace_back(std::move(e.row), std::move(e.keys));
    }
  }

  std::string perWorkerLine() const {
    std::string line = "PER-WORKER rows=[";
    for (std::size_t w = 0; w < states_.size(); ++w) {
      if (w > 0) line += " ";
      line += std::to_string(states_[w].emitted);
    }
    line += "] time=[";
    char buf[32];
    for (std::size_t w = 0; w < states_.size(); ++w) {
      if (w > 0) line += " ";
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(states_[w].busy_ns) / 1e6);
      line += buf;
    }
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(gather_wait_ns_) / 1e6);
    line += std::string("]ms wait=") + buf + "ms";
    return line;
  }

  Database* db_;
  SelectPlan* plan_;
  int degree_;
  std::size_t batch_rows_;
  std::optional<std::size_t> top_k_;  // row mode only
  bool grouped_;
  bool distinct_;
  Tuple src_tuple_;  // never bound; level-0 probe bounds are constants
  std::unique_ptr<NestedLoop> template_loop_;  // described, never opened
  std::vector<WorkerState> states_;
  std::mutex stats_mu_;
  OpStats partial_stats_;  // the PARTIAL AGGREGATE / PROJECT stage line
  std::uint64_t gather_wait_ns_ = 0;
  bool analyze_ = false;
  bool ran_ = false;
  bool built_ = false;
  KeyedRows out_;
  std::size_t pos_ = 0;
};

/// Whether `plan` runs its table-0 subtree morsel-parallel at `opts`.
/// Streaming-friendly shapes stay serial: a plain projection (no blocking
/// operator above) streams rows with zero materialization, and
/// LIMIT-without-ORDER-BY stops the scan early — parallelism would only add
/// wasted work. Tiny tables (under min_pages heap pages) stay serial too.
bool parallelEligible(Database& db, const SelectPlan& plan,
                      const ExecOptions& opts) {
  if (opts.degree < 2 || plan.from.empty()) return false;
  const SelectStmt& sel = *plan.sel;
  if (sel.from[0].left_join) return false;  // defensive; parser never does this
  const bool ordered = !sel.order_by.empty();
  if (!plan.grouped && !ordered && !sel.distinct) return false;
  if (!plan.grouped && !ordered && (sel.limit || sel.offset)) return false;
  return HeapFile::chainHasAtLeast(db.pager(), plan.from[0].def->first_page,
                                   opts.min_pages);
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch pull plumbing
// ---------------------------------------------------------------------------

bool RowOp::nextBatch(RowBatch& batch) {
  if (!stats_.timed) {
    const bool ok = doNextBatch(batch);
    if (ok) {
      execCounters().batches.inc();
      execCounters().batch_fill.observe(static_cast<double>(batch.active()));
    }
    return ok;
  }
  const detail::OpTick tick(stats_);
  const bool ok = doNextBatch(batch);
  if (ok) {
    stats_.rows += batch.active();
    ++stats_.batches;
    stats_.batch_rows += batch.active();
    execCounters().batches.inc();
    execCounters().batch_fill.observe(static_cast<double>(batch.active()));
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Pipeline assembly and the materializing wrappers
// ---------------------------------------------------------------------------

Pipeline buildPipeline(Database& db, SelectPlan& plan, const ExecOptions& opts) {
  Pipeline p;
  for (const SelectPlan::OutputCol& out : plan.outputs) p.columns.push_back(out.name);
  if (plan.from.empty()) {
    // SELECT without FROM: exactly one row; DISTINCT/ORDER BY/LIMIT do not
    // apply (mirrors the historical early return).
    p.root = std::make_unique<ConstRowOp>(plan);
    return p;
  }
  SelectStmt& sel = *plan.sel;
  const std::size_t offset =
      sel.offset ? static_cast<std::size_t>(*sel.offset) : 0;
  std::optional<std::size_t> top_k;
  if (!sel.order_by.empty() && sel.limit) {
    top_k = offset + static_cast<std::size_t>(*sel.limit);
  }
  std::unique_ptr<RowOp> op;
  if (parallelEligible(db, plan, opts)) {
    // Workers pre-apply top-K only in row mode; a grouped plan's bound
    // applies to groups, not inputs, so the serial Sort above handles it.
    op = std::make_unique<GatherOp>(db, plan, opts,
                                    plan.grouped ? std::nullopt : top_k);
  } else {
    auto loop = std::make_unique<NestedLoop>(db, plan, opts.batch_rows);
    if (plan.grouped) {
      op = std::make_unique<AggregateOp>(std::move(loop), plan, opts.batch_rows);
    } else {
      op = std::make_unique<ProjectOp>(std::move(loop), plan, opts.batch_rows);
    }
  }
  if (sel.distinct) op = std::make_unique<DistinctOp>(std::move(op));
  if (!sel.order_by.empty()) {
    op = std::make_unique<SortOp>(std::move(op), plan, top_k, opts.batch_rows);
  }
  if (sel.limit || sel.offset) {
    std::optional<std::size_t> limit;
    if (sel.limit) limit = static_cast<std::size_t>(*sel.limit);
    op = std::make_unique<LimitOp>(std::move(op), limit, offset);
  }
  p.root = std::move(op);
  return p;
}

std::vector<std::string> explainPlan(Database& db, const Statement& stmt, SelectPlan& plan,
                                     const ExecOptions& opts) {
  std::vector<std::string> lines;
  if (stmt.kind != Statement::Kind::Select) {
    NestedLoop(db, plan, 1).describe(lines, 0);
    return lines;
  }
  if (stmt.explain_analyze) materializePlanSubqueries(db, plan);
  Pipeline p = buildPipeline(db, plan, opts);
  if (stmt.explain_analyze) {
    p.root->setAnalyze(true);
    const Database::CursorPin pin = db.pinCursor();
    p.root->open();
    RowBatch batch;
    batch.capacity = opts.batch_rows;
    while (p.root->nextBatch(batch)) {
    }
    p.root->close();
  }
  p.root->describe(lines, 0);
  return lines;
}

std::vector<std::pair<RecordId, Row>> collectTargetRows(Database& db, SelectPlan& plan) {
  materializePlanSubqueries(db, plan);
  NestedLoop loop(db, plan, 1);
  SlotIter& chain = loop.level0();
  std::vector<std::pair<RecordId, Row>> rows;
  RecordId rid;
  Row row;
  chain.open();
  while (chain.next(rid, row)) rows.emplace_back(rid, std::move(row));
  chain.close();
  return rows;
}

void drainBatches(const std::function<bool(RowBatch&)>& fetch, std::vector<Row>& rows) {
  RowBatch batch;
  Row row;
  while (fetch(batch)) {
    for (const std::uint32_t i : batch.sel) {
      batch.takeRow(i, row);
      rows.push_back(std::move(row));
      row = {};
    }
  }
}

ResultSet execSelectPlan(Database& db, SelectPlan& plan, const ExecOptions& opts) {
  materializePlanSubqueries(db, plan);
  Pipeline p = buildPipeline(db, plan, opts);
  ResultSet rs;
  rs.columns = std::move(p.columns);
  p.root->open();
  drainBatches(
      [&](RowBatch& batch) {
        batch.capacity = opts.batch_rows;
        return p.root->nextBatch(batch);
      },
      rs.rows);
  p.root->close();
  return rs;
}

}  // namespace perftrack::minidb::sql
