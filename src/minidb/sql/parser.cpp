#include "minidb/sql/parser.h"

#include "minidb/sql/lexer.h"
#include "util/error.h"

namespace perftrack::minidb::sql {

using util::SqlError;

ExprPtr Expr::literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Literal;
  e->value = std::move(v);
  return e;
}

ExprPtr Expr::columnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Column;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Binary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view sql) : tokens_(tokenize(sql)) {}

  Statement parse() {
    Statement stmt;
    if (accept("EXPLAIN")) {
      stmt.explain = true;
      stmt.explain_analyze = accept("ANALYZE");
    }
    const Token& t = peek();
    if (t.isKeyword("SELECT")) {
      stmt.kind = Statement::Kind::Select;
      stmt.select = std::make_unique<SelectStmt>(parseSelect());
    } else if (t.isKeyword("INSERT")) {
      stmt.kind = Statement::Kind::Insert;
      stmt.insert = std::make_unique<InsertStmt>(parseInsert());
    } else if (t.isKeyword("UPDATE") || t.isKeyword("DELETE")) {
      stmt.kind = t.isKeyword("UPDATE") ? Statement::Kind::Update : Statement::Kind::Delete;
      stmt.select = std::make_unique<SelectStmt>(parseDml());
    } else if (t.isKeyword("CREATE")) {
      next();
      const bool unique = accept("UNIQUE");
      if (!unique && accept("TABLE")) {
        stmt.kind = Statement::Kind::CreateTable;
        stmt.create_table = std::make_unique<CreateTableStmt>(parseCreateTable());
      } else {
        expect("INDEX");
        stmt.kind = Statement::Kind::CreateIndex;
        stmt.create_index = std::make_unique<CreateIndexStmt>(parseCreateIndex(unique));
      }
    } else if (t.isKeyword("DROP")) {
      stmt.kind = Statement::Kind::Drop;
      stmt.drop = std::make_unique<DropStmt>(parseDrop());
    } else if (t.isKeyword("VACUUM")) {
      next();
      stmt.kind = Statement::Kind::Vacuum;
      stmt.vacuum = std::make_unique<VacuumStmt>();
    } else if (t.isKeyword("BEGIN") || t.isKeyword("COMMIT") || t.isKeyword("ROLLBACK")) {
      stmt.kind = Statement::Kind::Txn;
      auto txn = std::make_unique<TxnStmt>();
      txn->kind = t.isKeyword("BEGIN")    ? TxnStmt::Kind::Begin
                  : t.isKeyword("COMMIT") ? TxnStmt::Kind::Commit
                                          : TxnStmt::Kind::Rollback;
      next();
      stmt.txn = std::move(txn);
    } else {
      fail("expected a statement");
    }
    acceptSymbol(";");
    if (peek().type != TokenType::End) fail("trailing input after statement");
    if (stmt.explain_analyze && stmt.kind != Statement::Kind::Select) {
      fail("EXPLAIN ANALYZE supports only SELECT statements");
    }
    if (stmt.explain && stmt.kind != Statement::Kind::Select &&
        stmt.kind != Statement::Kind::Update && stmt.kind != Statement::Kind::Delete) {
      fail("EXPLAIN supports only SELECT, UPDATE and DELETE statements");
    }
    stmt.param_count = param_count_;
    return stmt;
  }

 private:
  // --- token helpers ---
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool accept(std::string_view kw) {
    if (peek().isKeyword(kw)) {
      next();
      return true;
    }
    return false;
  }
  bool acceptSymbol(std::string_view sym) {
    if (peek().isSymbol(sym)) {
      next();
      return true;
    }
    return false;
  }
  void expect(std::string_view kw) {
    if (!accept(kw)) fail("expected " + std::string(kw));
  }
  void expectSymbol(std::string_view sym) {
    if (!acceptSymbol(sym)) fail("expected '" + std::string(sym) + "'");
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw SqlError("SQL parse error at offset " + std::to_string(peek().offset) + ": " +
                   message + " (near '" + peek().text + "')");
  }

  std::string identifier(const char* what) {
    const Token& t = peek();
    // Permit non-reserved keywords (type names, agg names) as identifiers in
    // contexts where a name is required.
    if (t.type == TokenType::Identifier || t.type == TokenType::Keyword) {
      std::string name = t.text;
      next();
      return name;
    }
    fail(std::string("expected ") + what);
  }

  // --- statements ---
  SelectStmt parseSelect() {
    expect("SELECT");
    SelectStmt sel;
    sel.distinct = accept("DISTINCT");
    do {
      SelectItem item;
      if (peek().isSymbol("*")) {
        next();
        item.expr = nullptr;
      } else {
        item.expr = parseExpr();
        if (accept("AS")) {
          item.alias = identifier("output alias");
        } else if (peek().type == TokenType::Identifier) {
          item.alias = identifier("output alias");
        }
      }
      sel.items.push_back(std::move(item));
    } while (acceptSymbol(","));

    if (accept("FROM")) {
      sel.from.push_back(parseTableRef(/*first=*/true));
      while (true) {
        if (accept("JOIN")) {
          sel.from.push_back(parseTableRef(false));
        } else if (accept("INNER")) {
          expect("JOIN");
          sel.from.push_back(parseTableRef(false));
        } else if (accept("LEFT")) {
          accept("OUTER");
          expect("JOIN");
          TableRef ref = parseTableRef(false);
          ref.left_join = true;
          sel.from.push_back(std::move(ref));
        } else if (acceptSymbol(",")) {
          // Comma join: cross product constrained by WHERE.
          TableRef ref = parseTableRef(true);
          sel.from.push_back(std::move(ref));
        } else {
          break;
        }
      }
    }
    if (accept("WHERE")) sel.where = parseExpr();
    if (accept("GROUP")) {
      expect("BY");
      do {
        sel.group_by.push_back(parseExpr());
      } while (acceptSymbol(","));
    }
    if (accept("HAVING")) sel.having = parseExpr();
    if (accept("ORDER")) {
      expect("BY");
      do {
        OrderItem item;
        item.expr = parseExpr();
        if (accept("DESC")) {
          item.descending = true;
        } else {
          accept("ASC");
        }
        sel.order_by.push_back(std::move(item));
      } while (acceptSymbol(","));
    }
    if (accept("LIMIT")) {
      if (peek().type != TokenType::Integer) fail("expected LIMIT count");
      sel.limit = next().int_value;
      if (accept("OFFSET")) {
        if (peek().type != TokenType::Integer) fail("expected OFFSET count");
        sel.offset = next().int_value;
      }
    }
    return sel;
  }

  TableRef parseTableRef(bool first) {
    TableRef ref;
    ref.table = identifier("table name");
    ref.alias = ref.table;
    if (accept("AS")) {
      ref.alias = identifier("table alias");
    } else if (peek().type == TokenType::Identifier) {
      ref.alias = identifier("table alias");
    }
    if (!first) {
      expect("ON");
      ref.join_on = parseExpr();
    }
    return ref;
  }

  InsertStmt parseInsert() {
    expect("INSERT");
    expect("INTO");
    InsertStmt ins;
    ins.table = identifier("table name");
    if (acceptSymbol("(")) {
      do {
        ins.columns.push_back(identifier("column name"));
      } while (acceptSymbol(","));
      expectSymbol(")");
    }
    expect("VALUES");
    do {
      expectSymbol("(");
      std::vector<ExprPtr> row;
      do {
        row.push_back(parseExpr());
      } while (acceptSymbol(","));
      expectSymbol(")");
      ins.rows.push_back(std::move(row));
    } while (acceptSymbol(","));
    return ins;
  }

  /// UPDATE t SET c = e, ... [WHERE w] as SELECT e AS c, ... FROM t [WHERE w];
  /// DELETE FROM t [WHERE w] as SELECT * FROM t [WHERE w].
  SelectStmt parseDml() {
    const bool del = accept("DELETE");
    expect(del ? "FROM" : "UPDATE");
    SelectStmt sel;
    TableRef& ref = sel.from.emplace_back();
    ref.table = identifier("table name");
    ref.alias = ref.table;
    if (del) {
      sel.items.emplace_back();  // '*'
    } else {
      expect("SET");
      do {
        SelectItem& item = sel.items.emplace_back();
        item.alias = identifier("column name");
        expectSymbol("=");
        item.expr = parseExpr();
      } while (acceptSymbol(","));
    }
    if (accept("WHERE")) sel.where = parseExpr();
    return sel;
  }

  CreateTableStmt parseCreateTable() {
    CreateTableStmt ct;
    if (accept("IF")) {
      expect("NOT");
      expect("EXISTS");
      ct.if_not_exists = true;
    }
    ct.table = identifier("table name");
    expectSymbol("(");
    do {
      std::string name = identifier("column name");
      ColumnType type = ColumnType::Text;
      if (accept("INTEGER")) {
        type = ColumnType::Integer;
      } else if (accept("REAL")) {
        type = ColumnType::Real;
      } else if (accept("TEXT")) {
        type = ColumnType::Text;
      } else {
        fail("expected a column type (INTEGER, REAL, TEXT)");
      }
      if (accept("PRIMARY")) {
        expect("KEY");
        if (ct.primary_key >= 0) fail("multiple PRIMARY KEY columns");
        ct.primary_key = static_cast<int>(ct.columns.size());
      }
      ct.columns.emplace_back(std::move(name), type);
    } while (acceptSymbol(","));
    expectSymbol(")");
    return ct;
  }

  CreateIndexStmt parseCreateIndex(bool unique) {
    CreateIndexStmt ci;
    ci.unique = unique;
    if (accept("IF")) {
      expect("NOT");
      expect("EXISTS");
      ci.if_not_exists = true;
    }
    ci.index = identifier("index name");
    expect("ON");
    ci.table = identifier("table name");
    expectSymbol("(");
    do {
      ci.columns.push_back(identifier("column name"));
    } while (acceptSymbol(","));
    expectSymbol(")");
    return ci;
  }

  DropStmt parseDrop() {
    expect("DROP");
    DropStmt drop;
    if (accept("TABLE")) {
      drop.what = DropStmt::What::Table;
    } else {
      expect("INDEX");
      drop.what = DropStmt::What::Index;
    }
    if (accept("IF")) {
      expect("EXISTS");
      drop.if_exists = true;
    }
    drop.name = identifier("name");
    return drop;
  }

  // --- expressions (precedence climbing) ---
  // OR < AND < NOT < comparison/IS/IN/LIKE/BETWEEN < add < mul < unary < atom
  ExprPtr parseExpr() { return parseOr(); }

  ExprPtr parseOr() {
    ExprPtr lhs = parseAnd();
    while (accept("OR")) {
      lhs = Expr::binary(BinaryOp::Or, std::move(lhs), parseAnd());
    }
    return lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr lhs = parseNot();
    while (accept("AND")) {
      lhs = Expr::binary(BinaryOp::And, std::move(lhs), parseNot());
    }
    return lhs;
  }

  ExprPtr parseNot() {
    if (accept("NOT")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Not;
      e->lhs = parseNot();
      return e;
    }
    return parseComparison();
  }

  ExprPtr parseComparison() {
    ExprPtr lhs = parseAdditive();
    const Token& t = peek();
    if (t.type == TokenType::Symbol) {
      BinaryOp op;
      bool matched = true;
      if (t.text == "=" || t.text == "==") {
        op = BinaryOp::Eq;
      } else if (t.text == "<>" || t.text == "!=") {
        op = BinaryOp::Ne;
      } else if (t.text == "<") {
        op = BinaryOp::Lt;
      } else if (t.text == "<=") {
        op = BinaryOp::Le;
      } else if (t.text == ">") {
        op = BinaryOp::Gt;
      } else if (t.text == ">=") {
        op = BinaryOp::Ge;
      } else {
        matched = false;
        op = BinaryOp::Eq;
      }
      if (matched) {
        next();
        return Expr::binary(op, std::move(lhs), parseAdditive());
      }
    }
    if (accept("IS")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::IsNull;
      e->negated = accept("NOT");
      expect("NULL");
      e->lhs = std::move(lhs);
      return e;
    }
    bool negated = false;
    if (peek().isKeyword("NOT") &&
        (peek(1).isKeyword("IN") || peek(1).isKeyword("LIKE") || peek(1).isKeyword("BETWEEN"))) {
      next();
      negated = true;
    }
    if (accept("LIKE")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Like;
      e->negated = negated;
      e->lhs = std::move(lhs);
      if (peek().type != TokenType::String) fail("LIKE pattern must be a string literal");
      e->value = Value(next().text);
      return e;
    }
    if (accept("IN")) {
      auto e = std::make_unique<Expr>();
      e->negated = negated;
      e->lhs = std::move(lhs);
      expectSymbol("(");
      if (peek().isKeyword("SELECT")) {
        e->kind = Expr::Kind::InSelect;
        e->subquery = std::make_unique<SelectStmt>(parseSelect());
      } else {
        e->kind = Expr::Kind::InList;
        do {
          e->list.push_back(parseExpr());
        } while (acceptSymbol(","));
      }
      expectSymbol(")");
      return e;
    }
    if (accept("BETWEEN")) {
      // x BETWEEN a AND b  ==>  (x >= a) AND (x <= b); NOT BETWEEN negates.
      ExprPtr low = parseAdditive();
      expect("AND");
      ExprPtr high = parseAdditive();
      ExprPtr lhs_copy = cloneExpr(*lhs);
      ExprPtr both = Expr::binary(
          BinaryOp::And, Expr::binary(BinaryOp::Ge, std::move(lhs), std::move(low)),
          Expr::binary(BinaryOp::Le, std::move(lhs_copy), std::move(high)));
      if (!negated) return both;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Not;
      e->lhs = std::move(both);
      return e;
    }
    if (negated) fail("dangling NOT");
    return lhs;
  }

  ExprPtr parseAdditive() {
    ExprPtr lhs = parseMultiplicative();
    while (true) {
      if (acceptSymbol("+")) {
        lhs = Expr::binary(BinaryOp::Add, std::move(lhs), parseMultiplicative());
      } else if (acceptSymbol("-")) {
        lhs = Expr::binary(BinaryOp::Sub, std::move(lhs), parseMultiplicative());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parseMultiplicative() {
    ExprPtr lhs = parseUnary();
    while (true) {
      if (acceptSymbol("*")) {
        lhs = Expr::binary(BinaryOp::Mul, std::move(lhs), parseUnary());
      } else if (acceptSymbol("/")) {
        lhs = Expr::binary(BinaryOp::Div, std::move(lhs), parseUnary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parseUnary() {
    if (acceptSymbol("-")) {
      // Fold negation into numeric literals; otherwise 0 - x.
      ExprPtr operand = parseUnary();
      if (operand->kind == Expr::Kind::Literal && operand->value.isInt()) {
        operand->value = Value(-operand->value.asInt());
        return operand;
      }
      if (operand->kind == Expr::Kind::Literal && operand->value.isReal()) {
        operand->value = Value(-operand->value.asReal());
        return operand;
      }
      return Expr::binary(BinaryOp::Sub, Expr::literal(Value(std::int64_t{0})),
                          std::move(operand));
    }
    return parseAtom();
  }

  ExprPtr parseAtom() {
    const Token& t = peek();
    if (t.type == TokenType::Integer) {
      next();
      return Expr::literal(Value(t.int_value));
    }
    if (t.type == TokenType::Real) {
      next();
      return Expr::literal(Value(t.real_value));
    }
    if (t.type == TokenType::String) {
      next();
      return Expr::literal(Value(t.text));
    }
    if (t.isKeyword("NULL")) {
      next();
      return Expr::literal(Value::null());
    }
    if (t.isSymbol("?")) {
      next();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Param;
      e->param_index = param_count_++;
      return e;
    }
    if (t.isKeyword("COUNT") || t.isKeyword("SUM") || t.isKeyword("AVG") ||
        t.isKeyword("MIN") || t.isKeyword("MAX")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Aggregate;
      e->agg = t.isKeyword("COUNT") ? AggFunc::Count
               : t.isKeyword("SUM") ? AggFunc::Sum
               : t.isKeyword("AVG") ? AggFunc::Avg
               : t.isKeyword("MIN") ? AggFunc::Min
                                    : AggFunc::Max;
      next();
      expectSymbol("(");
      if (peek().isSymbol("*")) {
        if (e->agg != AggFunc::Count) fail("only COUNT accepts *");
        next();
      } else {
        e->agg_distinct = accept("DISTINCT");
        e->lhs = parseExpr();
      }
      expectSymbol(")");
      return e;
    }
    if (acceptSymbol("(")) {
      ExprPtr inner = parseExpr();
      expectSymbol(")");
      return inner;
    }
    if (t.type == TokenType::Identifier) {
      std::string first = t.text;
      next();
      if (acceptSymbol(".")) {
        std::string column = identifier("column name");
        return Expr::columnRef(std::move(first), std::move(column));
      }
      return Expr::columnRef("", std::move(first));
    }
    fail("expected an expression");
  }

  // Deep copy, used by BETWEEN desugaring.
  static ExprPtr cloneExpr(const Expr& src) {
    if (src.subquery) {
      // BETWEEN only clones additive expressions; a subquery here would be
      // a grammar hole, not a user mistake.
      throw SqlError("internal: cannot clone a subquery expression");
    }
    auto e = std::make_unique<Expr>();
    e->kind = src.kind;
    e->value = src.value;
    e->table = src.table;
    e->column = src.column;
    e->op = src.op;
    e->negated = src.negated;
    e->param_index = src.param_index;
    e->agg = src.agg;
    e->agg_distinct = src.agg_distinct;
    if (src.lhs) e->lhs = cloneExpr(*src.lhs);
    if (src.rhs) e->rhs = cloneExpr(*src.rhs);
    for (const ExprPtr& item : src.list) e->list.push_back(cloneExpr(*item));
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int param_count_ = 0;  // '?' placeholders seen, in left-to-right order
};

}  // namespace

Statement parseStatement(std::string_view sql) {
  return Parser(sql).parse();
}

}  // namespace perftrack::minidb::sql
