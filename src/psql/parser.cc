#include "psql/parser.h"

#include <cmath>

#include "psql/lexer.h"

namespace pictdb::psql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<std::unique_ptr<SelectStmt>> ParseSelect() {
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                            ParseSelectBody());
    if (!AtEnd()) {
      return Err("trailing input after query");
    }
    return stmt;
  }

  StatusOr<Statement> ParseAnyStatement() {
    Statement out;
    if (IdentEquals(Peek(), "insert")) {
      PICTDB_ASSIGN_OR_RETURN(out.insert, ParseInsertBody());
    } else if (IdentEquals(Peek(), "update")) {
      PICTDB_ASSIGN_OR_RETURN(out.update, ParseUpdateBody());
    } else if (IdentEquals(Peek(), "delete")) {
      PICTDB_ASSIGN_OR_RETURN(out.del, ParseDeleteBody());
    } else {
      PICTDB_ASSIGN_OR_RETURN(out.select, ParseSelectBody());
    }
    if (!AtEnd()) {
      return Err("trailing input after statement");
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Status Err(const std::string& message) const {
    return Status::InvalidArgument(message + " (at offset " +
                                   std::to_string(Peek().position) + ")");
  }

  bool EatKeyword(std::string_view kw) {
    if (IdentEquals(Peek(), kw)) {
      Advance();
      return true;
    }
    return false;
  }

  StatusOr<Token> Expect(TokenKind kind, const std::string& what) {
    if (Peek().kind != kind) return Err("expected " + what);
    return Advance();
  }

  StatusOr<std::unique_ptr<SelectStmt>> ParseSelectBody() {
    if (!EatKeyword("select")) return Err("expected 'select'");
    auto stmt = std::make_unique<SelectStmt>();

    // Targets.
    if (Peek().kind == TokenKind::kStar) {
      Advance();
      stmt->star = true;
    } else {
      do {
        TargetItem item;
        PICTDB_ASSIGN_OR_RETURN(item.expr, ParsePrimary());
        item.display = item.expr->ToString();
        stmt->targets.push_back(std::move(item));
      } while (Eat(TokenKind::kComma));
    }

    // From.
    if (!EatKeyword("from")) return Err("expected 'from'");
    do {
      PICTDB_ASSIGN_OR_RETURN(const Token name,
                              Expect(TokenKind::kIdentifier,
                                     "relation name"));
      stmt->from.push_back(name.text);
    } while (Eat(TokenKind::kComma));

    // Optional on.
    if (EatKeyword("on")) {
      do {
        PICTDB_ASSIGN_OR_RETURN(const Token name,
                                Expect(TokenKind::kIdentifier,
                                       "picture name"));
        stmt->on.push_back(name.text);
      } while (Eat(TokenKind::kComma));
    }

    // Optional at.
    if (EatKeyword("at")) {
      AtClause at;
      PICTDB_ASSIGN_OR_RETURN(at.lhs, ParseLocExpr());
      PICTDB_ASSIGN_OR_RETURN(at.op, ParseSpatialOp());
      PICTDB_ASSIGN_OR_RETURN(at.rhs, ParseLocExpr());
      stmt->at = std::move(at);
    }

    // Optional where.
    if (EatKeyword("where")) {
      PICTDB_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }

    // Optional order by / limit.
    if (IdentEquals(Peek(), "order")) {
      Advance();
      if (!EatKeyword("by")) return Err("expected 'by' after 'order'");
      do {
        OrderItem item;
        PICTDB_ASSIGN_OR_RETURN(item.expr, ParsePrimary());
        if (EatKeyword("desc")) {
          item.descending = true;
        } else {
          EatKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Eat(TokenKind::kComma));
    }
    if (EatKeyword("limit")) {
      PICTDB_ASSIGN_OR_RETURN(const Token n,
                              Expect(TokenKind::kNumber, "limit count"));
      if (n.number < 0 || n.number != std::floor(n.number)) {
        return Err("limit must be a non-negative integer");
      }
      stmt->limit = static_cast<uint64_t>(n.number);
    }
    return stmt;
  }

  bool Eat(TokenKind kind) {
    if (Peek().kind == kind) {
      Advance();
      return true;
    }
    return false;
  }

  /// A literal for insert values: number, string, `null`, or a window
  /// literal (which becomes a box geometry).
  StatusOr<std::unique_ptr<Expr>> ParseInsertLiteral() {
    if (IdentEquals(Peek(), "null")) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      return node;
    }
    if (Peek().kind == TokenKind::kLBrace) {
      PICTDB_ASSIGN_OR_RETURN(const LocExpr loc, ParseLocExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      node->literal = rel::Value(geom::Geometry(loc.window));
      return node;
    }
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> node, ParsePrimary());
    if (node->kind != Expr::Kind::kLiteral) {
      return Err("insert values must be literals");
    }
    return node;
  }

  StatusOr<std::unique_ptr<InsertStmt>> ParseInsertBody() {
    if (!EatKeyword("insert")) return Err("expected 'insert'");
    if (!EatKeyword("into")) return Err("expected 'into'");
    auto stmt = std::make_unique<InsertStmt>();
    PICTDB_ASSIGN_OR_RETURN(const Token name,
                            Expect(TokenKind::kIdentifier, "relation name"));
    stmt->relation = name.text;
    if (!EatKeyword("values")) return Err("expected 'values'");
    PICTDB_ASSIGN_OR_RETURN(auto lp, Expect(TokenKind::kLParen, "'('"));
    (void)lp;
    do {
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> value,
                              ParseInsertLiteral());
      stmt->values.push_back(std::move(value));
    } while (Eat(TokenKind::kComma));
    PICTDB_ASSIGN_OR_RETURN(auto rp, Expect(TokenKind::kRParen, "')'"));
    (void)rp;
    return stmt;
  }

  StatusOr<std::unique_ptr<UpdateStmt>> ParseUpdateBody() {
    if (!EatKeyword("update")) return Err("expected 'update'");
    auto stmt = std::make_unique<UpdateStmt>();
    PICTDB_ASSIGN_OR_RETURN(const Token name,
                            Expect(TokenKind::kIdentifier, "relation name"));
    stmt->relation = name.text;
    if (!EatKeyword("set")) return Err("expected 'set'");
    do {
      PICTDB_ASSIGN_OR_RETURN(const Token column,
                              Expect(TokenKind::kIdentifier, "column name"));
      PICTDB_ASSIGN_OR_RETURN(auto eq, Expect(TokenKind::kEq, "'='"));
      (void)eq;
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> value,
                              ParseInsertLiteral());
      stmt->assignments.emplace_back(column.text, std::move(value));
    } while (Eat(TokenKind::kComma));
    if (EatKeyword("on")) {
      do {
        PICTDB_ASSIGN_OR_RETURN(const Token pic,
                                Expect(TokenKind::kIdentifier,
                                       "picture name"));
        stmt->on.push_back(pic.text);
      } while (Eat(TokenKind::kComma));
    }
    if (EatKeyword("at")) {
      AtClause at;
      PICTDB_ASSIGN_OR_RETURN(at.lhs, ParseLocExpr());
      PICTDB_ASSIGN_OR_RETURN(at.op, ParseSpatialOp());
      PICTDB_ASSIGN_OR_RETURN(at.rhs, ParseLocExpr());
      stmt->at = std::move(at);
    }
    if (EatKeyword("where")) {
      PICTDB_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }
    return stmt;
  }

  StatusOr<std::unique_ptr<DeleteStmt>> ParseDeleteBody() {
    if (!EatKeyword("delete")) return Err("expected 'delete'");
    if (!EatKeyword("from")) return Err("expected 'from'");
    auto stmt = std::make_unique<DeleteStmt>();
    PICTDB_ASSIGN_OR_RETURN(const Token name,
                            Expect(TokenKind::kIdentifier, "relation name"));
    stmt->relation = name.text;
    if (EatKeyword("on")) {
      do {
        PICTDB_ASSIGN_OR_RETURN(const Token pic,
                                Expect(TokenKind::kIdentifier,
                                       "picture name"));
        stmt->on.push_back(pic.text);
      } while (Eat(TokenKind::kComma));
    }
    if (EatKeyword("at")) {
      AtClause at;
      PICTDB_ASSIGN_OR_RETURN(at.lhs, ParseLocExpr());
      PICTDB_ASSIGN_OR_RETURN(at.op, ParseSpatialOp());
      PICTDB_ASSIGN_OR_RETURN(at.rhs, ParseLocExpr());
      stmt->at = std::move(at);
    }
    if (EatKeyword("where")) {
      PICTDB_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }
    return stmt;
  }

  StatusOr<SpatialOp> ParseSpatialOp() {
    const Token& t = Peek();
    if (IdentEquals(t, "covered-by") || IdentEquals(t, "covered_by")) {
      Advance();
      return SpatialOp::kCoveredBy;
    }
    if (IdentEquals(t, "covering")) {
      Advance();
      return SpatialOp::kCovering;
    }
    if (IdentEquals(t, "overlapping") || IdentEquals(t, "intersecting")) {
      Advance();
      return SpatialOp::kOverlapping;
    }
    if (IdentEquals(t, "disjoined") || IdentEquals(t, "disjoint")) {
      Advance();
      return SpatialOp::kDisjoined;
    }
    return Err("expected spatial operator "
               "(covered-by/covering/overlapping/disjoined)");
  }

  StatusOr<LocExpr> ParseLocExpr() {
    LocExpr loc;
    // Window literal: { cx +- dx , cy +- dy }.
    if (Peek().kind == TokenKind::kLBrace) {
      Advance();
      PICTDB_ASSIGN_OR_RETURN(const Token cx,
                              Expect(TokenKind::kNumber, "number"));
      PICTDB_ASSIGN_OR_RETURN(auto unused1,
                              Expect(TokenKind::kPlusMinus, "'+-'"));
      (void)unused1;
      PICTDB_ASSIGN_OR_RETURN(const Token dx,
                              Expect(TokenKind::kNumber, "number"));
      PICTDB_ASSIGN_OR_RETURN(auto unused2, Expect(TokenKind::kComma, "','"));
      (void)unused2;
      PICTDB_ASSIGN_OR_RETURN(const Token cy,
                              Expect(TokenKind::kNumber, "number"));
      PICTDB_ASSIGN_OR_RETURN(auto unused3,
                              Expect(TokenKind::kPlusMinus, "'+-'"));
      (void)unused3;
      PICTDB_ASSIGN_OR_RETURN(const Token dy,
                              Expect(TokenKind::kNumber, "number"));
      PICTDB_ASSIGN_OR_RETURN(auto unused4, Expect(TokenKind::kRBrace, "'}'"));
      (void)unused4;
      if (dx.number < 0 || dy.number < 0) {
        return Err("window half-extents must be non-negative");
      }
      loc.kind = LocExpr::Kind::kWindow;
      loc.window = geom::Rect::FromCenterHalfExtent(cx.number, dx.number,
                                                    cy.number, dy.number);
      return loc;
    }
    // Nested mapping, optionally parenthesized.
    if (IdentEquals(Peek(), "select") ||
        (Peek().kind == TokenKind::kLParen && IdentEquals(Peek(1), "select"))) {
      const bool parenthesized = Eat(TokenKind::kLParen);
      PICTDB_ASSIGN_OR_RETURN(loc.subquery, ParseSelectBody());
      if (parenthesized) {
        PICTDB_ASSIGN_OR_RETURN(auto unused, Expect(TokenKind::kRParen, "')'"));
        (void)unused;
      }
      loc.kind = LocExpr::Kind::kSubquery;
      return loc;
    }
    // Column reference: loc / cities.loc / "cities loc" (the paper writes
    // the qualifier with a space).
    PICTDB_ASSIGN_OR_RETURN(const Token first,
                            Expect(TokenKind::kIdentifier,
                                   "location expression"));
    if (Eat(TokenKind::kDot)) {
      PICTDB_ASSIGN_OR_RETURN(const Token col,
                              Expect(TokenKind::kIdentifier, "column name"));
      loc.kind = LocExpr::Kind::kColumn;
      loc.rel = first.text;
      loc.column = col.text;
      return loc;
    }
    // "cities loc": two identifiers where the second is not a spatial
    // operator or clause keyword.
    if (Peek().kind == TokenKind::kIdentifier && !IsClauseBoundary(Peek()) &&
        !IsSpatialOpName(Peek())) {
      const Token col = Advance();
      loc.kind = LocExpr::Kind::kColumn;
      loc.rel = first.text;
      loc.column = col.text;
      return loc;
    }
    loc.kind = LocExpr::Kind::kColumn;
    loc.column = first.text;
    return loc;
  }

  static bool IsSpatialOpName(const Token& t) {
    return IdentEquals(t, "covered-by") || IdentEquals(t, "covered_by") ||
           IdentEquals(t, "covering") || IdentEquals(t, "overlapping") ||
           IdentEquals(t, "intersecting") || IdentEquals(t, "disjoined") ||
           IdentEquals(t, "disjoint");
  }

  static bool IsClauseBoundary(const Token& t) {
    return IdentEquals(t, "where") || IdentEquals(t, "from") ||
           IdentEquals(t, "on") || IdentEquals(t, "at") ||
           IdentEquals(t, "select") || IdentEquals(t, "and") ||
           IdentEquals(t, "or") || IdentEquals(t, "order") ||
           IdentEquals(t, "limit");
  }

  // --- where-expression grammar -------------------------------------------

  StatusOr<std::unique_ptr<Expr>> ParseOr() {
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (EatKeyword("or")) {
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kOr;
      node->args.push_back(std::move(lhs));
      node->args.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParseAnd() {
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (EatKeyword("and")) {
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAnd;
      node->args.push_back(std::move(lhs));
      node->args.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParseNot() {
    if (EatKeyword("not")) {
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseNot());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->args.push_back(std::move(inner));
      return node;
    }
    return ParseComparison();
  }

  StatusOr<std::unique_ptr<Expr>> ParseComparison() {
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimary());
    Expr::CmpOp op;
    switch (Peek().kind) {
      case TokenKind::kLt:
        op = Expr::CmpOp::kLt;
        break;
      case TokenKind::kLe:
        op = Expr::CmpOp::kLe;
        break;
      case TokenKind::kGt:
        op = Expr::CmpOp::kGt;
        break;
      case TokenKind::kGe:
        op = Expr::CmpOp::kGe;
        break;
      case TokenKind::kEq:
        op = Expr::CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = Expr::CmpOp::kNe;
        break;
      default:
        return lhs;  // bare expression (e.g. a boolean-like value)
    }
    Advance();
    PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimary());
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    node->cmp = op;
    node->args.push_back(std::move(lhs));
    node->args.push_back(std::move(rhs));
    return node;
  }

  StatusOr<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      // Integral literals stay ints so int-column comparisons are exact.
      if (t.number == std::floor(t.number) &&
          std::fabs(t.number) < 9.0e15) {
        node->literal = rel::Value(static_cast<int64_t>(t.number));
      } else {
        node->literal = rel::Value(t.number);
      }
      return node;
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      node->literal = rel::Value(t.text);
      return node;
    }
    if (t.kind == TokenKind::kLParen) {
      Advance();
      PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseOr());
      PICTDB_ASSIGN_OR_RETURN(auto unused, Expect(TokenKind::kRParen, "')'"));
      (void)unused;
      return inner;
    }
    if (t.kind == TokenKind::kIdentifier) {
      const Token first = Advance();
      // Function call: area(loc). count(*) becomes a zero-argument call.
      if (Peek().kind == TokenKind::kLParen) {
        Advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kCall;
        node->func = first.text;
        if (Peek().kind == TokenKind::kStar) {
          Advance();
          PICTDB_ASSIGN_OR_RETURN(auto unused,
                                  Expect(TokenKind::kRParen, "')'"));
          (void)unused;
          return node;
        }
        if (Peek().kind != TokenKind::kRParen) {
          do {
            PICTDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParsePrimary());
            node->args.push_back(std::move(arg));
          } while (Eat(TokenKind::kComma));
        }
        PICTDB_ASSIGN_OR_RETURN(auto unused,
                                Expect(TokenKind::kRParen, "')'"));
        (void)unused;
        return node;
      }
      // Qualified or bare column.
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kColumnRef;
      if (Eat(TokenKind::kDot)) {
        PICTDB_ASSIGN_OR_RETURN(const Token col,
                                Expect(TokenKind::kIdentifier,
                                       "column name"));
        node->rel = first.text;
        node->column = col.text;
      } else {
        node->column = first.text;
      }
      return node;
    }
    return Err("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<std::unique_ptr<SelectStmt>> Parse(std::string_view text) {
  PICTDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

StatusOr<Statement> ParseStatement(std::string_view text) {
  PICTDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseAnyStatement();
}

std::string ToString(SpatialOp op) {
  switch (op) {
    case SpatialOp::kCoveredBy:
      return "covered-by";
    case SpatialOp::kCovering:
      return "covering";
    case SpatialOp::kOverlapping:
      return "overlapping";
    case SpatialOp::kDisjoined:
      return "disjoined";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColumnRef:
      return rel.empty() ? column : rel + "." + column;
    case Kind::kCompare: {
      const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
      return args[0]->ToString() + " " + ops[static_cast<int>(cmp)] + " " +
             args[1]->ToString();
    }
    // Built by appending: GCC 12 misreads `"literal" + std::string&&`
    // as an overlapping memcpy (-Wrestrict) in optimized builds.
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      out += args[0]->ToString();
      out += kind == Kind::kAnd ? " and " : " or ";
      out += args[1]->ToString();
      out += ")";
      return out;
    }
    case Kind::kNot: {
      std::string out = "not ";
      out += args[0]->ToString();
      return out;
    }
    case Kind::kCall: {
      std::string out = func + "(";
      if (args.empty()) out += "*";  // zero-arg calls are count(*)-style
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace pictdb::psql
