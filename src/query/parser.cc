#include "query/parser.h"

#include <cctype>
#include <vector>

namespace relcomp {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class Tok {
  kIdent,
  kNumber,
  kString,
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kColon,
  kColonDash,   // :-
  kColonEq,     // :=
  kSubsetOf,    // <=
  kEq,
  kNeq,         // !=
  kAmp,
  kPipe,
  kBang,
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  int64_t number = 0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= text_.size()) break;
      Token tok;
      tok.line = line_;
      tok.col = col_;
      char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tok.kind = Tok::kIdent;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          tok.text += text_[pos_];
          Advance();
        }
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < text_.size() &&
                  std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        tok.kind = Tok::kNumber;
        if (c == '-') {
          tok.text += c;
          Advance();
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          tok.text += text_[pos_];
          Advance();
        }
        tok.number = std::stoll(tok.text);
      } else if (c == '"') {
        tok.kind = Tok::kString;
        Advance();
        while (pos_ < text_.size() && text_[pos_] != '"') {
          tok.text += text_[pos_];
          Advance();
        }
        if (pos_ >= text_.size()) {
          return Err("unterminated string literal");
        }
        Advance();  // closing quote
      } else {
        switch (c) {
          case '(': tok.kind = Tok::kLParen; Advance(); break;
          case ')': tok.kind = Tok::kRParen; Advance(); break;
          case '{': tok.kind = Tok::kLBrace; Advance(); break;
          case '}': tok.kind = Tok::kRBrace; Advance(); break;
          case '[': tok.kind = Tok::kLBracket; Advance(); break;
          case ']': tok.kind = Tok::kRBracket; Advance(); break;
          case ',': tok.kind = Tok::kComma; Advance(); break;
          case '.': tok.kind = Tok::kDot; Advance(); break;
          case '&': tok.kind = Tok::kAmp; Advance(); break;
          case '|': tok.kind = Tok::kPipe; Advance(); break;
          case '=': tok.kind = Tok::kEq; Advance(); break;
          case ':':
            Advance();
            if (Peek() == '-') {
              tok.kind = Tok::kColonDash;
              Advance();
            } else if (Peek() == '=') {
              tok.kind = Tok::kColonEq;
              Advance();
            } else {
              tok.kind = Tok::kColon;
            }
            break;
          case '<':
            Advance();
            if (Peek() != '=') return Err("expected '<='");
            tok.kind = Tok::kSubsetOf;
            Advance();
            break;
          case '!':
            Advance();
            if (Peek() == '=') {
              tok.kind = Tok::kNeq;
              Advance();
            } else {
              tok.kind = Tok::kBang;
            }
            break;
          default:
            return Err(std::string("unexpected character '") + c + "'");
        }
      }
      out.push_back(std::move(tok));
    }
    Token end;
    end.kind = Tok::kEnd;
    end.line = line_;
    end.col = col_;
    out.push_back(end);
    return out;
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void Advance() {
    if (pos_ < text_.size() && text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at line " + std::to_string(line_) +
                              ":" + std::to_string(col_));
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedProgram> Run() {
    while (Cur().kind != Tok::kEnd) {
      if (Cur().kind != Tok::kIdent) return Err("expected a declaration");
      const std::string& kw = Cur().text;
      Status st;
      if (kw == "schema") {
        st = ParseSchema(&program_.schema);
      } else if (kw == "master") {
        st = ParseSchema(&program_.master_schema);
      } else if (kw == "instance") {
        st = ParseInstance(program_.schema, &program_.instances);
      } else if (kw == "minstance") {
        st = ParseInstance(program_.master_schema, &program_.minstances);
      } else if (kw == "query") {
        st = ParseQuery();
      } else if (kw == "cc") {
        st = ParseCc();
      } else if (kw == "fo") {
        st = ParseFo();
      } else if (kw == "fp") {
        st = ParseFp();
      } else {
        return Err("unknown declaration '" + kw + "'");
      }
      if (!st.ok()) return st;
    }
    return std::move(program_);
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool Accept(Tok kind) {
    if (Cur().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(Tok kind, const char* what) {
    if (!Accept(kind)) return Err(std::string("expected ") + what);
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at line " + std::to_string(Cur().line) +
                              ":" + std::to_string(Cur().col));
  }

  // schema Rel(attr: type, ...).
  Status ParseSchema(DatabaseSchema* target) {
    Next();  // keyword
    if (Cur().kind != Tok::kIdent) return Err("expected relation name");
    std::string rel_name = Next().text;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    std::vector<Attribute> attrs;
    while (true) {
      if (Cur().kind != Tok::kIdent) return Err("expected attribute name");
      std::string attr_name = Next().text;
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kColon, "':'"));
      Domain domain = Domain::Infinite();
      if (Cur().kind == Tok::kIdent) {
        const std::string& type = Next().text;
        if (type != "int" && type != "sym") {
          return Err("expected 'int', 'sym' or a finite domain");
        }
      } else if (Accept(Tok::kLBrace)) {
        std::vector<Value> values;
        while (true) {
          Result<Value> v = ParseConstant();
          if (!v.ok()) return v.status();
          values.push_back(*v);
          if (!Accept(Tok::kComma)) break;
        }
        RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRBrace, "'}'"));
        domain = Domain::Finite(std::move(values));
      } else {
        return Err("expected attribute type");
      }
      attrs.push_back(Attribute{std::move(attr_name), std::move(domain)});
      if (!Accept(Tok::kComma)) break;
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    target->AddRelation(RelationSchema(std::move(rel_name), std::move(attrs)));
    return Status::OK();
  }

  // instance name { Rel(c1, c2). ... }
  Status ParseInstance(const DatabaseSchema& schema,
                       std::map<std::string, Instance>* target) {
    Next();  // keyword
    if (Cur().kind != Tok::kIdent) return Err("expected instance name");
    std::string name = Next().text;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLBrace, "'{'"));
    Instance instance(schema);
    while (!Accept(Tok::kRBrace)) {
      if (Cur().kind != Tok::kIdent) return Err("expected relation name");
      std::string rel = Next().text;
      if (schema.Find(rel) == nullptr) {
        return Err("unknown relation '" + rel + "' in instance");
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      Tuple t;
      if (!Accept(Tok::kRParen)) {
        while (true) {
          Result<Value> v = ParseConstant();
          if (!v.ok()) return v.status();
          t.push_back(*v);
          if (!Accept(Tok::kComma)) break;
        }
        RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
      if (t.size() != schema.Find(rel)->arity()) {
        return Err("arity mismatch for '" + rel + "'");
      }
      instance.AddTuple(rel, std::move(t));
    }
    target->emplace(std::move(name), std::move(instance));
    return Status::OK();
  }

  Result<Value> ParseConstant() {
    if (Cur().kind == Tok::kNumber) return Value::Int(Next().number);
    if (Cur().kind == Tok::kString) return Value::Sym(Next().text);
    return Err("expected a constant (number or \"string\")");
  }

  // Term inside a rule body: variable (identifier) or constant.
  Result<CTerm> ParseTerm(std::map<std::string, VarId>* vars,
                          int32_t* next_var) {
    if (Cur().kind == Tok::kIdent) {
      std::string name = Next().text;
      auto it = vars->find(name);
      if (it != vars->end()) return CTerm(it->second);
      VarId v{(*next_var)++};
      vars->emplace(std::move(name), v);
      return CTerm(v);
    }
    Result<Value> c = ParseConstant();
    if (!c.ok()) return c.status();
    return CTerm(*c);
  }

  // Body: atoms and builtins separated by commas, until a terminator.
  Status ParseBody(std::map<std::string, VarId>* vars, int32_t* next_var,
                   std::vector<RelAtom>* atoms,
                   std::vector<CondAtom>* builtins) {
    while (true) {
      if (Cur().kind == Tok::kIdent &&
          tokens_[pos_ + 1].kind == Tok::kLParen) {
        RelAtom atom;
        atom.rel = Next().text;
        Next();  // '('
        if (!Accept(Tok::kRParen)) {
          while (true) {
            Result<CTerm> t = ParseTerm(vars, next_var);
            if (!t.ok()) return t.status();
            atom.args.push_back(*t);
            if (!Accept(Tok::kComma)) break;
          }
          RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        }
        atoms->push_back(std::move(atom));
      } else {
        Result<CTerm> lhs = ParseTerm(vars, next_var);
        if (!lhs.ok()) return lhs.status();
        bool neq;
        if (Accept(Tok::kEq)) {
          neq = false;
        } else if (Accept(Tok::kNeq)) {
          neq = true;
        } else {
          return Err("expected '=' or '!=' in builtin");
        }
        Result<CTerm> rhs = ParseTerm(vars, next_var);
        if (!rhs.ok()) return rhs.status();
        builtins->push_back(CondAtom{*lhs, neq, *rhs});
      }
      if (!Accept(Tok::kComma)) break;
    }
    return Status::OK();
  }

  // query Name(terms) :- body.   (repeat name for UCQ)
  Status ParseQuery() {
    Next();  // 'query'
    if (Cur().kind != Tok::kIdent) return Err("expected query name");
    std::string name = Next().text;
    std::map<std::string, VarId> vars;
    int32_t next_var = 0;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    std::vector<CTerm> head;
    if (!Accept(Tok::kRParen)) {
      while (true) {
        Result<CTerm> t = ParseTerm(&vars, &next_var);
        if (!t.ok()) return t.status();
        head.push_back(*t);
        if (!Accept(Tok::kComma)) break;
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kColonDash, "':-'"));
    std::vector<RelAtom> atoms;
    std::vector<CondAtom> builtins;
    RELCOMP_RETURN_IF_ERROR(ParseBody(&vars, &next_var, &atoms, &builtins));
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    ConjunctiveQuery cq(std::move(head), std::move(atoms),
                        std::move(builtins));

    auto it = program_.queries.find(name);
    if (it == program_.queries.end()) {
      program_.queries.emplace(name, Query::Cq(std::move(cq)));
      return Status::OK();
    }
    // Same name again: widen to UCQ.
    Query& existing = it->second;
    UnionQuery ucq;
    if (existing.language() == QueryLanguage::kCQ) {
      ucq.AddDisjunct(existing.cq());
    } else if (existing.language() == QueryLanguage::kUCQ) {
      ucq = existing.ucq();
    } else {
      return Err("query '" + name + "' already declared as " +
                 QueryLanguageName(existing.language()));
    }
    ucq.AddDisjunct(std::move(cq));
    existing = Query::Ucq(std::move(ucq));
    return Status::OK();
  }

  // cc Name(terms) :- body <= Master[col, ...].
  Status ParseCc() {
    Next();  // 'cc'
    if (Cur().kind != Tok::kIdent) return Err("expected cc name");
    std::string name = Next().text;
    std::map<std::string, VarId> vars;
    int32_t next_var = 0;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    std::vector<CTerm> head;
    if (!Accept(Tok::kRParen)) {
      while (true) {
        Result<CTerm> t = ParseTerm(&vars, &next_var);
        if (!t.ok()) return t.status();
        head.push_back(*t);
        if (!Accept(Tok::kComma)) break;
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kColonDash, "':-'"));
    std::vector<RelAtom> atoms;
    std::vector<CondAtom> builtins;
    RELCOMP_RETURN_IF_ERROR(ParseBody(&vars, &next_var, &atoms, &builtins));
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kSubsetOf, "'<='"));
    if (Cur().kind != Tok::kIdent) return Err("expected master relation");
    std::string master = Next().text;
    const RelationSchema* master_schema = program_.master_schema.Find(master);
    if (master_schema == nullptr) {
      return Err("unknown master relation '" + master + "'");
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLBracket, "'['"));
    std::vector<int> cols;
    while (true) {
      if (Cur().kind == Tok::kNumber) {
        cols.push_back(static_cast<int>(Next().number));
      } else if (Cur().kind == Tok::kIdent) {
        int idx = master_schema->AttributeIndex(Next().text);
        if (idx < 0) return Err("unknown master attribute");
        cols.push_back(idx);
      } else {
        return Err("expected master column");
      }
      if (!Accept(Tok::kComma)) break;
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    ConjunctiveQuery cq(std::move(head), std::move(atoms),
                        std::move(builtins));
    program_.ccs.emplace_back(std::move(name), std::move(cq),
                              std::move(master), std::move(cols));
    return Status::OK();
  }

  // fo Name(vars) := formula.
  Status ParseFo() {
    Next();  // 'fo'
    if (Cur().kind != Tok::kIdent) return Err("expected query name");
    std::string name = Next().text;
    std::map<std::string, VarId> vars;
    int32_t next_var = 0;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    std::vector<VarId> head;
    if (!Accept(Tok::kRParen)) {
      while (true) {
        if (Cur().kind != Tok::kIdent) return Err("expected head variable");
        Result<CTerm> t = ParseTerm(&vars, &next_var);
        if (!t.ok()) return t.status();
        head.push_back(std::get<VarId>(*t));
        if (!Accept(Tok::kComma)) break;
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kColonEq, "':='"));
    Result<FoPtr> formula = ParseFoOr(&vars, &next_var);
    if (!formula.ok()) return formula.status();
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    program_.queries.emplace(
        std::move(name), Query::Fo(FoQuery(std::move(head), *formula)));
    return Status::OK();
  }

  Result<FoPtr> ParseFoOr(std::map<std::string, VarId>* vars,
                          int32_t* next_var) {
    Result<FoPtr> lhs = ParseFoAnd(vars, next_var);
    if (!lhs.ok()) return lhs;
    std::vector<FoPtr> parts = {*lhs};
    while (Accept(Tok::kPipe)) {
      Result<FoPtr> rhs = ParseFoAnd(vars, next_var);
      if (!rhs.ok()) return rhs;
      parts.push_back(*rhs);
    }
    if (parts.size() == 1) return parts[0];
    return FoFormula::Or(std::move(parts));
  }

  Result<FoPtr> ParseFoAnd(std::map<std::string, VarId>* vars,
                           int32_t* next_var) {
    Result<FoPtr> lhs = ParseFoUnary(vars, next_var);
    if (!lhs.ok()) return lhs;
    std::vector<FoPtr> parts = {*lhs};
    while (Accept(Tok::kAmp)) {
      Result<FoPtr> rhs = ParseFoUnary(vars, next_var);
      if (!rhs.ok()) return rhs;
      parts.push_back(*rhs);
    }
    if (parts.size() == 1) return parts[0];
    return FoFormula::And(std::move(parts));
  }

  Result<FoPtr> ParseFoUnary(std::map<std::string, VarId>* vars,
                             int32_t* next_var) {
    if (Accept(Tok::kBang)) {
      Result<FoPtr> child = ParseFoUnary(vars, next_var);
      if (!child.ok()) return child;
      return FoFormula::Not(*child);
    }
    if (Cur().kind == Tok::kIdent &&
        (Cur().text == "exists" || Cur().text == "forall")) {
      bool exists = Next().text == "exists";
      std::vector<VarId> bound;
      while (Cur().kind == Tok::kIdent &&
             tokens_[pos_ + 1].kind != Tok::kLParen) {
        Result<CTerm> t = ParseTerm(vars, next_var);
        if (!t.ok()) return t.status();
        bound.push_back(std::get<VarId>(*t));
      }
      // Final bound variable may be followed by '(' of the body; require at
      // least one variable.
      if (Cur().kind == Tok::kIdent) {
        Result<CTerm> t = ParseTerm(vars, next_var);
        if (!t.ok()) return t.status();
        bound.push_back(std::get<VarId>(*t));
      }
      if (bound.empty()) return Err("quantifier needs at least one variable");
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      Result<FoPtr> body = ParseFoOr(vars, next_var);
      if (!body.ok()) return body;
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return exists ? FoFormula::Exists(std::move(bound), *body)
                    : FoFormula::Forall(std::move(bound), *body);
    }
    if (Accept(Tok::kLParen)) {
      Result<FoPtr> inner = ParseFoOr(vars, next_var);
      if (!inner.ok()) return inner;
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return inner;
    }
    // Atom or comparison.
    if (Cur().kind == Tok::kIdent && tokens_[pos_ + 1].kind == Tok::kLParen) {
      RelAtom atom;
      atom.rel = Next().text;
      Next();  // '('
      if (!Accept(Tok::kRParen)) {
        while (true) {
          Result<CTerm> t = ParseTerm(vars, next_var);
          if (!t.ok()) return t.status();
          atom.args.push_back(*t);
          if (!Accept(Tok::kComma)) break;
        }
        RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      }
      return FoFormula::Atom(std::move(atom));
    }
    Result<CTerm> lhs = ParseTerm(vars, next_var);
    if (!lhs.ok()) return lhs.status();
    bool neq;
    if (Accept(Tok::kEq)) {
      neq = false;
    } else if (Accept(Tok::kNeq)) {
      neq = true;
    } else {
      return Err("expected '=' or '!=' in FO comparison");
    }
    Result<CTerm> rhs = ParseTerm(vars, next_var);
    if (!rhs.ok()) return rhs.status();
    return neq ? FoFormula::Neq(*lhs, *rhs) : FoFormula::Eq(*lhs, *rhs);
  }

  // fp Name { rule. rule. output Idb. }
  Status ParseFp() {
    Next();  // 'fp'
    if (Cur().kind != Tok::kIdent) return Err("expected program name");
    std::string name = Next().text;
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLBrace, "'{'"));
    FpProgram program;
    std::map<std::string, VarId> vars;  // shared namespace; rules rename below
    while (true) {
      if (Cur().kind == Tok::kIdent && Cur().text == "output") {
        Next();
        if (Cur().kind != Tok::kIdent) return Err("expected output predicate");
        program.set_output(Next().text);
        RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
        break;
      }
      // A rule; fresh variable scope per rule.
      std::map<std::string, VarId> rule_vars;
      int32_t next_var = 0;
      if (Cur().kind != Tok::kIdent) return Err("expected rule head");
      RelAtom head;
      head.rel = Next().text;
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      if (!Accept(Tok::kRParen)) {
        while (true) {
          Result<CTerm> t = ParseTerm(&rule_vars, &next_var);
          if (!t.ok()) return t.status();
          head.args.push_back(*t);
          if (!Accept(Tok::kComma)) break;
        }
        RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      }
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kColonDash, "':-'"));
      std::vector<RelAtom> body;
      std::vector<CondAtom> builtins;
      RELCOMP_RETURN_IF_ERROR(
          ParseBody(&rule_vars, &next_var, &body, &builtins));
      RELCOMP_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
      program.AddRule(FpRule{std::move(head), std::move(body),
                             std::move(builtins)});
    }
    RELCOMP_RETURN_IF_ERROR(Expect(Tok::kRBrace, "'}'"));
    program_.queries.emplace(std::move(name), Query::Fp(std::move(program)));
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParsedProgram program_;
};

}  // namespace

Result<ParsedProgram> ParseProgram(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Run();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Run();
}

}  // namespace relcomp
