//===- ir/Parser.cpp ------------------------------------------------------===//

#include "ir/Parser.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using namespace flexvec;
using namespace flexvec::ir;
using isa::CmpKind;
using isa::ElemType;

namespace {

enum class TokKind {
  Ident,
  Number,
  Float,
  Punct, ///< Single or double character punctuation, in Text.
  End,
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;
  int64_t IntValue = 0;
  double FloatValue = 0;
  int Line = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Source) : Src(Source) { advance(); }

  const Token &peek() const { return Cur; }

  Token take() {
    Token T = Cur;
    advance();
    return T;
  }

  std::string Error;

private:
  void advance() {
    // Skip whitespace and // comments.
    while (Pos < Src.size()) {
      if (Src[Pos] == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(Src[Pos]))) {
        ++Pos;
      } else if (Src[Pos] == '/' && Pos + 1 < Src.size() &&
                 Src[Pos + 1] == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
    Cur = Token();
    Cur.Line = Line;
    if (Pos >= Src.size())
      return;

    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      Cur.Kind = TokKind::Ident;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && Pos + 1 < Src.size() &&
         std::isdigit(static_cast<unsigned char>(Src[Pos + 1])))) {
      size_t Start = Pos;
      if (C == '-')
        ++Pos;
      bool IsFloat = false;
      while (Pos < Src.size() &&
             (std::isdigit(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '.')) {
        IsFloat |= Src[Pos] == '.';
        ++Pos;
      }
      // Optional exponent ([eE][+-]?digits), so %.17g reproducer output
      // like 9.9999999999999995e-08 lexes back as one FLOAT token.
      if (Pos < Src.size() && (Src[Pos] == 'e' || Src[Pos] == 'E')) {
        size_t E = Pos + 1;
        if (E < Src.size() && (Src[E] == '+' || Src[E] == '-'))
          ++E;
        if (E < Src.size() && std::isdigit(static_cast<unsigned char>(Src[E]))) {
          Pos = E;
          while (Pos < Src.size() &&
                 std::isdigit(static_cast<unsigned char>(Src[Pos])))
            ++Pos;
          IsFloat = true;
        }
      }
      std::string Text = Src.substr(Start, Pos - Start);
      if (IsFloat) {
        Cur.Kind = TokKind::Float;
        Cur.FloatValue = std::stod(Text);
      } else {
        Cur.Kind = TokKind::Number;
        Cur.IntValue = std::stoll(Text);
      }
      Cur.Text = Text;
      return;
    }
    // Two-character punctuation first.
    static const char *Twos[] = {"==", "!=", "<=", ">=", "&&", "[]"};
    for (const char *Two : Twos) {
      if (Src.compare(Pos, 2, Two) == 0) {
        Cur.Kind = TokKind::Punct;
        Cur.Text = Two;
        Pos += 2;
        return;
      }
    }
    Cur.Kind = TokKind::Punct;
    Cur.Text = std::string(1, C);
    ++Pos;
  }

  const std::string &Src;
  size_t Pos = 0;
  int Line = 1;
  Token Cur;
};

class Parser {
  /// Bound on expression nesting, both sub-expressions on the parser's
  /// stack (parentheses, subscripts, min/max arguments) and the height of
  /// the tree built, so adversarial input ends in an error instead of
  /// exhausting the stack here or in the recursive passes downstream.
  static constexpr unsigned MaxExprDepth = 256;

public:
  explicit Parser(const std::string &Source) : Lex(Source) {}

  ParseResult run() {
    ParseResult Result;
    if (!parseHeader()) {
      Result.Error = Error;
      return Result;
    }
    std::vector<Stmt *> Body;
    if (!parseBlock(Body)) {
      Result.Error = Error;
      return Result;
    }
    if (Lex.peek().Kind != TokKind::End) {
      fail("trailing input after the loop body");
      Result.Error = Error;
      return Result;
    }
    if (F->tripCountScalar() < 0) {
      Result.Error = "no parameter is marked 'trip'";
      return Result;
    }
    F->setBody(Body);
    Result.F = std::move(F);
    return Result;
  }

private:
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = "line " + std::to_string(Lex.peek().Line) + ": " + Msg;
    return false;
  }

  bool expectPunct(const std::string &P) {
    if (Lex.peek().Kind == TokKind::Punct && Lex.peek().Text == P) {
      Lex.take();
      return true;
    }
    return fail("expected '" + P + "', found '" + Lex.peek().Text + "'");
  }

  bool expectIdent(const std::string &I) {
    if (Lex.peek().Kind == TokKind::Ident && Lex.peek().Text == I) {
      Lex.take();
      return true;
    }
    return fail("expected '" + I + "', found '" + Lex.peek().Text + "'");
  }

  bool isPunct(const std::string &P) {
    return Lex.peek().Kind == TokKind::Punct && Lex.peek().Text == P;
  }

  bool isIdent(const std::string &I) {
    return Lex.peek().Kind == TokKind::Ident && Lex.peek().Text == I;
  }

  bool parseType(ElemType &Ty) {
    static const std::map<std::string, ElemType> Types = {
        {"i32", ElemType::I32},
        {"i64", ElemType::I64},
        {"f32", ElemType::F32},
        {"f64", ElemType::F64},
    };
    if (Lex.peek().Kind != TokKind::Ident)
      return fail("expected a type");
    auto It = Types.find(Lex.peek().Text);
    if (It == Types.end())
      return fail("unknown type '" + Lex.peek().Text + "'");
    Ty = It->second;
    Lex.take();
    return true;
  }

  bool parseHeader() {
    if (!expectIdent("loop"))
      return false;
    if (Lex.peek().Kind != TokKind::Ident)
      return fail("expected a loop name");
    F = std::make_unique<LoopFunction>(Lex.take().Text);
    if (!expectPunct("("))
      return false;
    while (true) {
      ElemType Ty = ElemType::I32;
      if (!parseType(Ty))
        return false;
      if (Lex.peek().Kind != TokKind::Ident)
        return fail("expected a parameter name");
      std::string Name = Lex.take().Text;
      if (Name == "i")
        return fail("'i' is reserved for the induction variable");

      bool IsArray = false, LiveOut = false, ReadOnly = false, Trip = false;
      if (isPunct("[]")) {
        Lex.take();
        IsArray = true;
      }
      while (Lex.peek().Kind == TokKind::Ident &&
             (isIdent("liveout") || isIdent("readonly") || isIdent("trip"))) {
        std::string Attr = Lex.take().Text;
        LiveOut |= Attr == "liveout";
        ReadOnly |= Attr == "readonly";
        Trip |= Attr == "trip";
      }
      if (IsArray) {
        if (LiveOut || Trip)
          return fail("array parameters cannot be liveout/trip");
        if (F->arrays().size() == MaxArrayParams)
          return fail("more than " + std::to_string(MaxArrayParams) +
                      " array parameters");
        Arrays[Name] = F->addArray(Name, Ty, ReadOnly);
      } else {
        if (ReadOnly)
          return fail("'readonly' applies to arrays");
        if (F->scalars().size() == MaxScalarParams)
          return fail("more than " + std::to_string(MaxScalarParams) +
                      " scalar parameters");
        int Id = F->addScalar(Name, Ty, LiveOut);
        Scalars[Name] = Id;
        if (Trip)
          F->setTripCountScalar(Id);
      }
      if (isPunct(",")) {
        Lex.take();
        continue;
      }
      break;
    }
    return expectPunct(")");
  }

  bool parseBlock(std::vector<Stmt *> &Out) {
    if (!expectPunct("{"))
      return false;
    ++BlockDepth;
    while (!isPunct("}")) {
      if (Lex.peek().Kind == TokKind::End)
        return fail("unterminated block");
      Stmt *S = parseStmt();
      if (!S)
        return false;
      Out.push_back(S);
    }
    Lex.take(); // '}'
    --BlockDepth;
    return true;
  }

  Stmt *parseStmt() {
    if (isIdent("break")) {
      // Only a guarded break is an early exit; at the top of the body it
      // would make every iteration after the first dead code.
      if (BlockDepth == 1) {
        fail("'break' must be inside an 'if'");
        return nullptr;
      }
      Lex.take();
      if (!expectPunct(";"))
        return nullptr;
      return F->makeBreak();
    }
    if (isIdent("if")) {
      if (BlockDepth > MaxIfNesting) {
        fail("'if' nested deeper than " + std::to_string(MaxIfNesting));
        return nullptr;
      }
      Lex.take();
      if (!expectPunct("("))
        return nullptr;
      const Expr *Cond = parseExpr();
      if (!Cond)
        return nullptr;
      if (!Cond->isBool()) {
        fail("if condition must be a comparison");
        return nullptr;
      }
      if (!expectPunct(")"))
        return nullptr;
      // Shell first so statement ids follow source order.
      Stmt *If = F->makeIfShell(Cond);
      if (!withinScratchRegs(*If))
        return nullptr;
      std::vector<Stmt *> Then;
      if (!parseBlock(Then))
        return nullptr;
      for (Stmt *S : Then)
        F->addThen(If, S);
      if (isIdent("else")) {
        Lex.take();
        std::vector<Stmt *> Else;
        if (!parseBlock(Else))
          return nullptr;
        for (Stmt *S : Else)
          F->addElse(If, S);
      }
      return If;
    }

    if (Lex.peek().Kind != TokKind::Ident) {
      fail("expected a statement");
      return nullptr;
    }
    std::string Name = Lex.take().Text;
    if (isPunct("[")) {
      // Array store.
      auto It = Arrays.find(Name);
      if (It == Arrays.end()) {
        fail("unknown array '" + Name + "'");
        return nullptr;
      }
      Lex.take();
      const Expr *Index = parseSubscript();
      if (!Index || !expectPunct("]") || !expectPunct("="))
        return nullptr;
      const Expr *Value = parseExpr();
      if (!Value || !expectPunct(";"))
        return nullptr;
      if (F->array(It->second).ReadOnly) {
        fail("store to readonly array '" + Name + "'");
        return nullptr;
      }
      const Expr *ElemProto = F->arrayRef(It->second, F->indexRef());
      if (!coerce(ElemProto, Value))
        return nullptr;
      Stmt *Store = F->storeArray(It->second, Index, Value);
      return withinScratchRegs(*Store) ? Store : nullptr;
    }
    auto It = Scalars.find(Name);
    if (It == Scalars.end()) {
      fail("unknown scalar '" + Name + "'");
      return nullptr;
    }
    if (!expectPunct("="))
      return nullptr;
    const Expr *Value = parseExpr();
    if (!Value || !expectPunct(";"))
      return nullptr;
    // Literal on the right of a typed scalar adopts the scalar's type.
    const Expr *Target = F->scalarRef(It->second);
    if (!coerce(Target, Value))
      return nullptr;
    Stmt *Assign = F->assignScalar(It->second, Value);
    return withinScratchRegs(*Assign) ? Assign : nullptr;
  }

  /// Every code generator evaluates \p S; the scalar one has
  /// MaxScalarScratchRegs registers for it.
  bool withinScratchRegs(const Stmt &S) {
    if (scalarScratchNeed(S) <= MaxScalarScratchRegs)
      return true;
    return fail("expression needs more than " +
                std::to_string(MaxScalarScratchRegs) +
                " scalar scratch registers");
  }

  bool failTooDeep() {
    return fail("expression nested deeper than " +
                std::to_string(MaxExprDepth));
  }

  unsigned height(const Expr *E) const {
    auto It = Heights.find(E);
    return It == Heights.end() ? 1 : It->second;
  }

  /// Records the height of \p E, built over \p L and \p R; null once the
  /// tree grows past MaxExprDepth.
  const Expr *nest(const Expr *E, const Expr *L, const Expr *R) {
    unsigned H = 1 + std::max(height(L), height(R));
    if (H > MaxExprDepth) {
      failTooDeep();
      return nullptr;
    }
    Heights[E] = H;
    return E;
  }

  const Expr *parseExpr() {
    if (ExprDepth == MaxExprDepth) {
      failTooDeep();
      return nullptr;
    }
    ++ExprDepth;
    const Expr *E = parseAnd();
    --ExprDepth;
    return E;
  }

  /// Integer literals written in float context become float constants of
  /// the sibling's type (the IR requires matched operand types). False, after
  /// an error, when the operands still do not match: the code generators
  /// have no conversions, so both sides must share a register class and,
  /// for floats, a width (integers of any width share the 64-bit registers).
  bool coerce(const Expr *&L, const Expr *&R) {
    if (L->Kind == ExprKind::ConstInt && isFloatType(R->Type))
      L = F->constFloat(R->Type, static_cast<double>(L->IntValue));
    if (R->Kind == ExprKind::ConstInt && isFloatType(L->Type))
      R = F->constFloat(L->Type, static_cast<double>(R->IntValue));
    // And f32 literals next to f64 values (or vice versa) adopt the
    // non-literal side's width.
    if (L->Kind == ExprKind::ConstFloat && isFloatType(R->Type) &&
        L->Type != R->Type)
      L = F->constFloat(R->Type, L->FloatValue);
    if (R->Kind == ExprKind::ConstFloat && isFloatType(L->Type) &&
        R->Type != L->Type)
      R = F->constFloat(L->Type, R->FloatValue);
    // Integer literals next to i64 values widen.
    if (L->Kind == ExprKind::ConstInt && !isFloatType(R->Type) &&
        L->Type != R->Type)
      L = F->constInt(R->Type, L->IntValue);
    if (R->Kind == ExprKind::ConstInt && !isFloatType(L->Type) &&
        R->Type != L->Type)
      R = F->constInt(L->Type, R->IntValue);
    bool FloatL = isFloatType(L->Type), FloatR = isFloatType(R->Type);
    if (FloatL == FloatR && (!FloatL || L->Type == R->Type))
      return true;
    return fail(std::string("operands of types ") +
                isa::elemTypeName(L->Type) + " and " +
                isa::elemTypeName(R->Type) + " do not mix");
  }

  /// An array subscript: an integer, since the code generators have no
  /// float-to-integer conversion.
  const Expr *parseSubscript() {
    const Expr *Index = parseExpr();
    if (Index && isFloatType(Index->Type)) {
      fail("array subscript is not an integer");
      return nullptr;
    }
    return Index;
  }

  const Expr *parseAnd() {
    const Expr *L = parseCmp();
    if (!L)
      return nullptr;
    while (isPunct("&&")) {
      Lex.take();
      const Expr *R = parseCmp();
      if (!R)
        return nullptr;
      if (!L->isBool() || !R->isBool()) {
        fail("'&&' requires comparisons on both sides");
        return nullptr;
      }
      L = nest(F->logicalAnd(L, R), L, R);
      if (!L)
        return nullptr;
    }
    return L;
  }

  const Expr *parseCmp() {
    const Expr *L = parseAdd();
    if (!L)
      return nullptr;
    static const std::map<std::string, CmpKind> Cmps = {
        {"==", CmpKind::EQ}, {"!=", CmpKind::NE}, {"<", CmpKind::LT},
        {"<=", CmpKind::LE}, {">", CmpKind::GT},  {">=", CmpKind::GE},
    };
    if (Lex.peek().Kind == TokKind::Punct) {
      auto It = Cmps.find(Lex.peek().Text);
      if (It != Cmps.end()) {
        Lex.take();
        const Expr *R = parseAdd();
        if (!R)
          return nullptr;
        if (!coerce(L, R))
          return nullptr;
        return nest(F->compare(It->second, L, R), L, R);
      }
    }
    return L;
  }

  const Expr *parseAdd() {
    const Expr *L = parseMul();
    if (!L)
      return nullptr;
    while (Lex.peek().Kind == TokKind::Punct &&
           (Lex.peek().Text == "+" || Lex.peek().Text == "-" ||
            Lex.peek().Text == "&" || Lex.peek().Text == "|" ||
            Lex.peek().Text == "^")) {
      std::string Op = Lex.take().Text;
      const Expr *R = parseMul();
      if (!R)
        return nullptr;
      BinOp K = Op == "+"   ? BinOp::Add
                : Op == "-" ? BinOp::Sub
                : Op == "&" ? BinOp::And
                : Op == "|" ? BinOp::Or
                            : BinOp::Xor;
      if (!coerce(L, R))
        return nullptr;
      if (K != BinOp::Add && K != BinOp::Sub && isFloatType(L->Type)) {
        fail("bitwise '" + Op + "' on float operands");
        return nullptr;
      }
      L = nest(F->binary(K, L, R), L, R);
      if (!L)
        return nullptr;
    }
    return L;
  }

  const Expr *parseMul() {
    const Expr *L = parsePrimary();
    if (!L)
      return nullptr;
    while (Lex.peek().Kind == TokKind::Punct &&
           (Lex.peek().Text == "*" || Lex.peek().Text == "/")) {
      std::string Op = Lex.take().Text;
      const Expr *R = parsePrimary();
      if (!R)
        return nullptr;
      if (!coerce(L, R))
        return nullptr;
      L = nest(F->binary(Op == "*" ? BinOp::Mul : BinOp::Div, L, R), L, R);
      if (!L)
        return nullptr;
    }
    return L;
  }

  const Expr *parsePrimary() {
    const Token &T = Lex.peek();
    if (T.Kind == TokKind::Number) {
      int64_t V = Lex.take().IntValue;
      return F->constInt(ElemType::I32, V);
    }
    if (T.Kind == TokKind::Float) {
      double V = Lex.take().FloatValue;
      return F->constFloat(ElemType::F32, V);
    }
    if (T.Kind == TokKind::Punct && T.Text == "(") {
      Lex.take();
      const Expr *E = parseExpr();
      if (!E || !expectPunct(")"))
        return nullptr;
      return E;
    }
    if (T.Kind != TokKind::Ident) {
      fail("expected an expression");
      return nullptr;
    }
    // (size/char comparison sidesteps a GCC 12 -Wmaybe-uninitialized
    // false positive on the string equality path.)
    std::string Name = Lex.take().Text;
    if (Name.size() == 1 && Name[0] == 'i')
      return F->indexRef();
    if (Name == "min" || Name == "max") {
      if (!expectPunct("("))
        return nullptr;
      const Expr *A = parseExpr();
      if (!A || !expectPunct(","))
        return nullptr;
      const Expr *B = parseExpr();
      if (!B || !expectPunct(")"))
        return nullptr;
      if (!coerce(A, B))
        return nullptr;
      return nest(F->binary(Name == "min" ? BinOp::Min : BinOp::Max, A, B), A,
                  B);
    }
    if (isPunct("[")) {
      auto It = Arrays.find(Name);
      if (It == Arrays.end()) {
        fail("unknown array '" + Name + "'");
        return nullptr;
      }
      Lex.take();
      const Expr *Index = parseSubscript();
      if (!Index || !expectPunct("]"))
        return nullptr;
      return nest(F->arrayRef(It->second, Index), Index, Index);
    }
    auto It = Scalars.find(Name);
    if (It == Scalars.end()) {
      fail("unknown identifier '" + Name + "'");
      return nullptr;
    }
    return F->scalarRef(It->second);
  }

  Lexer Lex;
  std::unique_ptr<LoopFunction> F;
  std::map<std::string, int> Scalars;
  std::map<std::string, int> Arrays;
  std::string Error;
  /// Braces open around the current statement; 1 is the loop body.
  unsigned BlockDepth = 0;
  /// parseExpr() calls on the stack.
  unsigned ExprDepth = 0;
  /// Heights of the operator nodes built so far; leaves have height 1.
  std::unordered_map<const Expr *, unsigned> Heights;
};

} // namespace

ParseResult ir::parseLoop(const std::string &Source) {
  Parser P(Source);
  return P.run();
}

//===----------------------------------------------------------------------===//
// DSL unparser
//===----------------------------------------------------------------------===//

namespace {

/// Expression rendering that matches the grammar exactly: fully
/// parenthesized binaries, min/max as calls, float literals always with a
/// decimal point so they lex as FLOAT and not NUMBER.
std::string renderExpr(const LoopFunction &F, const Expr *E) {
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return std::to_string(E->IntValue);
  case ExprKind::ConstFloat: {
    // %.17g so every finite double round-trips exactly; a differential-test
    // reproducer must reproduce the failing constant bit-for-bit.
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.17g", E->FloatValue);
    std::string S = Buf;
    if (S.find_first_of(".e") == std::string::npos)
      S += ".0";
    return S;
  }
  case ExprKind::ScalarRef:
    return F.scalar(E->ScalarId).Name;
  case ExprKind::IndexRef:
    return "i";
  case ExprKind::ArrayRef:
    return F.array(E->ArrayId).Name + "[" + renderExpr(F, E->Index) + "]";
  case ExprKind::Binary:
    if (E->Op == BinOp::Min || E->Op == BinOp::Max)
      return std::string(binOpName(E->Op)) + "(" + renderExpr(F, E->Lhs) +
             ", " + renderExpr(F, E->Rhs) + ")";
    return "(" + renderExpr(F, E->Lhs) + " " + binOpName(E->Op) + " " +
           renderExpr(F, E->Rhs) + ")";
  case ExprKind::Compare:
    return "(" + renderExpr(F, E->Lhs) + " " + cmpSymbol(E->Cmp) + " " +
           renderExpr(F, E->Rhs) + ")";
  case ExprKind::LogicalAnd:
    return "(" + renderExpr(F, E->Lhs) + " && " + renderExpr(F, E->Rhs) +
           ")";
  }
  return "?";
}

void renderStmts(const LoopFunction &F, const std::vector<Stmt *> &Stmts,
                 int Depth, std::string &Out) {
  std::string Indent(static_cast<size_t>(Depth) * 2, ' ');
  for (const Stmt *S : Stmts) {
    switch (S->Kind) {
    case StmtKind::AssignScalar:
      Out += Indent + F.scalar(S->ScalarId).Name + " = " +
             renderExpr(F, S->Value) + ";\n";
      break;
    case StmtKind::StoreArray:
      Out += Indent + F.array(S->ArrayId).Name + "[" +
             renderExpr(F, S->Index) + "] = " + renderExpr(F, S->Value) +
             ";\n";
      break;
    case StmtKind::If:
      Out += Indent + "if " + renderExpr(F, S->Cond) + " {\n";
      renderStmts(F, S->Then, Depth + 1, Out);
      if (!S->Else.empty()) {
        Out += Indent + "} else {\n";
        renderStmts(F, S->Else, Depth + 1, Out);
      }
      Out += Indent + "}\n";
      break;
    case StmtKind::Break:
      Out += Indent + "break;\n";
      break;
    }
  }
}

} // namespace

std::string ir::printLoopDsl(const LoopFunction &F) {
  std::string Out = "loop " + F.name() + "(";
  bool First = true;
  for (size_t S = 0; S < F.scalars().size(); ++S) {
    if (!First)
      Out += ", ";
    First = false;
    const ScalarParam &P = F.scalar(static_cast<int>(S));
    Out += std::string(isa::elemTypeName(P.Type)) + " " + P.Name;
    if (static_cast<int>(S) == F.tripCountScalar())
      Out += " trip";
    if (P.IsLiveOut)
      Out += " liveout";
  }
  for (size_t A = 0; A < F.arrays().size(); ++A) {
    if (!First)
      Out += ", ";
    First = false;
    const ArrayParam &P = F.array(static_cast<int>(A));
    Out += std::string(isa::elemTypeName(P.Elem)) + " " + P.Name + "[]";
    if (P.ReadOnly)
      Out += " readonly";
  }
  Out += ") {\n";
  renderStmts(F, F.body(), 1, Out);
  Out += "}\n";
  return Out;
}
