//===- ir/IR.cpp ----------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace flexvec;
using namespace flexvec::ir;

const char *ir::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  case BinOp::Xor:
    return "^";
  case BinOp::Shl:
    return "<<";
  case BinOp::Shr:
    return ">>";
  case BinOp::Min:
    return "min";
  case BinOp::Max:
    return "max";
  }
  unreachable("unknown binop");
}

const char *ir::cmpSymbol(CmpKind K) {
  switch (K) {
  case CmpKind::EQ:
    return "==";
  case CmpKind::NE:
    return "!=";
  case CmpKind::LT:
    return "<";
  case CmpKind::LE:
    return "<=";
  case CmpKind::GT:
    return ">";
  case CmpKind::GE:
    return ">=";
  }
  unreachable("unknown cmp kind");
}

namespace {

/// Peak scratch registers held while evaluating \p E; \p Held is set when
/// the result itself occupies one.
unsigned scratchNeed(const Expr *E, bool &Held) {
  Held = E->Kind != ExprKind::ScalarRef && E->Kind != ExprKind::IndexRef;
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstFloat:
    return 1;
  case ExprKind::ScalarRef:
  case ExprKind::IndexRef:
    return 0;
  case ExprKind::ArrayRef: {
    bool IndexHeld;
    return std::max(scratchNeed(E->Index, IndexHeld), 1u);
  }
  case ExprKind::Binary:
  case ExprKind::Compare:
  case ExprKind::LogicalAnd: {
    bool LHeld, RHeld;
    unsigned L = scratchNeed(E->Lhs, LHeld);
    unsigned R = scratchNeed(E->Rhs, RHeld) + (LHeld ? 1 : 0);
    return std::max({L, R, 1u});
  }
  }
  unreachable("unknown expr kind");
}

template <typename Node> bool readsScalar(const Node &N, int ScalarId) {
  bool Reads = false;
  forEachExpr(N, [&](const Expr *E) {
    Reads |= E->Kind == ExprKind::ScalarRef && E->ScalarId == ScalarId;
  });
  return Reads;
}

} // namespace

bool ir::exprReadsScalar(const Expr *E, int ScalarId) {
  return readsScalar(E, ScalarId);
}

bool ir::stmtReadsScalar(const Stmt *S, int ScalarId) {
  return readsScalar(*S, ScalarId);
}

void ir::collectAssignedScalars(const std::vector<Stmt *> &Stmts,
                                std::vector<bool> &Assigned) {
  forEachStmt(Stmts, [&](const Stmt *S) {
    if (S->Kind == StmtKind::AssignScalar)
      Assigned[S->ScalarId] = true;
  });
}

unsigned ir::scalarScratchNeed(const Stmt &S) {
  // A store holds its subscript while the value is evaluated.
  unsigned Need = 0, HeldBefore = 0;
  for (const Expr *E : {S.Index, S.Value, S.Cond}) {
    if (!E)
      continue;
    bool Held;
    Need = std::max(Need, HeldBefore + scratchNeed(E, Held));
    HeldBefore += Held ? 1 : 0;
  }
  return Need;
}

std::string Expr::str(const LoopFunction &F) const {
  switch (Kind) {
  case ExprKind::ConstInt: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(IntValue));
    return Buf;
  }
  case ExprKind::ConstFloat: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", FloatValue);
    return Buf;
  }
  case ExprKind::ScalarRef:
    return F.scalar(ScalarId).Name;
  case ExprKind::IndexRef:
    return "i";
  case ExprKind::ArrayRef:
    return F.array(ArrayId).Name + "[" + Index->str(F) + "]";
  case ExprKind::Binary:
    if (Op == BinOp::Min || Op == BinOp::Max)
      return std::string(binOpName(Op)) + "(" + Lhs->str(F) + ", " +
             Rhs->str(F) + ")";
    // std::string("("), not "(": GCC 12 reports a false -Wrestrict on
    // `"literal" + std::string&&` (GCC bug 105329).
    return std::string("(") + Lhs->str(F) + " " + binOpName(Op) + " " +
           Rhs->str(F) + ")";
  case ExprKind::Compare:
    return std::string("(") + Lhs->str(F) + " " + cmpSymbol(Cmp) + " " +
           Rhs->str(F) + ")";
  case ExprKind::LogicalAnd:
    return std::string("(") + Lhs->str(F) + " && " + Rhs->str(F) + ")";
  }
  unreachable("unknown expr kind");
}

std::string Stmt::str(const LoopFunction &F) const {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "S%d: ", Id);
  std::string Prefix = Buf;
  switch (Kind) {
  case StmtKind::AssignScalar:
    return Prefix + F.scalar(ScalarId).Name + " = " + Value->str(F);
  case StmtKind::StoreArray:
    return Prefix + F.array(ArrayId).Name + "[" + Index->str(F) +
           "] = " + Value->str(F);
  case StmtKind::If:
    return Prefix + "if " + Cond->str(F);
  case StmtKind::Break:
    return Prefix + "break";
  }
  unreachable("unknown stmt kind");
}

int LoopFunction::addScalar(std::string ScalarName, ElemType Type,
                            bool IsLiveOut) {
  Scalars.push_back(ScalarParam{std::move(ScalarName), Type, IsLiveOut});
  return static_cast<int>(Scalars.size()) - 1;
}

int LoopFunction::addArray(std::string ArrayName, ElemType Elem,
                           bool ReadOnly) {
  Arrays.push_back(ArrayParam{std::move(ArrayName), Elem, ReadOnly});
  return static_cast<int>(Arrays.size()) - 1;
}

const Expr *LoopFunction::constInt(ElemType Type, int64_t V) {
  assert(!isFloatType(Type) && "integer constant with float type");
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::ConstInt;
  E->Type = Type;
  E->IntValue = V;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::constFloat(ElemType Type, double V) {
  assert(isFloatType(Type) && "float constant with integer type");
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::ConstFloat;
  E->Type = Type;
  E->FloatValue = V;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::scalarRef(int ScalarId) {
  assert(ScalarId >= 0 && ScalarId < static_cast<int>(Scalars.size()));
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::ScalarRef;
  E->Type = Scalars[ScalarId].Type;
  E->ScalarId = ScalarId;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::indexRef() {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::IndexRef;
  E->Type = ElemType::I64;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::arrayRef(int ArrayId, const Expr *Index) {
  assert(ArrayId >= 0 && ArrayId < static_cast<int>(Arrays.size()));
  assert(!isFloatType(Index->Type) && "array subscript must be integral");
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::ArrayRef;
  E->Type = Arrays[ArrayId].Elem;
  E->ArrayId = ArrayId;
  E->Index = Index;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::binary(BinOp Op, const Expr *Lhs, const Expr *Rhs) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Binary;
  E->Type = Lhs->Type;
  E->Op = Op;
  E->Lhs = Lhs;
  E->Rhs = Rhs;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::compare(CmpKind Cmp, const Expr *Lhs,
                                  const Expr *Rhs) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Compare;
  E->Type = ElemType::I64;
  E->Cmp = Cmp;
  E->Lhs = Lhs;
  E->Rhs = Rhs;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

const Expr *LoopFunction::logicalAnd(const Expr *Lhs, const Expr *Rhs) {
  assert(Lhs->isBool() && Rhs->isBool() && "logical-and over non-bools");
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::LogicalAnd;
  E->Type = ElemType::I64;
  E->Lhs = Lhs;
  E->Rhs = Rhs;
  ExprArena.push_back(std::move(E));
  return ExprArena.back().get();
}

Stmt *LoopFunction::assignScalar(int ScalarId, const Expr *Value) {
  assert(ScalarId >= 0 && ScalarId < static_cast<int>(Scalars.size()));
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::AssignScalar;
  S->Id = NextStmtId++;
  S->ScalarId = ScalarId;
  S->Value = Value;
  StmtArena.push_back(std::move(S));
  return StmtArena.back().get();
}

Stmt *LoopFunction::storeArray(int ArrayId, const Expr *Index,
                               const Expr *Value) {
  assert(ArrayId >= 0 && ArrayId < static_cast<int>(Arrays.size()));
  assert(!Arrays[ArrayId].ReadOnly && "store to read-only array");
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::StoreArray;
  S->Id = NextStmtId++;
  S->ArrayId = ArrayId;
  S->Index = Index;
  S->Value = Value;
  StmtArena.push_back(std::move(S));
  return StmtArena.back().get();
}

Stmt *LoopFunction::makeIf(const Expr *Cond, std::vector<Stmt *> Then,
                           std::vector<Stmt *> Else) {
  assert(Cond->isBool() && "if condition must be boolean");
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::If;
  S->Id = NextStmtId++;
  S->Cond = Cond;
  S->Then = std::move(Then);
  S->Else = std::move(Else);
  StmtArena.push_back(std::move(S));
  return StmtArena.back().get();
}

Stmt *LoopFunction::makeIfShell(const Expr *Cond) {
  return makeIf(Cond, {}, {});
}

void LoopFunction::addThen(Stmt *If, Stmt *Child) {
  assert(If->Kind == StmtKind::If && "addThen on a non-if statement");
  If->Then.push_back(Child);
}

void LoopFunction::addElse(Stmt *If, Stmt *Child) {
  assert(If->Kind == StmtKind::If && "addElse on a non-if statement");
  If->Else.push_back(Child);
}

Stmt *LoopFunction::makeBreak() {
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::Break;
  S->Id = NextStmtId++;
  StmtArena.push_back(std::move(S));
  return StmtArena.back().get();
}

static void printStmts(const LoopFunction &F, const std::vector<Stmt *> &Stmts,
                       int Depth, std::string &Out) {
  std::string Indent(static_cast<size_t>(Depth) * 2, ' ');
  for (const Stmt *S : Stmts) {
    Out += Indent + S->str(F);
    if (S->Kind == StmtKind::If) {
      Out += " {\n";
      printStmts(F, S->Then, Depth + 1, Out);
      if (!S->Else.empty()) {
        Out += Indent + "} else {\n";
        printStmts(F, S->Else, Depth + 1, Out);
      }
      Out += Indent + "}\n";
    } else {
      Out += "\n";
    }
  }
}

std::string LoopFunction::print() const {
  std::string Out = "loop " + Name + " (";
  for (size_t I = 0; I < Scalars.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::string(isa::elemTypeName(Scalars[I].Type)) + " " +
           Scalars[I].Name;
    if (Scalars[I].IsLiveOut)
      Out += " /*liveout*/";
  }
  for (size_t I = 0; I < Arrays.size(); ++I) {
    Out += ", ";
    Out += std::string(isa::elemTypeName(Arrays[I].Elem)) + " " +
           Arrays[I].Name + "[]";
  }
  Out += ")\n";
  Out += "for (i = 0; i < " +
         (TripCountScalar >= 0 ? Scalars[TripCountScalar].Name
                               : std::string("?")) +
         "; ++i) {\n";
  printStmts(*this, Body, 1, Out);
  Out += "}\n";
  return Out;
}
