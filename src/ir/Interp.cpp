//===- ir/Interp.cpp ------------------------------------------------------===//

#include "ir/Interp.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace flexvec;
using namespace flexvec::ir;
using isa::elemSize;

Observer::~Observer() = default;

double Bindings::getFloat(ElemType Ty, int ScalarId) const {
  int64_t Raw = ScalarValues[ScalarId];
  if (Ty == ElemType::F32) {
    float F;
    uint32_t Bits = static_cast<uint32_t>(Raw);
    std::memcpy(&F, &Bits, 4);
    return F;
  }
  double D;
  std::memcpy(&D, &Raw, 8);
  return D;
}

void Bindings::setFloat(ElemType Ty, int ScalarId, double V) {
  if (Ty == ElemType::F32) {
    float F = static_cast<float>(V);
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    ScalarValues[ScalarId] = static_cast<int64_t>(static_cast<uint64_t>(Bits));
    return;
  }
  int64_t Raw;
  std::memcpy(&Raw, &V, 8);
  ScalarValues[ScalarId] = Raw;
}

struct Interpreter::Frame {
  const LoopFunction *F;
  Bindings *B;
  Observer *Obs;
  int64_t Iter;
  Interpreter *Self;
};

int64_t Interpreter::loadElem(uint64_t Addr, uint64_t Size) {
  if (Faulted || DivideError)
    return 0;
  uint64_t Raw = 0;
  // The debug path (no fault-hook consultation): the reference run is
  // never subject to injected faults, but a generated or shrunk loop can
  // compute a genuinely unmapped address — latch it instead of aborting.
  mem::AccessResult R = M.peek(Addr, &Raw, Size);
  if (!R.Ok) {
    Faulted = true;
    FaultAddr = R.FaultAddr;
    return 0;
  }
  return static_cast<int64_t>(Raw);
}

void Interpreter::storeElem(uint64_t Addr, int64_t Raw, uint64_t Size) {
  if (Faulted || DivideError)
    return;
  mem::AccessResult R = M.poke(Addr, &Raw, Size);
  if (!R.Ok) {
    Faulted = true;
    FaultAddr = R.FaultAddr;
  }
}

static int64_t wrapToType(ElemType Ty, int64_t V) {
  if (elemSize(Ty) == 4 && !isFloatType(Ty))
    return static_cast<int64_t>(static_cast<int32_t>(V));
  return V;
}

int64_t Interpreter::evalInt(const Frame &Fr, const Expr *E) {
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return E->IntValue;
  case ExprKind::ConstFloat:
    unreachable("float constant in integer context");
  case ExprKind::ScalarRef:
    return Fr.B->getInt(E->ScalarId);
  case ExprKind::IndexRef:
    return Fr.Iter;
  case ExprKind::ArrayRef: {
    int64_t Idx = evalInt(Fr, E->Index);
    const ArrayParam &A = Fr.F->array(E->ArrayId);
    uint64_t Addr = Fr.B->ArrayBases[E->ArrayId] +
                    static_cast<uint64_t>(Idx) * elemSize(A.Elem);
    if (Fr.Obs)
      Fr.Obs->onArrayLoad(E->ArrayId, Idx, Fr.Iter);
    if (elemSize(A.Elem) == 4)
      return static_cast<int64_t>(
          static_cast<int32_t>(loadElem(Addr, 4)));
    return loadElem(Addr, 8);
  }
  case ExprKind::Binary: {
    int64_t L = evalInt(Fr, E->Lhs);
    int64_t R = evalInt(Fr, E->Rhs);
    int64_t V;
    switch (E->Op) {
    case BinOp::Add:
      V = static_cast<int64_t>(static_cast<uint64_t>(L) +
                               static_cast<uint64_t>(R));
      break;
    case BinOp::Sub:
      V = static_cast<int64_t>(static_cast<uint64_t>(L) -
                               static_cast<uint64_t>(R));
      break;
    case BinOp::Mul:
      V = static_cast<int64_t>(static_cast<uint64_t>(L) *
                               static_cast<uint64_t>(R));
      break;
    case BinOp::Div:
      // A zero divisor or INT64_MIN / -1 has no result (x86 raises #DE):
      // latch a divide error and unwind like a memory fault.
      if (R == 0 || (L == INT64_MIN && R == -1)) {
        DivideError = true;
        V = 0;
      } else {
        V = L / R;
      }
      break;
    case BinOp::And:
      V = L & R;
      break;
    case BinOp::Or:
      V = L | R;
      break;
    case BinOp::Xor:
      V = L ^ R;
      break;
    case BinOp::Shl:
      V = static_cast<int64_t>(static_cast<uint64_t>(L)
                               << (static_cast<uint64_t>(R) & 63));
      break;
    case BinOp::Shr:
      V = static_cast<int64_t>(static_cast<uint64_t>(L) >>
                               (static_cast<uint64_t>(R) & 63));
      break;
    case BinOp::Min:
      V = std::min(L, R);
      break;
    case BinOp::Max:
      V = std::max(L, R);
      break;
    default:
      unreachable("unknown binop");
    }
    return wrapToType(E->Type, V);
  }
  case ExprKind::Compare: {
    bool Bit;
    if (isFloatType(E->Lhs->Type))
      Bit = isa::evalCmp(E->Cmp, evalFloat(Fr, E->Lhs), evalFloat(Fr, E->Rhs));
    else
      Bit = isa::evalCmp(E->Cmp, evalInt(Fr, E->Lhs), evalInt(Fr, E->Rhs));
    return Bit ? 1 : 0;
  }
  case ExprKind::LogicalAnd:
    return (evalInt(Fr, E->Lhs) != 0 && evalInt(Fr, E->Rhs) != 0) ? 1 : 0;
  }
  unreachable("unknown expr kind");
}

double Interpreter::evalFloat(const Frame &Fr, const Expr *E) {
  assert(isFloatType(E->Type) && "float evaluation of integer expression");
  bool Single = E->Type == ElemType::F32;
  switch (E->Kind) {
  case ExprKind::ConstFloat:
    return Single ? static_cast<float>(E->FloatValue) : E->FloatValue;
  case ExprKind::ScalarRef:
    return Fr.B->getFloat(E->Type, E->ScalarId);
  case ExprKind::ArrayRef: {
    int64_t Idx = evalInt(Fr, E->Index);
    const ArrayParam &A = Fr.F->array(E->ArrayId);
    uint64_t Addr = Fr.B->ArrayBases[E->ArrayId] +
                    static_cast<uint64_t>(Idx) * elemSize(A.Elem);
    if (Fr.Obs)
      Fr.Obs->onArrayLoad(E->ArrayId, Idx, Fr.Iter);
    if (Single) {
      uint32_t Bits = static_cast<uint32_t>(loadElem(Addr, 4));
      float V;
      std::memcpy(&V, &Bits, 4);
      return V;
    }
    int64_t Raw = loadElem(Addr, 8);
    double V;
    std::memcpy(&V, &Raw, 8);
    return V;
  }
  case ExprKind::Binary: {
    double L = evalFloat(Fr, E->Lhs);
    double R = evalFloat(Fr, E->Rhs);
    double V;
    switch (E->Op) {
    case BinOp::Add:
      V = L + R;
      break;
    case BinOp::Sub:
      V = L - R;
      break;
    case BinOp::Mul:
      V = L * R;
      break;
    case BinOp::Div:
      V = L / R;
      break;
    case BinOp::Min:
      V = std::min(L, R);
      break;
    case BinOp::Max:
      V = std::max(L, R);
      break;
    default:
      unreachable("bitwise binop on floats");
    }
    // Round intermediate results to single precision so the interpreter
    // matches the F32 vector lanes bit for bit.
    return Single ? static_cast<double>(static_cast<float>(V)) : V;
  }
  default:
    unreachable("expression kind cannot be float-typed");
  }
}

int64_t Interpreter::evalRaw(const Frame &Fr, const Expr *E) {
  if (!isFloatType(E->Type))
    return evalInt(Fr, E);
  double V = evalFloat(Fr, E);
  if (E->Type == ElemType::F32) {
    float F = static_cast<float>(V);
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    return static_cast<int64_t>(static_cast<uint64_t>(Bits));
  }
  int64_t Raw;
  std::memcpy(&Raw, &V, 8);
  return Raw;
}

bool Interpreter::execStmts(Frame &Fr, const std::vector<Stmt *> &Stmts) {
  for (const Stmt *S : Stmts) {
    switch (S->Kind) {
    case StmtKind::AssignScalar: {
      int64_t Old = Fr.B->getInt(S->ScalarId);
      int64_t New = evalRaw(Fr, S->Value);
      Fr.B->setInt(S->ScalarId, New);
      if (Fr.Obs)
        Fr.Obs->onScalarAssign(S, Fr.Iter, Old, New);
      break;
    }
    case StmtKind::StoreArray: {
      int64_t Idx = evalInt(Fr, S->Index);
      const ArrayParam &A = Fr.F->array(S->ArrayId);
      uint64_t Addr = Fr.B->ArrayBases[S->ArrayId] +
                      static_cast<uint64_t>(Idx) * elemSize(A.Elem);
      int64_t Raw = evalRaw(Fr, S->Value);
      storeElem(Addr, Raw, elemSize(A.Elem));
      if (Fr.Obs)
        Fr.Obs->onArrayStore(S, Idx, Fr.Iter);
      break;
    }
    case StmtKind::If: {
      bool Cond = evalInt(Fr, S->Cond) != 0;
      if (!execStmts(Fr, Cond ? S->Then : S->Else))
        return false;
      break;
    }
    case StmtKind::Break:
      if (Fr.Obs)
        Fr.Obs->onBreak(S, Fr.Iter);
      return false;
    }
    if (Faulted || DivideError)
      return false; // Stop at the faulting statement boundary.
  }
  return true;
}

InterpResult Interpreter::run(const LoopFunction &F, Bindings &B,
                              Observer *Obs) {
  assert(F.tripCountScalar() >= 0 && "loop has no trip-count binding");
  int64_t Trip = B.getInt(F.tripCountScalar());
  InterpResult Result;
  Faulted = false;
  FaultAddr = 0;
  DivideError = false;
  Frame Fr{&F, &B, Obs, 0, this};
  for (int64_t I = 0; I < Trip; ++I) {
    Fr.Iter = I;
    if (Obs)
      Obs->onIterationStart(I);
    ++Result.IterationsExecuted;
    if (!execStmts(Fr, F.body())) {
      Result.BrokeEarly = !Faulted && !DivideError;
      break;
    }
  }
  Result.Faulted = Faulted;
  Result.FaultAddr = FaultAddr;
  Result.DivideError = DivideError;
  return Result;
}
