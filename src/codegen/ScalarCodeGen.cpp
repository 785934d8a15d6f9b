//===- codegen/ScalarCodeGen.cpp ------------------------------------------===//

#include "codegen/ScalarCodeGen.h"

#include "support/Error.h"

#include <cassert>

using namespace flexvec;
using namespace flexvec::codegen;
using namespace flexvec::ir;
using namespace flexvec::isa;

namespace {

/// Stack-discipline pool over the scalar scratch registers r25..r31; the
/// parser rejects statements that need more (ir::scalarScratchNeed).
class ScratchPool {
public:
  Reg acquire() {
    if (Next >= 25 + ir::MaxScalarScratchRegs)
      fatalError("scalar expression too deep for the scratch register pool");
    return Reg::scalar(Next++);
  }
  void release([[maybe_unused]] Reg R) {
    assert(R.isScalar() && R.Index == Next - 1 &&
           "scratch registers must be released in LIFO order");
    --Next;
  }
  /// Releases only if \p R is a scratch register (refs to parameter
  /// registers are returned unpooled).
  void releaseIfScratch(Reg R) {
    if (R.Index >= 25)
      release(R);
  }

private:
  unsigned Next = 25;
};

class ScalarEmitter {
public:
  ScalarEmitter(ProgramBuilder &B, const LoopFunction &F) : B(B), F(F) {}

  /// Evaluates \p E; the result register may be a parameter register (do
  /// not write to it). Boolean expressions yield 0/1.
  Reg evalExpr(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::ConstInt: {
      Reg T = Pool.acquire();
      B.movImm(T, E->IntValue);
      return T;
    }
    case ExprKind::ConstFloat: {
      Reg T = Pool.acquire();
      B.fmovImm(T, E->Type, E->FloatValue);
      return T;
    }
    case ExprKind::ScalarRef:
      return scalarParamReg(E->ScalarId);
    case ExprKind::IndexRef:
      return inductionReg();
    case ExprKind::ArrayRef: {
      Reg Idx = evalExpr(E->Index);
      Reg T = Idx.Index >= 25 ? Idx : Pool.acquire();
      const ArrayParam &A = F.array(E->ArrayId);
      B.load(T, A.Elem, arrayBaseReg(E->ArrayId), Idx,
             static_cast<uint8_t>(elemSize(A.Elem)), 0);
      return T;
    }
    case ExprKind::Binary: {
      Reg L = evalExpr(E->Lhs);
      Reg R = evalExpr(E->Rhs);
      // Reuse the deeper scratch when possible to keep LIFO discipline.
      Pool.releaseIfScratch(R);
      Pool.releaseIfScratch(L);
      Reg T = Pool.acquire();
      if (isFloatType(E->Type))
        B.fbinOp(fpOpcode(E->Op), E->Type, T, L, R);
      else
        B.binOp(intOpcode(E->Op), T, L, R);
      return T;
    }
    case ExprKind::Compare: {
      Reg L = evalExpr(E->Lhs);
      Reg R = evalExpr(E->Rhs);
      Pool.releaseIfScratch(R);
      Pool.releaseIfScratch(L);
      Reg T = Pool.acquire();
      if (isFloatType(E->Lhs->Type))
        B.fcmp(T, E->Cmp, E->Lhs->Type, L, R);
      else
        B.cmp(T, E->Cmp, L, R);
      return T;
    }
    case ExprKind::LogicalAnd: {
      Reg L = evalExpr(E->Lhs);
      Reg R = evalExpr(E->Rhs);
      Pool.releaseIfScratch(R);
      Pool.releaseIfScratch(L);
      Reg T = Pool.acquire();
      B.binOp(Opcode::And, T, L, R);
      return T;
    }
    }
    unreachable("unknown expr kind");
  }

  void emitStmts(const std::vector<Stmt *> &Stmts,
                 ProgramBuilder::Label BreakTarget) {
    for (const Stmt *S : Stmts) {
      switch (S->Kind) {
      case StmtKind::AssignScalar: {
        Reg V = evalExpr(S->Value);
        B.mov(scalarParamReg(S->ScalarId), V).Comment = S->str(F);
        Pool.releaseIfScratch(V);
        break;
      }
      case StmtKind::StoreArray: {
        Reg Idx = evalExpr(S->Index);
        Reg V = evalExpr(S->Value);
        const ArrayParam &A = F.array(S->ArrayId);
        B.store(A.Elem, arrayBaseReg(S->ArrayId), Idx,
                static_cast<uint8_t>(elemSize(A.Elem)), 0, V)
            .Comment = S->str(F);
        Pool.releaseIfScratch(V);
        Pool.releaseIfScratch(Idx);
        break;
      }
      case StmtKind::If: {
        Reg C = evalExpr(S->Cond);
        ProgramBuilder::Label ElseL = B.createLabel();
        B.brZero(C, ElseL).Comment = S->str(F);
        Pool.releaseIfScratch(C);
        emitStmts(S->Then, BreakTarget);
        if (S->Else.empty()) {
          B.bind(ElseL);
        } else {
          ProgramBuilder::Label EndL = B.createLabel();
          B.jmp(EndL);
          B.bind(ElseL);
          emitStmts(S->Else, BreakTarget);
          B.bind(EndL);
        }
        break;
      }
      case StmtKind::Break:
        B.jmp(BreakTarget).Comment = S->str(F);
        break;
      }
    }
  }

private:
  static Opcode intOpcode(BinOp Op) {
    switch (Op) {
    case BinOp::Add:
      return Opcode::Add;
    case BinOp::Sub:
      return Opcode::Sub;
    case BinOp::Mul:
      return Opcode::Mul;
    case BinOp::Div:
      return Opcode::Div;
    case BinOp::And:
      return Opcode::And;
    case BinOp::Or:
      return Opcode::Or;
    case BinOp::Xor:
      return Opcode::Xor;
    case BinOp::Shl:
      return Opcode::Shl;
    case BinOp::Shr:
      return Opcode::Shr;
    case BinOp::Min:
      return Opcode::Min;
    case BinOp::Max:
      return Opcode::Max;
    }
    unreachable("unknown binop");
  }

  static Opcode fpOpcode(BinOp Op) {
    switch (Op) {
    case BinOp::Add:
      return Opcode::FAdd;
    case BinOp::Sub:
      return Opcode::FSub;
    case BinOp::Mul:
      return Opcode::FMul;
    case BinOp::Div:
      return Opcode::FDiv;
    case BinOp::Min:
      return Opcode::FMin;
    case BinOp::Max:
      return Opcode::FMax;
    default:
      unreachable("bitwise binop on floats");
    }
  }

  ProgramBuilder &B;
  const LoopFunction &F;
  ScratchPool Pool;
};

} // namespace

const char *codegen::variantName(CodeGenKind K) {
  switch (K) {
  case CodeGenKind::Scalar:
    return "scalar";
  case CodeGenKind::Traditional:
    return "traditional";
  case CodeGenKind::Speculative:
    return "speculative";
  case CodeGenKind::FlexVec:
    return "flexvec";
  case CodeGenKind::FlexVecRtm:
    return "flexvec-rtm";
  case CodeGenKind::FlexVecAdaptive:
    return "flexvec-adaptive";
  }
  unreachable("unknown codegen kind");
}

void codegen::emitScalarLoopBody(ProgramBuilder &B, const LoopFunction &F,
                                 Reg BoundReg,
                                 ProgramBuilder::Label BreakTarget) {
  ScalarEmitter E(B, F);
  ProgramBuilder::Label Header = B.createLabel();
  ProgramBuilder::Label Done = B.createLabel();
  Reg I = inductionReg();
  Reg T = Reg::scalar(25);
  B.bind(Header);
  B.cmp(T, CmpKind::LT, I, BoundReg).Comment = "scalar loop header";
  B.brZero(T, Done);
  E.emitStmts(F.body(), BreakTarget);
  B.binOpImm(Opcode::AddImm, I, I, 1);
  B.jmp(Header);
  B.bind(Done);
}

CompiledLoop codegen::generateScalar(const LoopFunction &F) {
  assert(F.scalars().size() <= ir::MaxScalarParams &&
         F.arrays().size() <= ir::MaxArrayParams &&
         "loop exceeds the register conventions");
  CompiledLoop Out;
  Out.Kind = CodeGenKind::Scalar;
  ProgramBuilder B;
  ProgramBuilder::Label Exit = B.createLabel();
  B.movImm(inductionReg(), 0).Comment = "i = 0";
  emitScalarLoopBody(B, F, scalarParamReg(F.tripCountScalar()), Exit);
  B.bind(Exit);
  B.halt();
  Out.Prog = B.finalize();
  Out.Notes = "strict scalar order; branches for control flow";
  return Out;
}
