//===- codegen/VectorEmitter.cpp ------------------------------------------===//

#include "codegen/VectorEmitter.h"

#include "pdg/Pdg.h"
#include "support/Error.h"

#include <cassert>
#include <cstring>

using namespace flexvec;
using namespace flexvec::codegen;
using namespace flexvec::ir;
using namespace flexvec::isa;
using flexvec::analysis::CondUpdateVpl;
using flexvec::analysis::EarlyExitInfo;
using flexvec::analysis::MemConflictVpl;
using flexvec::analysis::ReductionKind;

VectorEmitter::VectorEmitter(ProgramBuilder &B, const LoopFunction &F,
                             const analysis::VectorizationPlan &Plan,
                             Options Opts)
    : B(B), F(F), Plan(Plan), Opts(Opts) {
  // Lane configuration: all arrays must share one element width.
  unsigned Width = 0;
  for (const ArrayParam &A : F.arrays()) {
    unsigned W = elemSize(A.Elem);
    if (Width == 0)
      Width = W;
    else if (Width != W)
      unsupported("arrays mix 4- and 8-byte elements; vector code needs "
                  "one lane width per loop");
  }
  if (Width == 0 || !Unsupported.empty())
    Width = 4;
  assert(isa::VectorConfig::isValidBytes(Opts.VectorBytes) &&
         "invalid vector width");
  VL = Opts.VectorBytes / Width;
  IntTy = Width == 4 ? ElemType::I32 : ElemType::I64;
  FloatTy = Width == 4 ? ElemType::F32 : ElemType::F64;

  // Scalar classification.
  size_t NumScalars = F.scalars().size();
  assert(NumScalars <= ir::MaxScalarParams && "too many scalar parameters");
  assert(F.arrays().size() <= ir::MaxArrayParams &&
         "too many array parameters");
  std::vector<bool> Assigned(NumScalars, false);
  collectAssignedScalars(F.body(), Assigned);

  Classes.assign(NumScalars, ScalarClass::Invariant);
  for (size_t S = 0; S < NumScalars; ++S)
    if (Assigned[S])
      Classes[S] = ScalarClass::Temp;
  for (const auto &R : Plan.Reductions)
    Classes[R.ScalarId] = ScalarClass::Reduction;
  for (const auto &V : Plan.CondUpdateVpls)
    for (const auto &U : V.Updates)
      Classes[U.ScalarId] = ScalarClass::Committed;
  for (const auto &EE : Plan.EarlyExits) {
    // Scalars assigned in the break-side region commit at the first exiting
    // lane; the continue-side region is ordinary if-converted code.
    std::vector<bool> InGuard(NumScalars, false);
    forEachStmt(F, [&](const Stmt *S) {
      if (S->Id == EE.GuardNode)
        collectAssignedScalars(EE.BreakInElse ? S->Else : S->Then, InGuard);
    });
    for (size_t S = 0; S < NumScalars; ++S)
      if (InGuard[S] && Classes[S] == ScalarClass::Temp)
        Classes[S] = ScalarClass::Committed;
  }

  for (size_t S = 0; S < NumScalars; ++S) {
    if (Classes[S] == ScalarClass::Temp && F.scalar(S).IsLiveOut)
      unsupported("live-out scalar '" + F.scalar(S).Name +
                  "' keeps its last value but is neither a reduction nor "
                  "a conditional update");
    bool Read = false;
    forEachStmt(F, [&](const Stmt *St) {
      Read |= stmtReadsScalar(St, static_cast<int>(S));
    });
    if ((Read || Assigned[S]) && isFloatType(F.scalar(S).Type) &&
        elemSize(F.scalar(S).Type) != elemSize(FloatTy))
      unsupported("float scalar '" + F.scalar(S).Name + "' is " +
                  elemTypeName(F.scalar(S).Type) +
                  " but the loop's vector lanes are " +
                  std::to_string(Width) + " bytes wide");
  }

  // Scratch vector registers v16..v31.
  for (unsigned R = 15 + ir::MaxVectorScratchRegs; R >= 16; --R)
    VecFree.push_back(static_cast<uint8_t>(R));

  CurMask = kLoop();
  NotesText = "VL=" + std::to_string(VL);
  if (Opts.Predicated)
    NotesText += "; predicated";

  // Collect the distinct immediates the body will need as vectors, so the
  // preheader can broadcast each exactly once (re-materializing them per
  // chunk would put a VBROADCASTI on every loop iteration's trace).
  forEachStmt(F, [&](const Stmt *S) {
    forEachExpr(*S, [&](const Expr *E) {
      if (E->Kind == ExprKind::ConstInt) {
        noteConstant(IntTy, E->IntValue);
      } else if (E->Kind == ExprKind::ConstFloat) {
        int64_t Bits;
        if (FloatTy == ElemType::F32) {
          float V = static_cast<float>(E->FloatValue);
          uint32_t B32;
          std::memcpy(&B32, &V, 4);
          Bits = B32;
        } else {
          std::memcpy(&Bits, &E->FloatValue, 8);
        }
        noteConstant(FloatTy, Bits);
      }
    });
  });
}

void VectorEmitter::noteConstant(ElemType Ty, int64_t Bits) {
  for (auto &[T, B, R] : ConstPool)
    if (T == Ty && B == Bits)
      return;
  // Bound the pool so deep loops keep enough scratch registers.
  if (ConstPool.size() >= 6)
    return;
  Reg R = acquireVec();
  Persistent.push_back(R.Index);
  ConstPool.emplace_back(Ty, Bits, R);
}

isa::Reg VectorEmitter::constantReg(ElemType Ty, int64_t Bits) const {
  for (const auto &[T, B, R] : ConstPool)
    if (T == Ty && B == Bits)
      return R;
  return Reg::none();
}

ElemType VectorEmitter::laneType(ElemType Declared) const {
  return isFloatType(Declared) ? FloatTy : IntTy;
}

std::string VectorEmitter::notes() const { return NotesText; }

void VectorEmitter::unsupported(std::string Why) {
  if (Unsupported.empty())
    Unsupported = std::move(Why);
}

Reg VectorEmitter::acquireVec() {
  if (VecFree.empty()) {
    unsupported("vector code needs more than " +
                std::to_string(ir::MaxVectorScratchRegs) +
                " live scratch vector registers (v16..v31)");
    return Reg::vector(15 + ir::MaxVectorScratchRegs);
  }
  Reg R = Reg::vector(VecFree.back());
  VecFree.pop_back();
  return R;
}

void VectorEmitter::releaseVec(Reg R) {
  assert(R.isVector() && R.Index >= 16 && "not a scratch vector register");
  VecFree.push_back(R.Index);
}

void VectorEmitter::releaseIfScratch(Reg R) {
  if (!R.isVector() || R.Index < 16)
    return;
  for (uint8_t P : Persistent)
    if (P == R.Index)
      return;
  releaseVec(R);
}

const analysis::ReductionInfo *VectorEmitter::reductionOf(int ScalarId) const {
  for (const auto &R : Plan.Reductions)
    if (R.ScalarId == ScalarId)
      return &R;
  return nullptr;
}

const EarlyExitInfo *VectorEmitter::earlyExitAt(const Stmt *S) const {
  for (const auto &EE : Plan.EarlyExits)
    if (EE.GuardNode == S->Id)
      return &EE;
  return nullptr;
}

bool VectorEmitter::isSpeculativeLoadSite(int StmtId) const {
  return Plan.isSpeculative(StmtId);
}

void VectorEmitter::emitMaskedMove(Reg Dst, ElemType Ty, Reg Mask, Reg Src) {
  // dst = Mask ? Src : dst.
  B.vblend(Dst, Ty, Mask, Src, Dst);
}

// --- Expression evaluation ----------------------------------------------===//

void VectorEmitter::evalCond(const Expr *E, Reg WriteMask, Reg DestK) {
  if (E->Kind == ExprKind::LogicalAnd) {
    evalCond(E->Lhs, WriteMask, DestK);
    evalCond(E->Rhs, DestK, DestK);
    return;
  }
  if (E->Kind != ExprKind::Compare)
    fatalError("vector condition must be a comparison or logical-and");

  // Operand loads are masked by the lanes under test.
  Reg Saved = CurMask;
  CurMask = WriteMask;
  Reg L = evalVec(E->Lhs);
  Reg R = evalVec(E->Rhs);
  CurMask = Saved;

  ElemType Ty = laneType(E->Lhs->Type);
  B.vcmp(DestK, E->Cmp, Ty, L, R, WriteMask);
  releaseIfScratch(R);
  releaseIfScratch(L);
}

Reg VectorEmitter::emitArrayLoad(const Expr *E) {
  const ArrayParam &A = F.array(E->ArrayId);
  ElemType Ty = laneType(A.Elem);
  uint8_t Scale = static_cast<uint8_t>(elemSize(A.Elem));
  std::optional<pdg::AffineSubscript> Aff = pdg::matchAffine(E->Index);

  bool Spec = isSpeculativeLoadSite(CurrentStmtId) && Opts.FaultBail;
  Reg T = acquireVec();

  if (!Spec) {
    if (Aff) {
      B.vload(T, Ty, CurMask, arrayBaseReg(E->ArrayId), inductionReg(), Scale,
              Aff->Offset * Scale);
    } else {
      Reg Idx = evalVec(E->Index);
      B.vgather(T, Ty, CurMask, arrayBaseReg(E->ArrayId), Idx, Scale, 0);
      releaseIfScratch(Idx);
    }
    return T;
  }

  // First-faulting sequence (Section 4.1): copy the current predicate into
  // a writable mask, load, and bail to the scalar fallback if the returned
  // mask was clipped by a speculative fault.
  assert(!(CurMask == kScratch()) && !(CurMask == kSafe()) &&
         "FF sequence would clobber its own mask");
  B.kmov(kScratch(), CurMask).Comment = "FF mask <- current predicate";
  if (Aff) {
    B.vmovff(T, Ty, kScratch(), arrayBaseReg(E->ArrayId), inductionReg(),
             Scale, Aff->Offset * Scale);
  } else {
    Reg Idx = evalVec(E->Index);
    B.vgatherff(T, Ty, kScratch(), arrayBaseReg(E->ArrayId), Idx, Scale, 0);
    releaseIfScratch(Idx);
  }
  B.kbinOp(Opcode::KXor, kSafe(), kScratch(), CurMask);
  Reg Chk = Reg::scalar(25);
  B.ktest(Chk, kSafe());
  B.brNonZero(Chk, *Opts.FaultBail).Comment =
      "speculative fault: fall back to scalar";
  return T;
}

Reg VectorEmitter::evalVec(const Expr *E) {
  switch (E->Kind) {
  case ExprKind::ConstInt: {
    Reg Pooled = constantReg(IntTy, E->IntValue);
    if (Pooled.isValid())
      return Pooled;
    Reg T = acquireVec();
    B.vbroadcastImm(T, IntTy, E->IntValue);
    return T;
  }
  case ExprKind::ConstFloat: {
    int64_t Bits;
    if (FloatTy == ElemType::F32) {
      float V = static_cast<float>(E->FloatValue);
      uint32_t B32;
      std::memcpy(&B32, &V, 4);
      Bits = B32;
    } else {
      std::memcpy(&Bits, &E->FloatValue, 8);
    }
    Reg Pooled = constantReg(FloatTy, Bits);
    if (Pooled.isValid())
      return Pooled;
    Reg T = acquireVec();
    B.vbroadcastImm(T, FloatTy, Bits);
    return T;
  }
  case ExprKind::ScalarRef:
    return scalarVecReg(E->ScalarId);
  case ExprKind::IndexRef:
    return indexVec();
  case ExprKind::ArrayRef:
    return emitArrayLoad(E);
  case ExprKind::Binary: {
    Reg L = evalVec(E->Lhs);
    Reg R = evalVec(E->Rhs);
    releaseIfScratch(R);
    releaseIfScratch(L);
    Reg T = acquireVec();
    ElemType Ty = laneType(E->Type);
    Opcode Op = Opcode::VAdd;
    if (isFloatType(E->Type)) {
      switch (E->Op) {
      case BinOp::Add:
        Op = Opcode::VFAdd;
        break;
      case BinOp::Sub:
        Op = Opcode::VFSub;
        break;
      case BinOp::Mul:
        Op = Opcode::VFMul;
        break;
      case BinOp::Div:
        Op = Opcode::VFDiv;
        break;
      case BinOp::Min:
        Op = Opcode::VFMin;
        break;
      case BinOp::Max:
        Op = Opcode::VFMax;
        break;
      default:
        fatalError("bitwise operator on float lanes");
      }
    } else {
      switch (E->Op) {
      case BinOp::Add:
        Op = Opcode::VAdd;
        break;
      case BinOp::Sub:
        Op = Opcode::VSub;
        break;
      case BinOp::Mul:
        Op = Opcode::VMul;
        break;
      case BinOp::And:
        Op = Opcode::VAnd;
        break;
      case BinOp::Or:
        Op = Opcode::VOr;
        break;
      case BinOp::Xor:
        Op = Opcode::VXor;
        break;
      case BinOp::Min:
        Op = Opcode::VMin;
        break;
      case BinOp::Max:
        Op = Opcode::VMax;
        break;
      case BinOp::Shl:
      case BinOp::Shr:
      case BinOp::Div:
        unsupported(std::string("integer '") + binOpName(E->Op) + "' in " +
                    E->str(F) + " has no vector instruction");
        break;
      }
    }
    B.vbinOp(Op, Ty, T, L, R);
    return T;
  }
  case ExprKind::Compare:
  case ExprKind::LogicalAnd:
    unsupported("comparison " + E->str(F) +
                " used as a value has no vector form");
    return indexVec();
  }
  unreachable("unknown expr kind");
}

// --- Statements ----------------------------------------------------------===//

void VectorEmitter::emitStmtList(const std::vector<Stmt *> &Stmts,
                                 RegionCtx &Ctx) {
  for (const Stmt *S : Stmts)
    emitStmt(S, Ctx);
}

void VectorEmitter::emitStmt(const Stmt *S, RegionCtx &Ctx) {
  CurrentStmtId = S->Id;
  switch (S->Kind) {
  case StmtKind::AssignScalar:
    emitAssign(S, Ctx);
    return;
  case StmtKind::StoreArray:
    emitStore(S, Ctx);
    return;
  case StmtKind::If:
    emitIf(S, Ctx);
    return;
  case StmtKind::Break:
    // Break effects (flag, k_loop clipping) are produced by
    // emitEarlyExitGuard when it processes the guard; nothing to do here.
    return;
  }
}

void VectorEmitter::emitAssign(const Stmt *S, RegionCtx &Ctx) {
  int Id = S->ScalarId;
  ElemType Ty = laneType(F.scalar(Id).Type);

  // Reduction accumulators.
  if (const analysis::ReductionInfo *R = reductionOf(Id)) {
    Reg Acc = scalarVecReg(Id);
    if (S->Value->Kind == ExprKind::Binary) {
      const Expr *V = S->Value;
      bool LhsIsS =
          V->Lhs->Kind == ExprKind::ScalarRef && V->Lhs->ScalarId == Id;
      bool RhsIsS =
          V->Rhs->Kind == ExprKind::ScalarRef && V->Rhs->ScalarId == Id;
      if (LhsIsS || RhsIsS) {
        // Direct form s = s <op> e.
        Reg E = evalVec(LhsIsS ? V->Rhs : V->Lhs);
        Opcode Op = Opcode::VAdd;
        bool Fp = isFloatType(Ty);
        switch (R->Kind) {
        case ReductionKind::Add:
          Op = Fp ? Opcode::VFAdd : Opcode::VAdd;
          break;
        case ReductionKind::Min:
          Op = Fp ? Opcode::VFMin : Opcode::VMin;
          break;
        case ReductionKind::Max:
          Op = Fp ? Opcode::VFMax : Opcode::VMax;
          break;
        }
        B.vbinOp(Op, Ty, Acc, Acc, E, CurMask).Comment = S->str(F);
        releaseIfScratch(E);
        return;
      }
    }
    // Guarded form (if (e < s) s = e): masked move into the accumulator.
    Reg V = evalVec(S->Value);
    emitMaskedMove(Acc, Ty, CurMask, V);
    releaseIfScratch(V);
    return;
  }

  // Conditional-update targets inside a VPL: capture the value and mark the
  // updating lanes; the commit happens in the VPL tail (Section 4.2).
  if (Ctx.InCondVpl) {
    for (size_t U = 0; U < Ctx.Vpl->Updates.size(); ++U) {
      if (Ctx.Vpl->Updates[U].UpdateNode != S->Id)
        continue;
      Reg V = evalVec(S->Value);
      B.vblend(Ctx.UpdateVals[U], Ty, kAll(), V, V).Comment =
          S->str(F) + " (captured update value)";
      releaseIfScratch(V);
      B.kbinOp(Opcode::KOr, kStop(), kStop(), CurMask).Comment =
          "k_stop |= updating lanes";
      return;
    }
  }

  // Early-exit commit region: propagate with VPSLCTLAST (Section 4.1).
  if (Ctx.InExitRegion) {
    Reg V = evalVec(S->Value);
    bool UsedInLoop = false;
    forEachStmt(F,
                [&](const Stmt *T) { UsedInLoop |= stmtReadsScalar(T, Id); });
    if (!UsedInLoop) {
      B.vslctlast(scalarVecReg(Id), Ty, CurMask, V).Comment =
          S->str(F) + " (broadcast at exit lane)";
    } else {
      Reg Tmp = acquireVec();
      B.vslctlast(Tmp, Ty, CurMask, V);
      B.vblend(scalarVecReg(Id), Ty, Ctx.ExitRemMask, Tmp, scalarVecReg(Id))
          .Comment = S->str(F) + " (selective forward broadcast)";
      releaseVec(Tmp);
    }
    releaseIfScratch(V);
    return;
  }

  if (Classes[Id] == ScalarClass::Committed && !Ctx.StraightlineOnly)
    unsupported("conditionally updated scalar '" + F.scalar(Id).Name +
                "' is also assigned at S" + std::to_string(S->Id) +
                ", outside its update region");

  // Scalar-expanded temporary.
  Reg V = evalVec(S->Value);
  emitMaskedMove(scalarVecReg(Id), Ty, CurMask, V);
  releaseIfScratch(V);
}

void VectorEmitter::emitStore(const Stmt *S, RegionCtx &Ctx) {
  if (Ctx.InCondVpl)
    unsupported("store to array '" + F.array(S->ArrayId).Name +
                "' inside the conditional-update region of '" +
                F.scalar(Ctx.Vpl->Updates[0].ScalarId).Name +
                "' (stores must be delayed past mask validation)");
  const ArrayParam &A = F.array(S->ArrayId);
  ElemType Ty = laneType(A.Elem);
  uint8_t Scale = static_cast<uint8_t>(elemSize(A.Elem));
  Reg V = evalVec(S->Value);
  std::optional<pdg::AffineSubscript> Aff = pdg::matchAffine(S->Index);
  if (Aff) {
    B.vstore(Ty, CurMask, arrayBaseReg(S->ArrayId), inductionReg(), Scale,
             Aff->Offset * Scale, V)
        .Comment = S->str(F);
  } else {
    Reg Idx = evalVec(S->Index);
    B.vscatter(Ty, CurMask, arrayBaseReg(S->ArrayId), Idx, Scale, 0, V)
        .Comment = S->str(F);
    releaseIfScratch(Idx);
  }
  releaseIfScratch(V);
}

void VectorEmitter::emitIf(const Stmt *S, RegionCtx &Ctx) {
  if (!Ctx.StraightlineOnly) {
    if (const EarlyExitInfo *EE = earlyExitAt(S)) {
      emitEarlyExitGuard(S, *EE);
      return;
    }
  }
  if (IfDepth >= 2)
    fatalError("if-conversion nesting deeper than 2 exceeds the mask "
               "register budget");
  Reg KT = IfDepth == 0 ? kIf0() : kIf1();
  ++IfDepth;
  Reg Parent = CurMask;
  evalCond(S->Cond, Parent, KT);
  CurMask = KT;
  emitStmtList(S->Then, Ctx);
  if (!S->Else.empty()) {
    // KT = ~KT & Parent — the false region of the parent predicate.
    B.kbinOp(Opcode::KAndN, KT, KT, Parent).Comment =
        "S" + std::to_string(S->Id) + ": else region";
    emitStmtList(S->Else, Ctx);
  }
  CurMask = Parent;
  --IfDepth;
}

// --- Early loop termination (Section 4.1) --------------------------------===//

void VectorEmitter::emitEarlyExitGuard(const Stmt *Guard,
                                       const EarlyExitInfo &EE) {
  assert(CurMask == kLoop() && "early-exit guard must be at top level");
  // k2 = lanes that want to exit.
  evalCond(Guard->Cond, kLoop(), kIf0());
  if (EE.BreakInElse)
    B.kbinOp(Opcode::KAndN, kIf0(), kIf0(), kLoop()).Comment =
        "exit lanes are the guard's false region";

  // k6 = lanes through the first exiting lane (KFTM.INC).
  B.kftmInc(kSafe(), IntTy, kLoop(), kIf0()).Comment =
      "S" + std::to_string(Guard->Id) + ": lanes through first exit";
  // k7 = the first exiting lane only.
  B.kbinOp(Opcode::KAnd, kScratch(), kIf0(), kSafe());

  // Break flag.
  Reg T = Reg::scalar(25);
  B.ktest(T, kIf0());
  B.binOp(Opcode::Or, breakFlag(), breakFlag(), T).Comment =
      "record early exit";

  // k3 = lanes at/after the first exiting lane (selective broadcast mask).
  B.kbinOp(Opcode::KAndN, kIf1(), kSafe(), kLoop());
  B.kbinOp(Opcode::KOr, kIf1(), kIf1(), kScratch());

  // Clip k_loop: only lanes strictly before the first exit keep executing.
  B.kbinOp(Opcode::KAndN, kLoop(), kIf0(), kSafe()).Comment =
      "k_loop &= lanes before first exit";

  // Commit region: statements sharing the region with the break, executed
  // for the first exiting lane only. Skipped entirely when no lane exits
  // (VPSLCTLAST with an empty mask would select the last lane).
  const std::vector<Stmt *> &ExitRegion =
      EE.BreakInElse ? Guard->Else : Guard->Then;
  const std::vector<Stmt *> &ContRegion =
      EE.BreakInElse ? Guard->Then : Guard->Else;

  ProgramBuilder::Label SkipCommit = B.createLabel();
  B.brZero(T, SkipCommit).Comment = "no lane exits: skip commit region";
  RegionCtx ExitCtx;
  ExitCtx.InExitRegion = true;
  ExitCtx.ExitRemMask = kIf1();
  Reg Saved = CurMask;
  CurMask = kScratch();
  for (const Stmt *S : ExitRegion) {
    if (S->Kind == StmtKind::Break)
      continue;
    if (S->Kind == StmtKind::If) {
      unsupported("'if' S" + std::to_string(S->Id) +
                  " nested in the break region of early-exit guard S" +
                  std::to_string(Guard->Id));
      continue;
    }
    emitStmt(S, ExitCtx);
  }
  CurMask = Saved;
  B.bind(SkipCommit);

  // Continue region: lanes before the first exit (already equal to the
  // clipped k_loop).
  RegionCtx ContCtx;
  CurMask = kLoop();
  emitStmtList(ContRegion, ContCtx);
}

// --- Conditional scalar update VPL (Section 4.2) -------------------------===//

void VectorEmitter::emitCondUpdateVpl(const CondUpdateVpl &Vpl) {
  // All updates must share one innermost guard so a single k_stop commit
  // lane is correct for every update.
  for (size_t U = 1; U < Vpl.Updates.size(); ++U)
    if (Vpl.Updates[U].GuardNode != Vpl.Updates[0].GuardNode)
      unsupported("conditional updates of '" +
                  F.scalar(Vpl.Updates[0].ScalarId).Name + "' and '" +
                  F.scalar(Vpl.Updates[U].ScalarId).Name +
                  "' under distinct guards share one VPL");

  RegionCtx Ctx;
  Ctx.InCondVpl = true;
  Ctx.Vpl = &Vpl;
  for (size_t U = 0; U < Vpl.Updates.size(); ++U)
    Ctx.UpdateVals.push_back(acquireVec());

  B.kmov(kTodo(), kLoop()).Comment = "k_todo = unprocessed lanes";

  ProgramBuilder::Label VplTop = B.createLabel();
  ProgramBuilder::Label SkipCommit = B.createLabel();
  B.bind(VplTop);
  B.kset(kStop(), 0).Comment = "VPL: clear updating-lane mask";

  // Phase A: evaluate the enclosed statements under k_todo; updates are
  // captured, not committed.
  Reg Saved = CurMask;
  CurMask = kTodo();
  for (int I = Vpl.FirstTop; I <= Vpl.LastTop; ++I)
    emitStmt(F.body()[I], Ctx);
  CurMask = Saved;

  // k_safe = lanes through the first updating lane (KFTM.INC).
  B.kftmInc(kSafe(), IntTy, kTodo(), kStop()).Comment =
      "k_safe = lanes through first update";

  Reg T = Reg::scalar(25);
  B.ktest(T, kStop());
  B.brZero(T, SkipCommit).Comment = "no update fired";

  // Commit: k3 = the committing lane (first updater); k7 = current and
  // succeeding lanes (k_rem).
  B.kbinOp(Opcode::KAnd, kIf1(), kStop(), kSafe()).Comment =
      "commit lane (first updater)";
  B.kbinOp(Opcode::KAndN, kScratch(), kSafe(), kTodo());
  B.kbinOp(Opcode::KOr, kScratch(), kScratch(), kIf1()).Comment =
      "k_rem = lanes at/after the update";

  for (size_t U = 0; U < Vpl.Updates.size(); ++U) {
    const analysis::CondUpdateScalar &Upd = Vpl.Updates[U];
    ElemType Ty = laneType(F.scalar(Upd.ScalarId).Type);
    if (!Upd.UsedAfterUpdate) {
      // Simple broadcast (Figure 4 line 91): VPSLCTLAST straight into the
      // scalar's vector image.
      B.vslctlast(scalarVecReg(Upd.ScalarId), Ty, kIf1(), Ctx.UpdateVals[U])
          .Comment = F.scalar(Upd.ScalarId).Name + " <- committed update";
    } else {
      // Selective forward broadcast (Figure 4 line 89): preserve values in
      // lanes preceding the update.
      Reg Tmp = acquireVec();
      B.vslctlast(Tmp, Ty, kIf1(), Ctx.UpdateVals[U]);
      B.vblend(scalarVecReg(Upd.ScalarId), Ty, kScratch(), Tmp,
               scalarVecReg(Upd.ScalarId))
          .Comment =
          F.scalar(Upd.ScalarId).Name + " <- selective forward broadcast";
      releaseVec(Tmp);
    }
  }

  B.bind(SkipCommit);
  // Retire the safely executed lanes and iterate while any remain.
  B.kbinOp(Opcode::KAndN, kTodo(), kSafe(), kTodo()).Comment =
      "k_todo &= ~k_safe";
  B.ktest(T, kTodo());
  B.brNonZero(T, VplTop).Comment = "VPL: re-execute remaining lanes";

  for (Reg R : Ctx.UpdateVals)
    releaseVec(R);
}

// --- Runtime memory dependence VPL (Section 4.3) -------------------------===//

void VectorEmitter::emitMemConflictVpl(const MemConflictVpl &Vpl) {
  B.kmov(kTodo(), kLoop()).Comment = "k_todo = unprocessed lanes";

  // Evaluate the conflicting subscripts once (loop-invariant within the
  // vector iteration; the paper hoists the conflict check out of the VPL).
  Reg Saved = CurMask;
  CurMask = kTodo();
  Reg StoreIdx = evalVec(Vpl.StoreIndex);
  B.kset(kStop(), 0);
  for (const Expr *LoadIdx : Vpl.LoadIndices) {
    Reg L = LoadIdx == Vpl.StoreIndex ? StoreIdx : evalVec(LoadIdx);
    B.vconflictm(kScratch(), IntTy, kTodo(), L, StoreIdx).Comment =
        "detect read-after-write lanes";
    B.kbinOp(Opcode::KOr, kStop(), kStop(), kScratch());
    if (!(L == StoreIdx))
      releaseIfScratch(L);
  }
  CurMask = Saved;
  releaseIfScratch(StoreIdx);

  ProgramBuilder::Label VplTop = B.createLabel();
  B.bind(VplTop);
  // k_safe = unprocessed lanes up to (not including) the next conflict; a
  // conflict at the leading remaining lane no longer waits.
  B.kftmExc(kSafe(), IntTy, kTodo(), kStop()).Comment =
      "k_safe = lanes safe to execute";

  RegionCtx Ctx;
  CurMask = kSafe();
  for (int I = Vpl.FirstTop; I <= Vpl.LastTop; ++I)
    emitStmt(F.body()[I], Ctx);
  CurMask = Saved;

  Reg T = Reg::scalar(25);
  B.kbinOp(Opcode::KAndN, kTodo(), kSafe(), kTodo()).Comment =
      "k_todo &= ~k_safe";
  B.kbinOp(Opcode::KAnd, kStop(), kStop(), kTodo());
  B.ktest(T, kStop());
  B.brNonZero(T, VplTop).Comment = "VPL: serialize dependent lanes";
}

// --- Chunk framing --------------------------------------------------------===//

void VectorEmitter::emitPreheader() {
  B.movImm(inductionReg(), 0).Comment = "i = 0";
  B.movImm(breakFlag(), 0);
  for (const auto &[Ty, Bits, R] : ConstPool)
    B.vbroadcastImm(R, Ty, Bits).Comment = "constant pool";
  for (size_t S = 0; S < F.scalars().size(); ++S) {
    ElemType Ty = laneType(F.scalar(S).Type);
    switch (Classes[S]) {
    case ScalarClass::Invariant: {
      // Broadcast only scalars the body actually reads.
      bool Used = false;
      forEachStmt(F, [&](const Stmt *St) {
        Used |= stmtReadsScalar(St, static_cast<int>(S));
      });
      if (Used)
        B.vbroadcast(scalarVecReg(static_cast<int>(S)), Ty,
                     scalarParamReg(static_cast<int>(S)))
            .Comment = "broadcast invariant " + F.scalar(S).Name;
      break;
    }
    case ScalarClass::Reduction: {
      const analysis::ReductionInfo *R = reductionOf(static_cast<int>(S));
      assert(R && "reduction class without reduction info");
      if (R->Kind == ReductionKind::Add) {
        B.vbroadcastImm(scalarVecReg(static_cast<int>(S)), Ty, 0).Comment =
            "zero accumulator for " + F.scalar(S).Name;
      } else {
        B.vbroadcast(scalarVecReg(static_cast<int>(S)), Ty,
                     scalarParamReg(static_cast<int>(S)))
            .Comment = "seed min/max accumulator for " + F.scalar(S).Name;
      }
      break;
    }
    case ScalarClass::Committed:
    case ScalarClass::Temp:
      break; // Committed scalars broadcast per chunk; temps defined in-loop.
    }
  }
}

void VectorEmitter::emitPredicatedHead(Reg HeadTemp, Reg BoundReg,
                                       ProgramBuilder::Label ExitTo) {
  B.kwhilelt(kLoop(), IntTy, inductionReg(), BoundReg).Comment =
      "k_loop = whilelt(i, bound)";
  B.ktest(HeadTemp, kLoop());
  B.brZero(HeadTemp, ExitTo);
}

void VectorEmitter::emitChunkProlog(Reg BoundReg) {
  B.vindex(indexVec(), IntTy, inductionReg()).Comment = "v_i = i + lane";
  if (!Opts.Predicated) {
    Reg Bound = acquireVec();
    B.vbroadcast(Bound, IntTy, BoundReg);
    B.vcmp(kLoop(), CmpKind::LT, IntTy, indexVec(), Bound).Comment =
        "k_loop = v_i < bound";
    releaseVec(Bound);
  }
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (Classes[S] == ScalarClass::Committed)
      B.vbroadcast(scalarVecReg(static_cast<int>(S)),
                   laneType(F.scalar(S).Type),
                   scalarParamReg(static_cast<int>(S)))
          .Comment = "re-broadcast " + F.scalar(S).Name;
}

void VectorEmitter::emitSpecCondCheck(const Expr *Cond, Reg FlagReg) {
  evalCond(Cond, kLoop(), kIf0());
  Reg T = Reg::scalar(25);
  B.ktest(T, kIf0());
  B.binOp(Opcode::Or, FlagReg, FlagReg, T).Comment =
      "speculation check: dependence condition may fire";
}

void VectorEmitter::emitSpecConflictCheck(const MemConflictVpl &Vpl,
                                          Reg FlagReg) {
  Reg Saved = CurMask;
  CurMask = kLoop();
  Reg StoreIdx = evalVec(Vpl.StoreIndex);
  Reg T = Reg::scalar(25);
  for (const Expr *LoadIdx : Vpl.LoadIndices) {
    Reg L = LoadIdx == Vpl.StoreIndex ? StoreIdx : evalVec(LoadIdx);
    B.vconflictm(kIf0(), IntTy, kLoop(), L, StoreIdx).Comment =
        "speculation check: memory conflict";
    B.ktest(T, kIf0());
    B.binOp(Opcode::Or, FlagReg, FlagReg, T);
    if (!(L == StoreIdx))
      releaseIfScratch(L);
  }
  releaseIfScratch(StoreIdx);
  CurMask = Saved;
}

void VectorEmitter::emitStraightlineTopLevel(const Stmt *S) {
  CurMask = kLoop();
  RegionCtx Ctx;
  Ctx.StraightlineOnly = true;
  emitStmt(S, Ctx);
}

void VectorEmitter::emitBody() {
  CurMask = kLoop();
  const std::vector<Stmt *> &Body = F.body();
  if (Opts.StraightlineOnly) {
    // Speculative mode: plain if-conversion; relaxed dependences are
    // guaranteed (by the caller's up-front checks) not to fire.
    RegionCtx Ctx;
    Ctx.StraightlineOnly = true;
    emitStmtList(Body, Ctx);
    return;
  }
  size_t I = 0;
  while (I < Body.size()) {
    bool Handled = false;
    for (const auto &V : Plan.CondUpdateVpls) {
      if (static_cast<int>(I) == V.FirstTop) {
        emitCondUpdateVpl(V);
        I = static_cast<size_t>(V.LastTop) + 1;
        Handled = true;
        break;
      }
    }
    if (Handled)
      continue;
    for (const auto &V : Plan.MemConflictVpls) {
      if (static_cast<int>(I) == V.FirstTop) {
        emitMemConflictVpl(V);
        I = static_cast<size_t>(V.LastTop) + 1;
        Handled = true;
        break;
      }
    }
    if (Handled)
      continue;
    RegionCtx Ctx;
    emitStmt(Body[I], Ctx);
    ++I;
  }
}

void VectorEmitter::emitChunkEpilog() {
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (Classes[S] == ScalarClass::Committed)
      B.vextractLast(scalarParamReg(static_cast<int>(S)),
                     laneType(F.scalar(S).Type), kAll(),
                     scalarVecReg(static_cast<int>(S)))
          .Comment = "sync " + F.scalar(S).Name + " to scalar";
  B.binOpImm(Opcode::AddImm, inductionReg(), inductionReg(),
             static_cast<int64_t>(VL))
      .Comment = "i += VL";
}

void VectorEmitter::emitLiveOuts() {
  for (const auto &R : Plan.Reductions) {
    if (!F.scalar(R.ScalarId).IsLiveOut)
      continue;
    ElemType Ty = laneType(F.scalar(R.ScalarId).Type);
    Opcode Op = Opcode::VReduceAdd;
    switch (R.Kind) {
    case ReductionKind::Add:
      Op = Opcode::VReduceAdd;
      break;
    case ReductionKind::Min:
      Op = Opcode::VReduceMin;
      break;
    case ReductionKind::Max:
      Op = Opcode::VReduceMax;
      break;
    }
    B.vreduce(Op, Ty, scalarParamReg(R.ScalarId), kAll(),
              scalarVecReg(R.ScalarId), scalarParamReg(R.ScalarId))
        .Comment = "final reduce of " + F.scalar(R.ScalarId).Name;
  }
}
