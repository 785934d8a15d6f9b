//===- driver/AdaptiveStrategy.cpp - Adaptive multi-versioned codegen -----===//
//
// Program layout (one program, two complete variants):
//
//   prologue:   state != 0 ............................ jmp TradEntry
//               reconcile lag-1 abort events
//               invocations >= window && rate >= pct .. demote, jmp TradEntry
//               trip < MinTrip ........................ jmp GuardFail
//               per-pair alias-range overlap .......... jmp GuardFail
//               guard_pass++, invocations++
//   spec nest:  the full flexvec-rtm skeleton; its abort handler bumps
//               abort_events via Ctx.DispatchCellAddr
//   GuardFail:  guard_fail++, jmp TradEntry
//   TradEntry:  the full traditional skeleton (own preheader/halt), or a
//               plain scalar loop when the loop needs FlexVec
//
// The guard is a *heuristic* router, not a safety check: both variants
// compute the same function, so unboundable (indirect-subscript) array
// pairs are simply skipped rather than pessimized.
//
//===----------------------------------------------------------------------===//

#include "driver/AdaptiveStrategy.h"

#include "codegen/ScalarCodeGen.h"

#include <algorithm>
#include <optional>

using namespace flexvec;
using namespace flexvec::driver;
using namespace flexvec::ir;
using namespace flexvec::isa;
using codegen::CodeGenKind;

namespace {

// --- Static alias-extent analysis ------------------------------------------===//

/// The guard needs, per array, a constant c such that every subscript this
/// loop uses stays below trip + c. Direct affine forms are boundable;
/// anything data-dependent (b[a[i]]) is not.
std::optional<int64_t> subscriptEndOffset(const Expr *Idx) {
  switch (Idx->Kind) {
  case ExprKind::IndexRef:
    return 0;
  case ExprKind::ConstInt:
    // end = (trip + c) * elem overshoots the true (c + 1) * elem for a
    // constant subscript, which is fine for a routing heuristic.
    return Idx->IntValue >= 0 ? std::optional<int64_t>(Idx->IntValue)
                              : std::nullopt;
  case ExprKind::Binary:
    if (Idx->Op == BinOp::Add) {
      if (Idx->Lhs->Kind == ExprKind::IndexRef &&
          Idx->Rhs->Kind == ExprKind::ConstInt && Idx->Rhs->IntValue >= 0)
        return Idx->Rhs->IntValue;
      if (Idx->Rhs->Kind == ExprKind::IndexRef &&
          Idx->Lhs->Kind == ExprKind::ConstInt && Idx->Lhs->IntValue >= 0)
        return Idx->Lhs->IntValue;
    }
    if (Idx->Op == BinOp::Sub && Idx->Lhs->Kind == ExprKind::IndexRef &&
        Idx->Rhs->Kind == ExprKind::ConstInt && Idx->Rhs->IntValue >= 0)
      return 0; // i - c only lowers the end.
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

struct ArrayBound {
  bool Accessed = false;
  bool Written = false;
  bool Boundable = true;
  int64_t MaxOff = 0; ///< Max subscript is trip - 1 + MaxOff.
};

void noteSubscript(std::vector<ArrayBound> &Bounds, int ArrayId,
                   const Expr *Idx, bool IsWrite) {
  ArrayBound &B = Bounds[static_cast<size_t>(ArrayId)];
  B.Accessed = true;
  B.Written |= IsWrite;
  if (std::optional<int64_t> Off = subscriptEndOffset(Idx))
    B.MaxOff = std::max(B.MaxOff, *Off);
  else
    B.Boundable = false;
}

std::vector<ArrayBound> analyzeArrayBounds(const LoopFunction &F) {
  std::vector<ArrayBound> Bounds(F.arrays().size());
  forEachStmt(F, [&](const Stmt *S) {
    if (S->Kind == StmtKind::StoreArray)
      noteSubscript(Bounds, S->ArrayId, S->Index, /*IsWrite=*/true);
    forEachExpr(*S, [&](const Expr *E) {
      if (E->Kind == ExprKind::ArrayRef)
        noteSubscript(Bounds, E->ArrayId, E->Index, /*IsWrite=*/false);
    });
  });
  return Bounds;
}

// --- The strategy -----------------------------------------------------------===//

class AdaptiveStrategy final : public LoweringStrategy {
public:
  CodeGenKind kind() const override { return CodeGenKind::FlexVecAdaptive; }

  bool prepare(LoweringContext &Ctx) override {
    // flexvec-rtm accepts every vectorizable plan, and traditional exactly
    // the ones that need no FlexVec mechanism; neither declines here, so
    // neither remarks.
    Spec = createStrategy(CodeGenKind::FlexVecRtm);
    Spec->prepare(Ctx);
    if (!Ctx.Plan.needsFlexVec()) {
      Trad = createStrategy(CodeGenKind::Traditional);
      Trad->prepare(Ctx);
    }

    TradEntry = Ctx.B.createLabel();
    Ctx.DispatchCellAddr = dispatch::CellAddr;
    Bounds = analyzeArrayBounds(Ctx.F);
    return true;
  }

  codegen::VectorEmitter::Options
  emitterOptions(const LoweringContext &Ctx) const override {
    return Spec->emitterOptions(Ctx);
  }

  void emitLoopNest(LoweringContext &Ctx) override {
    emitDispatchPrologue(Ctx);
    Spec->emitLoopNest(Ctx);
  }

  void emitResumeBlocks(LoweringContext &Ctx) override {
    Spec->emitResumeBlocks(Ctx);
  }

  void emitFallbackTail(LoweringContext &Ctx) override {
    Spec->emitFallbackTail(Ctx);
    // RTM's tail already jumps to the halt, so this jmp is unreachable; it
    // stays so adaptive programs keep their layout.
    Ctx.B.jmp(Ctx.HaltL);

    Ctx.B.bind(TradEntry);
    if (Trad) {
      // Nest the complete traditional skeleton: own labels, own emitter,
      // own preheader and halt. Save the outer skeleton state around it;
      // the nested nest must not bump abort events.
      ProgramBuilder::Label SavedVecExit = Ctx.VecExit;
      ProgramBuilder::Label SavedHalt = Ctx.HaltL;
      codegen::VectorEmitter *SavedEm = Ctx.Em;
      uint64_t SavedCell = Ctx.DispatchCellAddr;
      Ctx.DispatchCellAddr = 0;
      TradNotes = emitSkeletonBody(Ctx, *Trad);
      Ctx.VecExit = SavedVecExit;
      Ctx.HaltL = SavedHalt;
      Ctx.Em = SavedEm;
      Ctx.DispatchCellAddr = SavedCell;
    } else {
      // Traditional declines FlexVec-shaped loops; the graceful floor is
      // the plain scalar loop, falling through into the outer halt.
      Ctx.B.movImm(codegen::inductionReg(), 0).Comment = "i = 0";
      codegen::emitScalarLoopBody(Ctx.B, Ctx.F, Ctx.trip(), Ctx.HaltL);
    }
  }

  std::string notes(const LoweringContext &Ctx) const override {
    std::string N = "adaptive dispatch: minTrip=" +
                    std::to_string(effectiveMinTrip(Ctx)) +
                    ", aliasPairs=" + std::to_string(GuardPairs) +
                    ", demote>=" +
                    std::to_string(dispatch::DemotePercent) +
                    "% over " + std::to_string(dispatch::Window) +
                    " invocations; speculative=[" + Spec->notes(Ctx) +
                    "]; demoted=[" +
                    (Trad ? TradNotes : std::string("scalar loop")) + "]";
    return N;
  }

private:
  /// A wide configuration raises the guard floor to one full vector of the
  /// narrowest lane width: below that, a chunk cannot even fill its lanes
  /// and the vector setup cost always dominates. At the 512-bit default
  /// this equals dispatch::MinTrip (16), so nothing changes.
  unsigned effectiveMinTrip(const LoweringContext &Ctx) const {
    return std::max(dispatch::MinTrip, Ctx.Vec.Bytes / 4);
  }

  /// The prologue reads and writes only r25..r29; r24 (i), r31 (break
  /// flag), and r0/r1 (strategy-reserved) stay untouched.
  void emitDispatchPrologue(LoweringContext &Ctx) {
    ProgramBuilder &B = Ctx.B;
    const Reg Cell = Reg::scalar(25);
    const Reg Zero = Reg::scalar(26);
    const Reg T0 = Reg::scalar(27);
    const Reg T1 = Reg::scalar(28);
    const Reg T2 = Reg::scalar(29);
    const auto Ld = [&](Reg D, int64_t Off) {
      B.load(D, ElemType::I64, Cell, Zero, 1, Off);
    };
    const auto St = [&](int64_t Off, Reg V) {
      B.store(ElemType::I64, Cell, Zero, 1, Off, V);
    };
    const auto Inc = [&](int64_t Off, const char *What) {
      Ld(T0, Off);
      B.binOpImm(Opcode::AddImm, T0, T0, 1).Comment = What;
      St(Off, T0);
    };

    B.movImm(Cell, static_cast<int64_t>(dispatch::CellAddr)).Comment =
        "dispatch cell base";
    B.movImm(Zero, 0);

    // Sticky demotion: once state != 0, never speculate again.
    Ld(T0, dispatch::StateOff);
    B.brNonZero(T0, TradEntry).Comment = "dispatch: demoted?";

    // Lag-1 reconcile: the previous invocation's fallback entries were
    // recorded after its prologue ran; charge them now.
    ProgramBuilder::Label NoNewAborts = B.createLabel();
    Ld(T0, dispatch::AbortEventsOff);
    Ld(T1, dispatch::PrevAbortEventsOff);
    B.cmp(T2, CmpKind::GT, T0, T1).Comment = "dispatch: new aborts?";
    B.brZero(T2, NoNewAborts);
    Ld(T2, dispatch::AbortedOff);
    B.binOpImm(Opcode::AddImm, T2, T2, 1).Comment =
        "dispatch: aborted_invocations++";
    St(dispatch::AbortedOff, T2);
    St(dispatch::PrevAbortEventsOff, T0);
    B.bind(NoNewAborts);

    // Demotion check: invocations >= window and
    // aborted * 100 >= invocations * percent.
    ProgramBuilder::Label GuardL = B.createLabel();
    Ld(T0, dispatch::InvocationsOff);
    B.cmpImm(T1, CmpKind::GE, T0, static_cast<int64_t>(dispatch::Window));
    B.brZero(T1, GuardL).Comment = "dispatch: window not reached";
    Ld(T1, dispatch::AbortedOff);
    B.binOpImm(Opcode::MulImm, T1, T1, 100);
    B.binOpImm(Opcode::MulImm, T0, T0,
               static_cast<int64_t>(dispatch::DemotePercent));
    B.cmp(T2, CmpKind::GE, T1, T0).Comment = "dispatch: abort rate at threshold?";
    B.brZero(T2, GuardL);
    B.movImm(T0, 1);
    St(dispatch::StateOff, T0);
    Inc(dispatch::DemotionsOff, "dispatch: demotions++");
    B.jmp(TradEntry);
    B.bind(GuardL);

    // Runtime guard. Failure routes this invocation to the demoted code
    // without touching the state machine.
    ProgramBuilder::Label GuardFailL = B.createLabel();
    ProgramBuilder::Label GuardPassL = B.createLabel();
    B.cmpImm(T0, CmpKind::LT, Ctx.trip(),
             static_cast<int64_t>(effectiveMinTrip(Ctx)));
    B.brNonZero(T0, GuardFailL).Comment = "guard: trip count too small";

    GuardPairs = 0;
    for (size_t A = 0; A < Bounds.size(); ++A) {
      for (size_t C = A + 1; C < Bounds.size(); ++C) {
        const ArrayBound &BA = Bounds[A];
        const ArrayBound &BC = Bounds[C];
        if (!BA.Accessed || !BC.Accessed || !(BA.Written || BC.Written) ||
            !BA.Boundable || !BC.Boundable)
          continue;
        ++GuardPairs;
        const Reg BaseA = codegen::arrayBaseReg(static_cast<int>(A));
        const Reg BaseC = codegen::arrayBaseReg(static_cast<int>(C));
        const auto extent = [&](Reg D, const ArrayBound &AB, const Reg Base,
                                const ArrayParam &P) {
          B.binOpImm(Opcode::AddImm, D, Ctx.trip(), AB.MaxOff);
          B.binOpImm(Opcode::MulImm, D, D,
                     static_cast<int64_t>(elemSize(P.Elem)));
          B.binOp(Opcode::Add, D, Base, D).Comment =
              "guard: end of " + P.Name;
        };
        extent(T0, BA, BaseA, Ctx.F.array(static_cast<int>(A)));
        extent(T1, BC, BaseC, Ctx.F.array(static_cast<int>(C)));
        // Overlap iff baseA < endC && baseC < endA.
        B.cmp(T2, CmpKind::LT, BaseA, T1);
        B.cmp(T1, CmpKind::LT, BaseC, T0);
        B.binOp(Opcode::And, T2, T2, T1).Comment = "guard: ranges overlap?";
        B.brNonZero(T2, GuardFailL);
      }
    }
    B.jmp(GuardPassL);

    B.bind(GuardFailL);
    Inc(dispatch::GuardFailOff, "dispatch: guard_fail++");
    B.jmp(TradEntry);

    B.bind(GuardPassL);
    Inc(dispatch::GuardPassOff, "dispatch: guard_pass++");
    Inc(dispatch::InvocationsOff, "dispatch: speculative invocations++");
    // Fall through into the speculative nest.
  }

  std::unique_ptr<LoweringStrategy> Spec;
  std::unique_ptr<LoweringStrategy> Trad; ///< Null: scalar floor instead.
  ProgramBuilder::Label TradEntry = 0;
  std::vector<ArrayBound> Bounds;
  std::string TradNotes;
  /// Emitted alias checks, counted during emission for notes().
  unsigned GuardPairs = 0;
};

} // namespace

std::vector<Remark> driver::dispatchRemarks(const DispatchCounts &C) {
  std::vector<Remark> Out;
  const auto add = [&](RemarkKind K, const char *Id, std::string Msg) {
    Remark R;
    R.Kind = K;
    R.Pass = "dispatch";
    R.Id = Id;
    R.Variant = "flexvec-adaptive";
    R.Message = std::move(Msg);
    Out.push_back(std::move(R));
  };
  if (C.GuardFail > 0)
    add(RemarkKind::Analysis, "dispatch.guard-failed",
        "runtime guard rejected " + std::to_string(C.GuardFail) +
            " invocation(s) (trip count or alias-range overlap); routed to "
            "the demoted variant without touching the state machine");
  if (C.State != 0)
    add(RemarkKind::Applied, "dispatch.demoted",
        "abort rate crossed the threshold after " +
            std::to_string(C.Invocations) + " speculative invocation(s) (" +
            std::to_string(C.AbortedInvocations) +
            " aborted); permanently re-dispatched to the demoted variant");
  else
    add(RemarkKind::Analysis, "dispatch.promoted-stay",
        "abort rate stayed below the threshold (" +
            std::to_string(C.AbortedInvocations) + "/" +
            std::to_string(C.Invocations) +
            " speculative invocation(s) aborted); staying speculative");
  return Out;
}

std::unique_ptr<LoweringStrategy> driver::newAdaptiveStrategy() {
  return std::make_unique<AdaptiveStrategy>();
}
