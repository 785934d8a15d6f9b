//===- driver/LoweringStrategy.cpp ----------------------------------------===//
//
// The four variant strategies and the shared Algorithm-1 skeleton. The
// emission order here is pinned byte-for-byte by tests/golden/*.golden and
// the pipeline-equivalence suite; any reordering is a codegen change and
// must be reviewed as one.
//
//===----------------------------------------------------------------------===//

#include "driver/LoweringStrategy.h"

#include "codegen/ScalarCodeGen.h"
#include "driver/AdaptiveStrategy.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace flexvec;
using namespace flexvec::driver;
using namespace flexvec::ir;
using namespace flexvec::isa;
using codegen::CodeGenKind;
using codegen::CompiledLoop;
using codegen::VectorEmitter;
using flexvec::analysis::VectorizationPlan;

// --- Skeleton helpers -----------------------------------------------------===//

void LoweringContext::emitLoopHead(Reg Bound, ProgramBuilder::Label ExitTo) {
  B.cmp(headTemp(), CmpKind::LT, codegen::inductionReg(), Bound);
  B.brZero(headTemp(), ExitTo);
}

ProgramBuilder::Label
LoweringContext::emitChunkLoop(Reg Bound, ProgramBuilder::Label ExitTo,
                               BreakCheck Break,
                               const std::function<void()> &AfterProlog,
                               const std::function<void()> &Body) {
  assert(Em && "chunk loop emitted outside the skeleton");
  ProgramBuilder::Label Top = B.createLabel();
  B.bind(Top);
  if (Predicated)
    Em->emitPredicatedHead(headTemp(), Bound, ExitTo);
  else
    emitLoopHead(Bound, ExitTo);
  Em->emitChunkProlog(Bound);
  if (AfterProlog)
    AfterProlog();
  if (Body)
    Body();
  else
    Em->emitBody();
  Em->emitChunkEpilog();
  if (Break.Enabled) {
    Instruction &I = B.brNonZero(Em->breakFlag(), Break.To);
    if (Break.Comment)
      I.Comment = Break.Comment;
  }
  B.jmp(Top);
  return Top;
}

namespace {

/// Tags a decline with the refusing variant so no refusal is silent.
void declineRemark(RemarkStream &Remarks, CodeGenKind Kind, std::string Id,
                   std::string Message) {
  Remarks.missed("lower", std::move(Id), std::move(Message)).Variant =
      codegen::variantName(Kind);
}

/// When lowering under the adaptive dispatcher, entering the RTM abort
/// handler marks one aborted speculative attempt: bump the dispatch cell's
/// abort-event word so the next invocation's prologue can charge it. The
/// call sits at the very top of the handler, before the scalar emitter's
/// scratch pool is live, so r25..r27 are free.
void bumpAbortEvents(LoweringContext &Ctx) {
  if (!Ctx.DispatchCellAddr)
    return;
  ProgramBuilder &B = Ctx.B;
  Reg Cell = Reg::scalar(25);
  Reg Zero = Reg::scalar(26);
  Reg Val = Reg::scalar(27);
  B.movImm(Cell, static_cast<int64_t>(Ctx.DispatchCellAddr)).Comment =
      "dispatch cell base";
  B.movImm(Zero, 0);
  B.load(Val, ElemType::I64, Cell, Zero, 1, dispatch::AbortEventsOff);
  B.binOpImm(Opcode::AddImm, Val, Val, 1).Comment =
      "dispatch: abort_events++";
  B.store(ElemType::I64, Cell, Zero, 1, dispatch::AbortEventsOff, Val);
}

// --- Traditional ----------------------------------------------------------===//

class TraditionalStrategy final : public LoweringStrategy {
public:
  CodeGenKind kind() const override { return CodeGenKind::Traditional; }

  bool prepare(LoweringContext &Ctx) override {
    if (Ctx.Plan.needsFlexVec()) {
      // Exactly the loops the baseline cannot vectorize.
      declineRemark(Ctx.Remarks, kind(), "decline.needs-flexvec",
                    "loop needs FlexVec mechanisms (early exit, conditional "
                    "update, or memory conflict); a traditional vectorizer "
                    "emits scalar code");
      return false;
    }
    return true;
  }

  VectorEmitter::Options
  emitterOptions(const LoweringContext &) const override {
    return {};
  }

  void emitLoopNest(LoweringContext &Ctx) override {
    Ctx.emitChunkLoop(Ctx.trip(), Ctx.VecExit);
  }

  std::string notes(const LoweringContext &Ctx) const override {
    return "traditional masked vectorization; " + Ctx.Em->notes();
  }
};

// --- FlexVec ---------------------------------------------------------------===//

class FlexVecStrategy final : public LoweringStrategy {
public:
  CodeGenKind kind() const override { return CodeGenKind::FlexVec; }

  bool prepare(LoweringContext &Ctx) override {
    HasSpec = !Ctx.Plan.SpeculativeLoadNodes.empty();
    if (HasSpec && !Ctx.Plan.Reductions.empty()) {
      // Declining is recoverable — the pipeline still has the scalar and
      // RTM variants; a process abort here would take the whole driver
      // down.
      declineRemark(Ctx.Remarks, kind(), "decline.reductions-with-speculative-loads",
                    "reductions combined with speculative loads are "
                    "unsupported (the scalar fallback cannot undo optimistic "
                    "accumulation)");
      return false;
    }
    ScalarEntry = Ctx.B.createLabel();
    return true;
  }

  VectorEmitter::Options
  emitterOptions(const LoweringContext &) const override {
    VectorEmitter::Options Opts;
    Opts.FaultBail = ScalarEntry;
    return Opts;
  }

  void emitLoopNest(LoweringContext &Ctx) override {
    LoweringContext::BreakCheck Break;
    Break.Enabled = !Ctx.Plan.EarlyExits.empty();
    Break.To = Ctx.VecExit;
    Break.Comment = "a lane broke: stop";
    Ctx.emitChunkLoop(Ctx.trip(), Ctx.VecExit, Break);
  }

  void emitFallbackTail(LoweringContext &Ctx) override {
    Ctx.B.jmp(Ctx.HaltL);
    // Scalar fallback: re-executes from the current chunk start with the
    // chunk-entry scalar state (no side effects have committed when a
    // first-faulting check bails).
    Ctx.B.bind(ScalarEntry);
    codegen::emitScalarLoopBody(Ctx.B, Ctx.F, Ctx.trip(), Ctx.HaltL);
  }

  std::string notes(const LoweringContext &Ctx) const override {
    return "FlexVec partial vector code; " + Ctx.Em->notes() +
           (HasSpec ? "; first-faulting loads with scalar fallback" : "");
  }

private:
  bool HasSpec = false;
  ProgramBuilder::Label ScalarEntry = 0;
};

// --- FlexVec over RTM -------------------------------------------------------===//

class RtmStrategy final : public LoweringStrategy {
public:
  CodeGenKind kind() const override { return CodeGenKind::FlexVecRtm; }

  bool prepare(LoweringContext &Ctx) override {
    Outer = Ctx.B.createLabel();
    AbortHandler = Ctx.B.createLabel();
    return true;
  }

  VectorEmitter::Options
  emitterOptions(const LoweringContext &) const override {
    return {}; // Plain loads: faults abort the transaction instead.
  }

  void emitLoopNest(LoweringContext &Ctx) override {
    ProgramBuilder &B = Ctx.B;
    ProgramBuilder::Label InnerDone = B.createLabel();
    bool HasBreak = !Ctx.Plan.EarlyExits.empty();

    B.bind(Outer);
    Ctx.emitLoopHead(Ctx.trip(), Ctx.VecExit);
    // tile_end = min(i + TILE, n); computed before XBEGIN so the abort path
    // sees the same bound after register rollback.
    B.binOpImm(Opcode::AddImm, TileEnd, codegen::inductionReg(),
               static_cast<int64_t>(Ctx.RtmTile));
    B.binOp(Opcode::Min, TileEnd, TileEnd, Ctx.trip()).Comment =
        "tile_end = min(i + tile, n)";
    B.xbegin(AbortHandler).Comment = "speculative tile begins";

    LoweringContext::BreakCheck Break;
    Break.Enabled = HasBreak;
    Break.To = InnerDone;
    Ctx.emitChunkLoop(TileEnd, InnerDone, Break);

    B.bind(InnerDone);
    // The last chunk's `i += VL` can overshoot a tile boundary that is not
    // a multiple of VL; the next tile must resume exactly at tile_end.
    B.mov(codegen::inductionReg(), TileEnd).Comment = "i = tile_end";
    B.xend().Comment = "tile commits";
    if (HasBreak)
      B.brNonZero(Ctx.Em->breakFlag(), Ctx.VecExit);
    B.jmp(Outer);
  }

  void emitResumeBlocks(LoweringContext &Ctx) override {
    // Abort handler: registers (including i and the scalar images) were
    // rolled back to the XBEGIN point and memory was restored; re-execute
    // the tile in scalar, then resume vector execution. The handler runs
    // outside any transaction, so the dispatch-cell bump survives.
    Ctx.B.bind(AbortHandler);
    bumpAbortEvents(Ctx);
    codegen::emitScalarLoopBody(Ctx.B, Ctx.F, TileEnd, Ctx.VecExit);
    Ctx.B.jmp(Outer);
  }

  void emitFallbackTail(LoweringContext &Ctx) override {
    Ctx.B.jmp(Ctx.HaltL);
  }

  std::string notes(const LoweringContext &Ctx) const override {
    return "FlexVec over RTM; tile=" + std::to_string(Ctx.RtmTile) + "; " +
           Ctx.Em->notes();
  }

private:
  ProgramBuilder::Label Outer = 0;
  ProgramBuilder::Label AbortHandler = 0;
  /// The tile bound must survive the scalar abort handler, whose expression
  /// scratch pool owns r25..r31; r0 is reserved for loop bounds.
  Reg TileEnd = Reg::scalar(0);
};

// --- Speculative (PACT'13-style) baseline ------------------------------------===//

class SpeculativeStrategy final : public LoweringStrategy {
public:
  CodeGenKind kind() const override { return CodeGenKind::Speculative; }

  bool prepare(LoweringContext &Ctx) override {
    const VectorizationPlan &Plan = Ctx.Plan;
    if (!Plan.needsFlexVec()) {
      declineRemark(Ctx.Remarks, kind(), "decline.nothing-to-speculate",
                    "loop has no relaxed dependence to speculate on; the "
                    "traditional variant already covers it");
      return false;
    }

    const std::vector<Stmt *> &Body = Ctx.F.body();

    // Reject when the check conditions need values defined at/after their
    // checkpoint, or when stores precede a checkpoint (the scalar chunk
    // would re-execute them non-idempotently).
    auto readsDefinedLater = [&](const Expr *E, int FromTop,
                                 const std::vector<int> &Allowed) {
      std::vector<bool> Later(Ctx.F.scalars().size(), false);
      std::vector<Stmt *> Tail(Body.begin() + FromTop, Body.end());
      collectAssignedScalars(Tail, Later);
      bool Reads = false;
      forEachExpr(E, [&](const Expr *R) {
        Reads |= R->Kind == ExprKind::ScalarRef && Later[R->ScalarId] &&
                 std::find(Allowed.begin(), Allowed.end(), R->ScalarId) ==
                     Allowed.end();
      });
      return Reads;
    };

    for (const auto &CU : Plan.CondUpdateVpls) {
      // The dependence condition is the outermost guard of the first
      // update.
      const Stmt *TopGuard = nullptr;
      for (int I = CU.FirstTop; I <= CU.LastTop; ++I)
        forEachStmt({Body[I]}, [&](const Stmt *S) {
          if (S->Id == CU.Updates[0].UpdateNode)
            TopGuard = Body[I];
        });
      if (!TopGuard || TopGuard->Kind != StmtKind::If) {
        declineRemark(Ctx.Remarks, kind(), "decline.guard-shape",
                      "conditional-update dependence guard is not a "
                      "top-level if; the up-front check cannot be hoisted");
        return false;
      }
      std::vector<int> Allowed;
      for (const auto &U : CU.Updates)
        Allowed.push_back(U.ScalarId);
      if (readsDefinedLater(TopGuard->Cond, CU.FirstTop, Allowed)) {
        declineRemark(Ctx.Remarks, kind(), "decline.guard-reads-later-defs",
                      "conditional-update guard reads scalars defined at or "
                      "after its checkpoint");
        return false;
      }
      Check C;
      C.Top = CU.FirstTop;
      C.Kind = Check::CondUpdate;
      C.CU = &CU;
      C.GuardCond = TopGuard->Cond;
      Checks.push_back(C);
    }
    for (const auto &MC : Plan.MemConflictVpls) {
      std::vector<int> Allowed;
      bool Later = readsDefinedLater(MC.StoreIndex, MC.FirstTop, Allowed);
      for (const Expr *L : MC.LoadIndices)
        Later = Later || readsDefinedLater(L, MC.FirstTop, Allowed);
      if (Later) {
        declineRemark(Ctx.Remarks, kind(), "decline.check-reads-later-defs",
                      "conflict-check subscripts read scalars defined at or "
                      "after their checkpoint");
        return false;
      }
      Check C;
      C.Top = MC.FirstTop;
      C.Kind = Check::Conflict;
      C.MC = &MC;
      Checks.push_back(C);
    }
    for (const auto &EE : Plan.EarlyExits) {
      if (EE.BreakInElse) {
        declineRemark(Ctx.Remarks, kind(), "decline.inverted-exit",
                      "inverted early-exit checks (break in the else "
                      "region) are unsupported");
        return false;
      }
      int Top = -1;
      for (size_t I = 0; I < Body.size(); ++I)
        if (Body[I]->Id == EE.GuardNode)
          Top = static_cast<int>(I);
      if (Top < 0) {
        declineRemark(Ctx.Remarks, kind(), "decline.nested-exit-guard",
                      "early-exit guard is nested below the top level; the "
                      "up-front check cannot be hoisted");
        return false;
      }
      const Stmt *Guard = Body[Top];
      std::vector<int> Allowed;
      if (readsDefinedLater(Guard->Cond, Top, Allowed)) {
        declineRemark(Ctx.Remarks, kind(), "decline.guard-reads-later-defs",
                      "early-exit guard reads scalars defined at or after "
                      "its checkpoint");
        return false;
      }
      Check C;
      C.Top = Top;
      C.Kind = Check::Exit;
      C.EE = &EE;
      C.GuardCond = Guard->Cond;
      C.Invert = EE.BreakInElse;
      Checks.push_back(C);
    }
    // Every statement emitted before the bail-out branch is re-executed by
    // the scalar chunk, so stores anywhere before the last checkpoint make
    // the fallback non-idempotent; reject those shapes.
    int LastCheck = 0;
    for (const Check &C : Checks)
      LastCheck = std::max(LastCheck, C.Top);
    bool StoreBeforeCheck = false;
    forEachStmt(std::vector<Stmt *>(Body.begin(), Body.begin() + LastCheck),
                [&](const Stmt *S) {
                  StoreBeforeCheck |= S->Kind == StmtKind::StoreArray;
                });
    if (StoreBeforeCheck) {
      declineRemark(Ctx.Remarks, kind(), "decline.store-before-checkpoint",
                    "stores before the last dependence checkpoint make "
                    "the scalar fallback non-idempotent");
      return false;
    }

    std::sort(Checks.begin(), Checks.end(),
              [](const Check &A, const Check &B2) { return A.Top < B2.Top; });
    ScalarChunk = Ctx.B.createLabel();
    return true;
  }

  VectorEmitter::Options
  emitterOptions(const LoweringContext &) const override {
    VectorEmitter::Options Opts;
    Opts.StraightlineOnly = true;
    return Opts;
  }

  void emitLoopNest(LoweringContext &Ctx) override {
    ProgramBuilder &B = Ctx.B;
    VectorEmitter &Em = *Ctx.Em;
    const std::vector<Stmt *> &Body = Ctx.F.body();

    LoopTop = Ctx.emitChunkLoop(
        Ctx.trip(), Ctx.VecExit, {},
        /*AfterProlog=*/[&] { B.movImm(DepFlag, 0); },
        /*Body=*/[&] {
          // Emit the body straightline, inserting checks at their
          // checkpoints; prefix statements between checkpoints keep the
          // generated code faithful to PACT'13.
          size_t NextStmt = 0;
          for (const Check &C : Checks) {
            while (NextStmt < Body.size() &&
                   static_cast<int>(NextStmt) < C.Top) {
              Em.emitStraightlineTopLevel(Body[NextStmt]);
              ++NextStmt;
            }
            switch (C.Kind) {
            case Check::CondUpdate:
            case Check::Exit:
              Em.emitSpecCondCheck(C.GuardCond, DepFlag);
              break;
            case Check::Conflict:
              Em.emitSpecConflictCheck(*C.MC, DepFlag);
              break;
            }
          }
          B.brNonZero(DepFlag, ScalarChunk).Comment =
              "dependence may fire: roll back to scalar for this chunk";
          while (NextStmt < Body.size()) {
            Em.emitStraightlineTopLevel(Body[NextStmt]);
            ++NextStmt;
          }
        });
  }

  void emitResumeBlocks(LoweringContext &Ctx) override {
    // Scalar chunk: VL iterations starting at i.
    ProgramBuilder &B = Ctx.B;
    B.bind(ScalarChunk);
    B.binOpImm(Opcode::AddImm, ChunkEnd, codegen::inductionReg(),
               static_cast<int64_t>(Ctx.Em->vl()));
    B.binOp(Opcode::Min, ChunkEnd, ChunkEnd, Ctx.trip());
    codegen::emitScalarLoopBody(B, Ctx.F, ChunkEnd, Ctx.VecExit);
    B.jmp(LoopTop);
  }

  void emitFallbackTail(LoweringContext &Ctx) override {
    Ctx.B.jmp(Ctx.HaltL);
  }

  std::string notes(const LoweringContext &Ctx) const override {
    return "PACT'13-style speculative vectorization: all-or-nothing "
           "chunks; " + Ctx.Em->notes();
  }

private:
  /// Checkpoints: (top-level index, kind).
  struct Check {
    int Top;
    enum { CondUpdate, Conflict, Exit } Kind;
    const analysis::CondUpdateVpl *CU = nullptr;
    const analysis::MemConflictVpl *MC = nullptr;
    const analysis::EarlyExitInfo *EE = nullptr;
    const Expr *GuardCond = nullptr;
    bool Invert = false;
  };
  std::vector<Check> Checks;
  ProgramBuilder::Label ScalarChunk = 0;
  ProgramBuilder::Label LoopTop = 0;
  /// r0/r1 are outside both the parameter map and the scalar scratch pool,
  /// so the chunk bound and the check flag survive the scalar fallback.
  Reg ChunkEnd = Reg::scalar(0);
  Reg DepFlag = Reg::scalar(1);
};

} // namespace

// --- The skeleton ----------------------------------------------------------===//

std::unique_ptr<LoweringStrategy> driver::createStrategy(CodeGenKind Kind) {
  switch (Kind) {
  case CodeGenKind::Traditional:
    return std::make_unique<TraditionalStrategy>();
  case CodeGenKind::Speculative:
    return std::make_unique<SpeculativeStrategy>();
  case CodeGenKind::FlexVec:
    return std::make_unique<FlexVecStrategy>();
  case CodeGenKind::FlexVecRtm:
    return std::make_unique<RtmStrategy>();
  case CodeGenKind::FlexVecAdaptive:
    return newAdaptiveStrategy();
  case CodeGenKind::Scalar:
    break; // Scalar codegen is not an Algorithm-1 strategy.
  }
  fatalError("no lowering strategy for this CodeGenKind");
}

std::string driver::emitSkeletonBody(LoweringContext &Ctx,
                                     LoweringStrategy &S) {
  Ctx.VecExit = Ctx.B.createLabel();
  Ctx.HaltL = Ctx.B.createLabel();
  VectorEmitter::Options Opts = S.emitterOptions(Ctx);
  Opts.VectorBytes = Ctx.Vec.Bytes;
  Opts.Predicated = Ctx.Predicated;
  VectorEmitter Em(Ctx.B, Ctx.F, Ctx.Plan, Opts);
  Ctx.Em = &Em;

  Em.emitPreheader();         // 1. broadcast invariants, init accumulators
  S.emitLoopNest(Ctx);        // 2. the chunked vector loop (strategy shape)
  S.emitResumeBlocks(Ctx);    // 3. fallbacks that re-enter the loop
  Ctx.B.bind(Ctx.VecExit);
  Em.emitLiveOuts();          // 4. reduce accumulators into live-outs
  S.emitFallbackTail(Ctx);    // 5. fallbacks that end at the halt
  Ctx.B.bind(Ctx.HaltL);
  Ctx.B.halt();               // 6. done

  if (Ctx.Unsupported.empty())
    Ctx.Unsupported = Em.whyUnsupported();
  // Notes must be composed while the emitter is still alive.
  return S.notes(Ctx);
}

std::optional<CompiledLoop>
driver::lowerLoop(const LoopFunction &F, const VectorizationPlan &Plan,
                  CodeGenKind Kind, unsigned RtmTile, RemarkStream &Remarks,
                  isa::VectorConfig Vec, bool Predicated,
                  std::string &Unsupported) {
  if (!Plan.Vectorizable) {
    declineRemark(Remarks, Kind, "decline.not-vectorizable",
                  "loop is not vectorizable: " + Plan.Reason);
    return std::nullopt;
  }
  std::unique_ptr<LoweringStrategy> S = createStrategy(Kind);
  LoweringContext Ctx(F, Plan, RtmTile, Remarks, Vec, Predicated);
  if (!S->prepare(Ctx))
    return std::nullopt; // The strategy has already remarked the decline.

  CompiledLoop Out;
  Out.Notes = emitSkeletonBody(Ctx, *S);
  Out.Kind = Kind;
  Out.Prog = Ctx.B.finalize();
  Unsupported = std::move(Ctx.Unsupported);
  return Out;
}
