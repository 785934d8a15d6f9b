//===- tests/PipelineEquivalenceTest.cpp - Driver vs legacy generators ----===//
//
// Proves the pass-pipeline refactor is behavior-preserving: the four
// monolithic generators that predate the driver are frozen VERBATIM in
// namespace `legacy` below, and for every loop in examples/loops/ and
// tests/corpus/ (at two RTM tile sizes) the driver's emitted Programs,
// Kinds, and Notes must be byte-identical to theirs — including the
// peepholed FlexVec program.
//
// Do not "fix" or modernize the legacy copies: their only job is to stay
// exactly what shipped before src/driver existed. If codegen changes
// intentionally, this test is updated together with tests/golden/.
//
// The same sweep also runs the post-codegen verifier over every generated
// program (it must be clean) and checks that the verifier actually rejects
// malformed programs.
//
//===----------------------------------------------------------------------===//

#include "codegen/Peephole.h"
#include "codegen/ScalarCodeGen.h"
#include "codegen/VectorEmitter.h"
#include "core/Pipeline.h"
#include "driver/Verifier.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace flexvec;

// --- Frozen pre-driver generators (verbatim from codegen/Generators.cpp) ---

namespace legacy {

using namespace flexvec::codegen;
using namespace flexvec::ir;
using namespace flexvec::isa;
using flexvec::analysis::VectorizationPlan;

Reg tripReg(const LoopFunction &F) {
  return scalarParamReg(F.tripCountScalar());
}

/// Scalars read by \p E.
void scalarReadsOf(const Expr *E, std::vector<int> &Out) {
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstFloat:
  case ExprKind::IndexRef:
    return;
  case ExprKind::ScalarRef:
    Out.push_back(E->ScalarId);
    return;
  case ExprKind::ArrayRef:
    scalarReadsOf(E->Index, Out);
    return;
  case ExprKind::Binary:
  case ExprKind::Compare:
  case ExprKind::LogicalAnd:
    scalarReadsOf(E->Lhs, Out);
    scalarReadsOf(E->Rhs, Out);
    return;
  }
}

void assignedIn(const std::vector<Stmt *> &Stmts, std::vector<bool> &Set) {
  for (const Stmt *S : Stmts) {
    if (S->Kind == StmtKind::AssignScalar)
      Set[S->ScalarId] = true;
    if (S->Kind == StmtKind::If) {
      assignedIn(S->Then, Set);
      assignedIn(S->Else, Set);
    }
  }
}

bool containsStmt(const Stmt *Root, int Id) {
  if (Root->Id == Id)
    return true;
  if (Root->Kind != StmtKind::If)
    return false;
  for (const Stmt *C : Root->Then)
    if (containsStmt(C, Id))
      return true;
  for (const Stmt *C : Root->Else)
    if (containsStmt(C, Id))
      return true;
  return false;
}

bool hasStoreIn(const std::vector<Stmt *> &Stmts) {
  for (const Stmt *S : Stmts) {
    if (S->Kind == StmtKind::StoreArray)
      return true;
    if (S->Kind == StmtKind::If &&
        (hasStoreIn(S->Then) || hasStoreIn(S->Else)))
      return true;
  }
  return false;
}

std::optional<CompiledLoop>
generateTraditional(const LoopFunction &F, const VectorizationPlan &Plan) {
  if (!Plan.Vectorizable || Plan.needsFlexVec())
    return std::nullopt; // Exactly the loops the baseline cannot vectorize.

  CompiledLoop Out;
  Out.Kind = CodeGenKind::Traditional;
  ProgramBuilder B;
  VectorEmitter::Options Opts;
  Opts.UseFirstFaulting = false;
  VectorEmitter Em(B, F, Plan, Opts);

  ProgramBuilder::Label VecLoop = B.createLabel();
  ProgramBuilder::Label VecExit = B.createLabel();
  Reg T = Reg::scalar(25);

  Em.emitPreheader();
  B.bind(VecLoop);
  B.cmp(T, CmpKind::LT, inductionReg(), tripReg(F));
  B.brZero(T, VecExit);
  Em.emitChunkProlog(tripReg(F));
  Em.emitBody();
  Em.emitChunkEpilog();
  B.jmp(VecLoop);
  B.bind(VecExit);
  Em.emitLiveOuts();
  B.halt();

  Out.Prog = B.finalize();
  Out.Notes = "traditional masked vectorization; " + Em.notes();
  return Out;
}

std::optional<CompiledLoop>
generateFlexVec(const LoopFunction &F, const VectorizationPlan &Plan,
                std::string *WhyNot) {
  if (!Plan.Vectorizable) {
    if (WhyNot)
      *WhyNot = "loop is not vectorizable: " + Plan.Reason;
    return std::nullopt;
  }

  bool HasSpec = !Plan.SpeculativeLoadNodes.empty();
  if (HasSpec && !Plan.Reductions.empty()) {
    if (WhyNot)
      *WhyNot = "reductions combined with speculative loads are "
                "unsupported (the scalar fallback cannot undo optimistic "
                "accumulation)";
    return std::nullopt;
  }

  CompiledLoop Out;
  Out.Kind = CodeGenKind::FlexVec;
  ProgramBuilder B;
  ProgramBuilder::Label VecLoop = B.createLabel();
  ProgramBuilder::Label VecExit = B.createLabel();
  ProgramBuilder::Label HaltL = B.createLabel();
  ProgramBuilder::Label ScalarEntry = B.createLabel();

  VectorEmitter::Options Opts;
  Opts.UseFirstFaulting = true;
  Opts.HasFaultBail = HasSpec;
  Opts.FaultBail = ScalarEntry;
  VectorEmitter Em(B, F, Plan, Opts);
  Reg T = Reg::scalar(25);

  Em.emitPreheader();
  B.bind(VecLoop);
  B.cmp(T, CmpKind::LT, inductionReg(), tripReg(F));
  B.brZero(T, VecExit);
  Em.emitChunkProlog(tripReg(F));
  Em.emitBody();
  Em.emitChunkEpilog();
  if (!Plan.EarlyExits.empty())
    B.brNonZero(Em.breakFlag(), VecExit).Comment = "a lane broke: stop";
  B.jmp(VecLoop);

  B.bind(VecExit);
  Em.emitLiveOuts();
  B.jmp(HaltL);

  B.bind(ScalarEntry);
  emitScalarLoopBody(B, F, tripReg(F), HaltL);

  B.bind(HaltL);
  B.halt();

  Out.Prog = B.finalize();
  Out.Notes = "FlexVec partial vector code; " + Em.notes() +
              (HasSpec ? "; first-faulting loads with scalar fallback" : "");
  return Out;
}

std::optional<CompiledLoop>
generateFlexVecRtm(const LoopFunction &F, const VectorizationPlan &Plan,
                   unsigned TileIterations) {
  if (!Plan.Vectorizable)
    return std::nullopt;

  CompiledLoop Out;
  Out.Kind = CodeGenKind::FlexVecRtm;
  ProgramBuilder B;
  ProgramBuilder::Label Outer = B.createLabel();
  ProgramBuilder::Label InnerLoop = B.createLabel();
  ProgramBuilder::Label InnerDone = B.createLabel();
  ProgramBuilder::Label AbortHandler = B.createLabel();
  ProgramBuilder::Label VecExit = B.createLabel();
  ProgramBuilder::Label HaltL = B.createLabel();

  VectorEmitter::Options Opts;
  Opts.UseFirstFaulting = false;
  VectorEmitter Em(B, F, Plan, Opts);

  Reg T = Reg::scalar(25);
  Reg TileEnd = Reg::scalar(0);

  Em.emitPreheader();
  B.bind(Outer);
  B.cmp(T, CmpKind::LT, inductionReg(), tripReg(F));
  B.brZero(T, VecExit);
  B.binOpImm(Opcode::AddImm, TileEnd, inductionReg(),
             static_cast<int64_t>(TileIterations));
  B.binOp(Opcode::Min, TileEnd, TileEnd, tripReg(F)).Comment =
      "tile_end = min(i + tile, n)";
  B.xbegin(AbortHandler).Comment = "speculative tile begins";

  B.bind(InnerLoop);
  B.cmp(T, CmpKind::LT, inductionReg(), TileEnd);
  B.brZero(T, InnerDone);
  Em.emitChunkProlog(TileEnd);
  Em.emitBody();
  Em.emitChunkEpilog();
  if (!Plan.EarlyExits.empty())
    B.brNonZero(Em.breakFlag(), InnerDone);
  B.jmp(InnerLoop);

  B.bind(InnerDone);
  B.mov(inductionReg(), TileEnd).Comment = "i = tile_end";
  B.xend().Comment = "tile commits";
  if (!Plan.EarlyExits.empty())
    B.brNonZero(Em.breakFlag(), VecExit);
  B.jmp(Outer);

  B.bind(AbortHandler);
  emitScalarLoopBody(B, F, TileEnd, VecExit);
  B.jmp(Outer);

  B.bind(VecExit);
  Em.emitLiveOuts();
  B.jmp(HaltL);
  B.bind(HaltL);
  B.halt();

  Out.Prog = B.finalize();
  Out.Notes = "FlexVec over RTM; tile=" + std::to_string(TileIterations) +
              "; " + Em.notes();
  return Out;
}

std::optional<CompiledLoop>
generateSpeculative(const LoopFunction &F, const VectorizationPlan &Plan) {
  if (!Plan.Vectorizable)
    return std::nullopt;
  if (!Plan.needsFlexVec())
    return std::nullopt; // Same as traditional; nothing to speculate on.

  const std::vector<Stmt *> &Body = F.body();

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

  auto readsDefinedLater = [&](const Expr *E, int FromTop,
                               const std::vector<int> &Allowed) {
    std::vector<bool> Later(F.scalars().size(), false);
    std::vector<Stmt *> Tail(Body.begin() + FromTop, Body.end());
    assignedIn(Tail, Later);
    std::vector<int> Reads;
    scalarReadsOf(E, Reads);
    for (int S : Reads) {
      bool IsAllowed = false;
      for (int A : Allowed)
        IsAllowed |= A == S;
      if (Later[S] && !IsAllowed)
        return true;
    }
    return false;
  };

  for (const auto &CU : Plan.CondUpdateVpls) {
    const Stmt *TopGuard = nullptr;
    for (int I = CU.FirstTop; I <= CU.LastTop; ++I)
      if (containsStmt(Body[I], CU.Updates[0].UpdateNode))
        TopGuard = Body[I];
    if (!TopGuard || TopGuard->Kind != StmtKind::If)
      return std::nullopt;
    std::vector<int> Allowed;
    for (const auto &U : CU.Updates)
      Allowed.push_back(U.ScalarId);
    if (readsDefinedLater(TopGuard->Cond, CU.FirstTop, Allowed))
      return std::nullopt;
    Check C;
    C.Top = CU.FirstTop;
    C.Kind = Check::CondUpdate;
    C.CU = &CU;
    C.GuardCond = TopGuard->Cond;
    Checks.push_back(C);
  }
  for (const auto &MC : Plan.MemConflictVpls) {
    std::vector<int> Allowed;
    if (readsDefinedLater(MC.StoreIndex, MC.FirstTop, Allowed))
      return std::nullopt;
    for (const Expr *L : MC.LoadIndices)
      if (readsDefinedLater(L, MC.FirstTop, Allowed))
        return std::nullopt;
    Check C;
    C.Top = MC.FirstTop;
    C.Kind = Check::Conflict;
    C.MC = &MC;
    Checks.push_back(C);
  }
  for (const auto &EE : Plan.EarlyExits) {
    if (EE.BreakInElse)
      return std::nullopt; // Inverted exit checks are unsupported here.
    int Top = -1;
    for (size_t I = 0; I < Body.size(); ++I)
      if (Body[I]->Id == EE.GuardNode)
        Top = static_cast<int>(I);
    if (Top < 0)
      return std::nullopt; // Nested exit guard.
    const Stmt *Guard = Body[Top];
    std::vector<int> Allowed;
    if (readsDefinedLater(Guard->Cond, Top, Allowed))
      return std::nullopt;
    Check C;
    C.Top = Top;
    C.Kind = Check::Exit;
    C.EE = &EE;
    C.GuardCond = Guard->Cond;
    C.Invert = EE.BreakInElse;
    Checks.push_back(C);
  }
  int LastCheck = 0;
  for (const Check &C : Checks)
    LastCheck = std::max(LastCheck, C.Top);
  for (int I = 0; I < LastCheck; ++I)
    if (hasStoreIn({Body[static_cast<size_t>(I)]}))
      return std::nullopt;

  CompiledLoop Out;
  Out.Kind = CodeGenKind::Speculative;
  ProgramBuilder B;
  ProgramBuilder::Label VecLoop = B.createLabel();
  ProgramBuilder::Label VecExit = B.createLabel();
  ProgramBuilder::Label ScalarChunk = B.createLabel();
  ProgramBuilder::Label HaltL = B.createLabel();

  VectorEmitter::Options Opts;
  Opts.UseFirstFaulting = false;
  Opts.StraightlineOnly = true;
  VectorEmitter Em(B, F, Plan, Opts);

  Reg T = Reg::scalar(25);
  Reg ChunkEnd = Reg::scalar(0);
  Reg DepFlag = Reg::scalar(1);

  Em.emitPreheader();
  B.bind(VecLoop);
  B.cmp(T, CmpKind::LT, inductionReg(), tripReg(F));
  B.brZero(T, VecExit);
  Em.emitChunkProlog(tripReg(F));
  B.movImm(DepFlag, 0);

  std::sort(Checks.begin(), Checks.end(),
            [](const Check &A, const Check &B2) { return A.Top < B2.Top; });

  size_t NextStmt = 0;
  for (const Check &C : Checks) {
    while (NextStmt < Body.size() && static_cast<int>(NextStmt) < C.Top) {
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
  Em.emitChunkEpilog();
  B.jmp(VecLoop);

  B.bind(ScalarChunk);
  B.binOpImm(Opcode::AddImm, ChunkEnd, inductionReg(),
             static_cast<int64_t>(Em.vl()));
  B.binOp(Opcode::Min, ChunkEnd, ChunkEnd, tripReg(F));
  emitScalarLoopBody(B, F, ChunkEnd, VecExit);
  B.jmp(VecLoop);

  B.bind(VecExit);
  Em.emitLiveOuts();
  B.jmp(HaltL);
  B.bind(HaltL);
  B.halt();

  Out.Prog = B.finalize();
  Out.Notes = "PACT'13-style speculative vectorization: all-or-nothing "
              "chunks; " + Em.notes();
  return Out;
}

} // namespace legacy

// --- The equivalence sweep --------------------------------------------------

namespace {

std::string readFile(const std::string &Path, bool *Ok = nullptr) {
  std::ifstream In(Path);
  if (Ok)
    *Ok = In.good();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct LoopCase {
  const char *Dir;  ///< Relative to FLEXVEC_SOURCE_DIR.
  const char *Name; ///< Stem of the .fv file.
};

const LoopCase AllLoops[] = {
    {"examples/loops", "argmin"},
    {"examples/loops", "find_first"},
    {"examples/loops", "histogram"},
    {"tests/corpus", "argmin_key2"},
    {"tests/corpus", "exit_then_update"},
    {"tests/corpus", "find_sentinel"},
    {"tests/corpus", "histogram_weighted"},
    {"tests/corpus", "masked_else"},
    {"tests/corpus", "update_conflict"},
};

ir::ParseResult parseCase(const LoopCase &C) {
  std::string Path = std::string(FLEXVEC_SOURCE_DIR) + "/" + C.Dir + "/" +
                     C.Name + ".fv";
  bool Ok = false;
  std::string Source = readFile(Path, &Ok);
  EXPECT_TRUE(Ok) << "cannot read " << Path;
  return ir::parseLoop(Source);
}

void expectSameProgram(const char *What, const char *Loop,
                       const std::optional<codegen::CompiledLoop> &Legacy,
                       const std::optional<codegen::CompiledLoop> &Driver) {
  ASSERT_EQ(Legacy.has_value(), Driver.has_value())
      << Loop << " " << What << ": generated-ness differs";
  if (!Legacy)
    return;
  EXPECT_EQ(static_cast<int>(Legacy->Kind), static_cast<int>(Driver->Kind))
      << Loop << " " << What;
  EXPECT_EQ(Legacy->Notes, Driver->Notes) << Loop << " " << What;
  EXPECT_EQ(Legacy->Prog.disassemble(), Driver->Prog.disassemble())
      << Loop << " " << What << ": emitted program differs";
}

void expectVerifies(const char *What, const char *Loop,
                    const codegen::CompiledLoop &C) {
  std::vector<std::string> Errors = driver::verifyProgram(C.Prog);
  EXPECT_TRUE(Errors.empty())
      << Loop << " " << What << " failed verification: " << Errors.front();
}

void expectVerifies(const char *What, const char *Loop,
                    const std::optional<codegen::CompiledLoop> &C) {
  if (C)
    expectVerifies(What, Loop, *C);
}

class PipelineEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineEquivalence, DriverMatchesLegacyGenerators) {
  unsigned RtmTile = GetParam();
  for (const LoopCase &C : AllLoops) {
    ir::ParseResult P = parseCase(C);
    ASSERT_TRUE(P) << C.Name << ": " << P.Error;
    const ir::LoopFunction &F = *P.F;

    // Pinned to the 512-bit width: the frozen legacy generators emit at
    // the isa::VectorBytes constant, so a FLEXVEC_VL override would
    // compare programs built for different widths.
    driver::DriverOptions DOpts;
    DOpts.RtmTile = RtmTile;
    DOpts.Vec = isa::VectorConfig();
    core::PipelineResult PR = driver::compileLoop(F, DOpts);

    // Legacy path: analysis exactly as the old core/Pipeline.cpp ran it.
    pdg::Pdg G(F);
    analysis::VectorizationPlan Plan = analysis::analyzeLoop(G);

    auto Traditional = legacy::generateTraditional(F, Plan);
    auto Speculative = legacy::generateSpeculative(F, Plan);
    std::string WhyNot;
    auto FlexVec = legacy::generateFlexVec(F, Plan, &WhyNot);
    auto Rtm = legacy::generateFlexVecRtm(F, Plan, RtmTile);

    expectSameProgram("traditional", C.Name, Traditional, PR.Traditional);
    expectSameProgram("speculative", C.Name, Speculative, PR.Speculative);
    expectSameProgram("flexvec", C.Name, FlexVec, PR.FlexVec);
    expectSameProgram("flexvec-rtm", C.Name, Rtm, PR.Rtm);

    // The FlexVec decline reason survives as the variant's missed remark.
    if (!FlexVec && !WhyNot.empty()) {
      const driver::Remark *Decline = PR.Remarks.lastMissed("flexvec");
      ASSERT_NE(Decline, nullptr) << C.Name;
      EXPECT_EQ(Decline->Message, WhyNot) << C.Name;
    }

    // Peepholed FlexVec matches optimizing the legacy program.
    ASSERT_EQ(FlexVec.has_value(), PR.FlexVecOpt.has_value()) << C.Name;
    if (FlexVec) {
      codegen::PeepholeStats Stats;
      isa::Program Opt = codegen::optimizeProgram(
          FlexVec->Prog, codegen::PeepholeOptions(), &Stats);
      EXPECT_EQ(Opt.disassemble(), PR.FlexVecOpt->Prog.disassemble())
          << C.Name << " flexvec-opt";
      EXPECT_EQ(FlexVec->Notes + "; peephole: " + Stats.describe(),
                PR.FlexVecOpt->Notes)
          << C.Name;
    }

    // Every program the driver emits passes the structural verifier.
    expectVerifies("scalar", C.Name, PR.Scalar);
    expectVerifies("traditional", C.Name, PR.Traditional);
    expectVerifies("speculative", C.Name, PR.Speculative);
    expectVerifies("flexvec", C.Name, PR.FlexVec);
    expectVerifies("flexvec-rtm", C.Name, PR.Rtm);
    expectVerifies("flexvec-opt", C.Name, PR.FlexVecOpt);

    // No refusal is silent: every variant the driver did not generate has
    // a missed `lower` remark naming the strategy.
    struct {
      const char *Variant;
      bool Generated;
    } Variants[] = {{"traditional", PR.Traditional.has_value()},
                    {"speculative", PR.Speculative.has_value()},
                    {"flexvec", PR.FlexVec.has_value()},
                    {"flexvec-rtm", PR.Rtm.has_value()}};
    for (const auto &V : Variants) {
      bool Found = false;
      for (const driver::Remark &R : PR.Remarks.remarks()) {
        if (R.Pass != "lower" || R.Variant != V.Variant)
          continue;
        if (V.Generated && R.Kind == driver::RemarkKind::Applied)
          Found = true;
        if (!V.Generated && R.Kind == driver::RemarkKind::Missed)
          Found = true;
      }
      EXPECT_TRUE(Found) << C.Name << ": variant " << V.Variant
                         << (V.Generated ? " has no applied remark"
                                         : " declined silently");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RtmTiles, PipelineEquivalence,
                         ::testing::Values(64u, 192u));

TEST(ProgramVerifier, RejectsMalformedPrograms) {
  // Branch out of range.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::Jmp;
    I.Target = 5;
    isa::Program P({I});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // Mask-producing op writing hard-wired k0.
  {
    isa::ProgramBuilder B;
    B.kset(isa::Reg::mask(0), 0xff);
    B.halt();
    EXPECT_FALSE(driver::verifyProgram(B.finalize()).empty());
  }
  // Wrong operand class: vector op reading a scalar register.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::VAdd;
    I.Dst = isa::Reg::vector(16);
    I.Src1 = isa::Reg::scalar(3);
    I.Src2 = isa::Reg::vector(17);
    isa::Instruction H;
    H.Op = isa::Opcode::Halt;
    isa::Program P({I, H});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // First-faulting load with the hard-wired mask as its in/out operand.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::VMovFF;
    I.Dst = isa::Reg::vector(16);
    I.Src1 = isa::Reg::scalar(14);
    I.MaskReg = isa::Reg::mask(0);
    isa::Instruction H;
    H.Op = isa::Opcode::Halt;
    isa::Program P({I, H});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // Program that can fall off the end.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::MovImm;
    I.Dst = isa::Reg::scalar(2);
    isa::Program P({I});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // A minimal well-formed program is clean.
  {
    isa::ProgramBuilder B;
    B.movImm(isa::Reg::scalar(2), 7);
    B.halt();
    EXPECT_TRUE(driver::verifyProgram(B.finalize()).empty());
  }
}

} // namespace
