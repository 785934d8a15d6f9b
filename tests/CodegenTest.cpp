//===- tests/CodegenTest.cpp - Code generator unit tests -------------------===//
//
// Generator-level checks that the end-to-end suites do not cover:
// traditional vectorization of legal loops (reductions, if-conversion),
// 64-bit lanes (VL = 8), disassembly round-trips of the structural
// markers, and the calling convention.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::ir;
using isa::CmpKind;
using isa::ElemType;
using isa::Opcode;

namespace {

/// Builds:  for i < n: if (a[i] > t) s = s + a[i]*2;   (guarded sum).
std::unique_ptr<LoopFunction> buildGuardedSum(ElemType Ty) {
  auto F = std::make_unique<LoopFunction>("guarded_sum");
  int N = F->addScalar("n", ElemType::I64);
  int S = F->addScalar("s", Ty, /*IsLiveOut=*/true);
  int T = F->addScalar("t", Ty);
  int A = F->addArray("a", Ty, true);
  F->setTripCountScalar(N);
  Stmt *Guard = F->makeIfShell(
      F->compare(CmpKind::GT, F->arrayRef(A, F->indexRef()),
                 F->scalarRef(T)));
  const Expr *Two = isFloatType(Ty) ? F->constFloat(Ty, 2.0)
                                    : F->constInt(Ty, 2);
  F->addThen(Guard,
             F->assignScalar(
                 S, F->binary(BinOp::Add, F->scalarRef(S),
                              F->binary(BinOp::Mul,
                                        F->arrayRef(A, F->indexRef()), Two))));
  F->setBody({Guard});
  return F;
}

} // namespace

TEST(Codegen, TraditionalVectorizesGuardedSum) {
  auto F = buildGuardedSum(ElemType::I32);
  driver::CompileResult PR = driver::compileLoop(*F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  EXPECT_FALSE(PR.Plan.needsFlexVec());
  ASSERT_TRUE(PR.Traditional.has_value());
  EXPECT_TRUE(PR.Traditional->Prog.usesOpcode(Opcode::VReduceAdd));
  EXPECT_FALSE(PR.Traditional->Prog.usesOpcode(Opcode::KFtmInc));

  // Correctness over random inputs.
  Rng R(11);
  for (int Case = 0; Case < 20; ++Case) {
    int64_t N = 1 + static_cast<int64_t>(R.nextBelow(300));
    mem::Memory M;
    mem::BumpAllocator Alloc(M);
    std::vector<int32_t> Data(static_cast<size_t>(N));
    for (auto &V : Data)
      V = static_cast<int32_t>(R.nextInRange(-100, 100));
    Bindings B = Bindings::forFunction(*F);
    B.ArrayBases[0] = Alloc.allocArray(Data);
    B.setInt(0, N);
    B.setInt(1, 7);  // s initial
    B.setInt(2, 10); // threshold
    core::RunOutcome Ref = core::runReferenceMulti(*F, M, {B});
    core::RunOutcome Trad = core::runProgramMulti(*F, *PR.Traditional, M, {B});
    core::RunOutcome Scal = core::runProgramMulti(*F, PR.Scalar, M, {B});
    ASSERT_TRUE(core::outcomesMatch(*F, Ref, Trad)) << "case " << Case;
    ASSERT_TRUE(core::outcomesMatch(*F, Ref, Scal)) << "case " << Case;
  }
}

TEST(Codegen, WideLanes64BitConflictLoop) {
  // A 64-bit-element conflict loop exercises VL = 8 lane configuration.
  LoopFunction F("conflict64");
  int N = F.addScalar("n", ElemType::I64);
  int J = F.addScalar("j", ElemType::I64);
  int Idx = F.addArray("idx", ElemType::I64, true);
  int D = F.addArray("d", ElemType::I64);
  F.setTripCountScalar(N);
  std::vector<Stmt *> Body;
  Body.push_back(F.assignScalar(J, F.arrayRef(Idx, F.indexRef())));
  const Expr *JRef = F.scalarRef(J);
  Body.push_back(F.storeArray(
      D, JRef,
      F.binary(BinOp::Add, F.arrayRef(D, JRef), F.constInt(ElemType::I64, 1))));
  F.setBody(Body);

  driver::CompileResult PR = driver::compileLoop(F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.MemConflictVpls.size(), 1u);
  ASSERT_TRUE(PR.FlexVec.has_value());
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(Opcode::VConflictM));

  Rng R(13);
  for (int Case = 0; Case < 10; ++Case) {
    int64_t Trip = 1 + static_cast<int64_t>(R.nextBelow(200));
    mem::Memory M;
    mem::BumpAllocator Alloc(M);
    std::vector<int64_t> IdxData(static_cast<size_t>(Trip));
    for (auto &V : IdxData)
      V = static_cast<int64_t>(R.nextBelow(32)); // Dense: many conflicts.
    std::vector<int64_t> DData(32, 0);
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = Alloc.allocArray(IdxData);
    B.ArrayBases[1] = Alloc.allocArray(DData);
    B.setInt(0, Trip);
    core::RunOutcome Ref = core::runReferenceMulti(F, M, {B});
    core::RunOutcome Flex = core::runProgramMulti(F, *PR.FlexVec, M, {B});
    ASSERT_TRUE(core::outcomesMatch(F, Ref, Flex)) << "case " << Case;
    core::RunOutcome Rtm = core::runProgramMulti(F, *PR.Rtm, M, {B});
    ASSERT_TRUE(core::outcomesMatch(F, Ref, Rtm)) << "case " << Case;
  }
}

TEST(Codegen, WideLanes64BitArgmin) {
  LoopFunction F("argmin64");
  int N = F.addScalar("n", ElemType::I64);
  int Best = F.addScalar("best", ElemType::I64, /*IsLiveOut=*/true);
  int BestIdx = F.addScalar("best_idx", ElemType::I64, /*IsLiveOut=*/true);
  int A = F.addArray("a", ElemType::I64, true);
  F.setTripCountScalar(N);
  Stmt *Guard = F.makeIfShell(F.compare(
      CmpKind::LT, F.arrayRef(A, F.indexRef()), F.scalarRef(Best)));
  F.addThen(Guard, F.assignScalar(Best, F.arrayRef(A, F.indexRef())));
  F.addThen(Guard, F.assignScalar(BestIdx, F.indexRef()));
  F.setBody({Guard});

  driver::CompileResult PR = driver::compileLoop(F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.CondUpdateVpls.size(), 1u);

  Rng R(17);
  for (int Case = 0; Case < 10; ++Case) {
    int64_t Trip = 1 + static_cast<int64_t>(R.nextBelow(200));
    mem::Memory M;
    mem::BumpAllocator Alloc(M);
    std::vector<int64_t> Data(static_cast<size_t>(Trip));
    for (auto &V : Data)
      V = R.nextInRange(-1000000, 1000000);
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = Alloc.allocArray(Data);
    B.setInt(0, Trip);
    B.setInt(1, 1 << 30);
    B.setInt(2, -1);
    core::RunOutcome Ref = core::runReferenceMulti(F, M, {B});
    core::RunOutcome Flex = core::runProgramMulti(F, *PR.FlexVec, M, {B});
    ASSERT_TRUE(core::outcomesMatch(F, Ref, Flex)) << "case " << Case;
  }
}

TEST(Codegen, DisassemblyCarriesStatementComments) {
  auto F = workloads::buildConflictLoop();
  driver::CompileResult PR = driver::compileLoop(*F);
  std::string Asm = PR.FlexVec->Prog.disassemble();
  EXPECT_NE(Asm.find("k_todo"), std::string::npos);
  EXPECT_NE(Asm.find("k_safe"), std::string::npos);
  EXPECT_NE(Asm.find("d_arr[coord] = s"), std::string::npos);
  std::string ScalarAsm = PR.Scalar.Prog.disassemble();
  EXPECT_NE(ScalarAsm.find("scalar loop header"), std::string::npos);
}

TEST(Codegen, EmptyTripCountRunsZeroIterations) {
  auto F = workloads::buildH264Loop();
  driver::CompileResult PR = driver::compileLoop(*F);
  Rng R(3);
  workloads::LoopInputs In = workloads::genH264Inputs(*F, R, 16, 0.1);
  In.B.setInt(0, 0); // max_pos = 0.
  core::RunOutcome Ref = core::runReferenceMulti(*F, In.Image, {In.B});
  for (const codegen::CompiledLoop *CL :
       {&PR.Scalar, &*PR.FlexVec, &*PR.Rtm}) {
    core::RunOutcome Out = core::runProgramMulti(*F, *CL, In.Image, {In.B});
    EXPECT_TRUE(core::outcomesMatch(*F, Ref, Out));
  }
}

TEST(Codegen, TripCountBelowOneVector) {
  // Partial first (and only) chunk: tail masking must handle trip < VL.
  auto F = workloads::buildConflictLoop();
  driver::CompileResult PR = driver::compileLoop(*F);
  for (int64_t Trip : {1, 2, 7, 15, 16, 17}) {
    Rng R(static_cast<uint64_t>(Trip));
    workloads::LoopInputs In =
        workloads::genConflictInputs(*F, R, Trip, 0.5, 64);
    core::RunOutcome Ref = core::runReferenceMulti(*F, In.Image, {In.B});
    core::RunOutcome Flex =
        core::runProgramMulti(*F, *PR.FlexVec, In.Image, {In.B});
    EXPECT_TRUE(core::outcomesMatch(*F, Ref, Flex)) << "trip " << Trip;
  }
}

TEST(Codegen, SpeculativeGeneratorDeclinesUnsupportedShapes) {
  // The Figure 2 conflict loop computes its indices from loads *before*
  // the conflict region; the speculative baseline supports it. A loop
  // whose exit guard is nested is declined.
  auto F = workloads::buildConflictLoop();
  driver::CompileResult PR = driver::compileLoop(*F);
  EXPECT_TRUE(PR.Speculative.has_value());
}

TEST(Codegen, NotesDescribeTheBuild) {
  auto F = workloads::buildH264Loop();
  // "VL=16" is the default 512-bit width's 4-byte-lane count.
  driver::CompileResult PR = driver::compileLoop(*F, {.RtmTile = 256});
  EXPECT_NE(PR.FlexVec->Notes.find("VL=16"), std::string::npos);
  EXPECT_NE(PR.Rtm->Notes.find("tile=256"), std::string::npos);
  EXPECT_EQ(PR.FlexVec->Kind, codegen::CodeGenKind::FlexVec);
  EXPECT_EQ(PR.Rtm->Kind, codegen::CodeGenKind::FlexVecRtm);
}
