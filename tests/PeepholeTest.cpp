//===- tests/PeepholeTest.cpp - Downstream optimizer tests -----------------===//
//
// The peephole passes must (a) actually transform the canonical shapes
// (loop-invariant rebroadcasts, block-local duplicates, dead writes) and
// (b) preserve semantics on every workload and on randomized loops.
//
//===----------------------------------------------------------------------===//

#include "codegen/Peephole.h"
#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "workloads/Benchmarks.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::isa;
using namespace flexvec::codegen;

TEST(Peephole, HoistsLoopInvariantBroadcast) {
  ProgramBuilder B;
  auto Header = B.createLabel();
  auto Exit = B.createLabel();
  B.movImm(Reg::scalar(1), 0);
  B.bind(Header);
  B.cmpImm(Reg::scalar(2), CmpKind::LT, Reg::scalar(1), 100);
  B.brZero(Reg::scalar(2), Exit);
  B.vbroadcastImm(Reg::vector(1), ElemType::I32, 7); // Invariant.
  B.vbinOp(Opcode::VAdd, ElemType::I32, Reg::vector(2), Reg::vector(2),
           Reg::vector(1));
  B.binOpImm(Opcode::AddImm, Reg::scalar(1), Reg::scalar(1), 1);
  B.jmp(Header);
  B.bind(Exit);
  B.movImm(Reg::scalar(3), 0);
  B.vreduce(Opcode::VReduceAdd, ElemType::I32, Reg::scalar(4), Reg::mask(0),
            Reg::vector(2), Reg::scalar(3));
  B.halt();
  Program P = B.finalize();

  PeepholeStats Stats;
  Program Opt = optimizeProgram(P, PeepholeOptions(), &Stats);
  EXPECT_GE(Stats.Hoisted, 1u);

  // Both versions must compute the same reduction.
  mem::Memory M1, M2;
  emu::Machine A(M1), C(M2);
  A.run(P);
  C.run(Opt);
  EXPECT_EQ(A.getScalar(4), C.getScalar(4));
  EXPECT_EQ(A.getScalar(4), 11200); // 16 lanes x 7 x 100 iterations.

  // The broadcast must now execute once, not 100 times.
  mem::Memory M3;
  emu::Machine D(M3);
  emu::ExecResult R = D.run(Opt);
  EXPECT_EQ(R.Stats.countOf(Opcode::VBroadcastImm), 1u);
}

TEST(Peephole, RemovesBlockLocalDuplicates) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 5);
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 3);
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 3); // Dup.
  B.binOp(Opcode::Add, Reg::scalar(3), Reg::scalar(2), Reg::scalar(2));
  B.halt();
  Program P = B.finalize();
  PeepholeStats Stats;
  Program Opt = optimizeProgram(P, PeepholeOptions(), &Stats);
  EXPECT_GE(Stats.CseRemoved, 1u);
  mem::Memory M;
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(Mach.getScalar(3), 16);
}

TEST(Peephole, CseRespectsClobberedInputs) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 5);
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 3); // 8
  B.movImm(Reg::scalar(1), 100);                                 // Clobber.
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 3); // 103!
  B.halt();
  Program Opt = optimizeProgram(B.finalize());
  mem::Memory M;
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(Mach.getScalar(2), 103);
}

TEST(Peephole, RemovesDeadWrites) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 1);
  B.movImm(Reg::scalar(5), 42); // Never read, not a live-out root.
  B.vbroadcastImm(Reg::vector(9), ElemType::I32, 3); // Never read.
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 1);
  B.halt();
  Program P = B.finalize();
  PeepholeStats Stats;
  PeepholeOptions Opts;
  Opts.AllScalarsLiveOut = false;
  Opts.LiveOutRegs = {Reg::scalar(2)};
  Program Opt = optimizeProgram(P, Opts, &Stats);
  EXPECT_GE(Stats.DeadRemoved, 2u);
  mem::Memory M;
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(Mach.getScalar(2), 2);
}

TEST(Peephole, StoresAndBranchesSurvive) {
  mem::Memory M;
  M.map(0x1000, 4096);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 9);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(2));
  B.halt();
  Program Opt = optimizeProgram(B.finalize());
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(M.get<int32_t>(0x1000), 9);
}

TEST(Peephole, OptimizedFlexVecMatchesReferenceOnAllBenchmarks) {
  std::vector<workloads::Benchmark> Benchmarks =
      workloads::buildAllBenchmarks(/*IterationScale=*/0.05);
  for (workloads::Benchmark &B : Benchmarks) {
    driver::CompileResult PR = driver::compileLoop(*B.F);
    ASSERT_TRUE(PR.FlexVecOpt.has_value()) << B.Name;
    Rng R(0x9E9 + std::hash<std::string>{}(B.Name));
    core::WorkloadInstance In = B.Gen(R);
    if (In.Invocations.size() > 12)
      In.Invocations.resize(12);
    core::RunOutcome Ref =
        core::runReferenceMulti(*B.F, In.Image, In.Invocations);
    core::RunOutcome Opt =
        core::runProgramMulti(*B.F, *PR.FlexVecOpt, In.Image, In.Invocations);
    EXPECT_TRUE(core::outcomesMatch(*B.F, Ref, Opt))
        << B.Name << " optimized program diverges ("
        << PR.OptStats.describe() << ")";
  }
}

TEST(Peephole, ActuallyOptimizesGeneratedCode) {
  auto F = workloads::buildH264Loop();
  driver::CompileResult PR = driver::compileLoop(*F);
  EXPECT_GT(PR.OptStats.total(), 0u)
      << "the generated partial vector code should contain hoistable "
         "rebroadcasts";
  EXPECT_LE(PR.FlexVecOpt->Prog.size(), PR.FlexVec->Prog.size());
}
