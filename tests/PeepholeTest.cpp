//===- tests/PeepholeTest.cpp - Downstream optimizer tests -----------------===//
//
// The peephole passes must (a) actually transform the canonical shapes
// (loop-invariant rebroadcasts, block-local duplicates, dead writes) and
// (b) preserve semantics on every workload and on generated loops. The
// compiler pipeline does not run them, so these tests are the only
// differential coverage the optimized program gets.
//
//===----------------------------------------------------------------------===//

#include "codegen/Peephole.h"
#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "driver/Verifier.h"
#include "gen/Differential.h"
#include "ir/Parser.h"
#include "support/Hash.h"
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
  Program Opt = optimizeProgram(P, &Stats);
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
  Program Opt = optimizeProgram(P, &Stats);
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

// x = x * y twice is two multiplications: the first one overwrote its
// own source, so the second is not a duplicate.
TEST(Peephole, CseKeepsRepeatedSelfUpdate) {
  ProgramBuilder B;
  B.vbroadcastImm(Reg::vector(20), ElemType::I32, 2);
  B.vbroadcastImm(Reg::vector(16), ElemType::I32, 3);
  B.vbinOp(Opcode::VMul, ElemType::I32, Reg::vector(20), Reg::vector(20),
           Reg::vector(16));
  B.vbinOp(Opcode::VMul, ElemType::I32, Reg::vector(20), Reg::vector(20),
           Reg::vector(16));
  B.movImm(Reg::scalar(3), 0);
  B.vreduce(Opcode::VReduceAdd, ElemType::I32, Reg::scalar(4), Reg::mask(0),
            Reg::vector(20), Reg::scalar(3));
  B.halt();
  Program P = B.finalize();
  PeepholeStats Stats;
  Program Opt = optimizeProgram(P, &Stats);
  EXPECT_EQ(Stats.CseRemoved, 0u);
  mem::Memory M;
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(Mach.getScalar(4), 16 * 18); // 16 lanes of 2 * 3 * 3.
}

TEST(Peephole, RemovesDeadWrites) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 1);
  B.movImm(Reg::scalar(5), 42); // Never read, but scalars are live-out.
  B.vbroadcastImm(Reg::vector(9), ElemType::I32, 3); // Never read.
  B.kset(Reg::mask(3), 0xF);                          // Never read.
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(1), 1);
  B.halt();
  Program P = B.finalize();
  PeepholeStats Stats;
  Program Opt = optimizeProgram(P, &Stats);
  // Exactly the dead vector and mask writes go; every scalar write stays.
  EXPECT_EQ(Stats.DeadRemoved, 2u);
  EXPECT_EQ(Opt.size(), P.size() - 2);
  for (const Instruction &I : Opt.instructions())
    EXPECT_TRUE(I.Dst.Class != RegClass::Vector &&
                I.Dst.Class != RegClass::Mask)
        << "dead vector/mask write survived";
  mem::Memory M;
  emu::Machine Mach(M);
  Mach.run(Opt);
  EXPECT_EQ(Mach.getScalar(2), 2);
  EXPECT_EQ(Mach.getScalar(5), 42);
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
    ASSERT_TRUE(PR.FlexVec.has_value()) << B.Name;
    PeepholeStats Stats;
    CompiledLoop Opt = optimizeLoop(*PR.FlexVec, &Stats);
    Rng R(0x9E9 + std::hash<std::string>{}(B.Name));
    core::WorkloadInstance In = B.Gen(R);
    if (In.Invocations.size() > 12)
      In.Invocations.resize(12);
    core::RunOutcome Ref =
        core::runReferenceMulti(*B.F, In.Image, In.Invocations);
    core::RunOutcome Out =
        core::runProgramMulti(*B.F, Opt, In.Image, In.Invocations);
    EXPECT_TRUE(core::outcomesMatch(*B.F, Ref, Out))
        << B.Name << " optimized program diverges (" << Stats.describe()
        << ")";
  }
}

// Generated loops through the optimized FlexVec program: the structural
// verifier, then checkLoop's two input rounds against the reference.
TEST(Peephole, OptimizedFlexVecMatchesReferenceOnGeneratedLoops) {
  struct Envelope {
    const char *Name;
    gen::Envelope E;
    /// Loops a CSE miscompile (x = x op y taken for a duplicate) broke.
    std::vector<uint64_t> Pinned;
  };
  const Envelope Envelopes[] = {
      {"classic", gen::Envelope::classic(), {777505, 778183, 778422}},
      {"widened",
       gen::Envelope::widened(),
       {777450, 777505, 777599, 777665, 778183, 778338}},
  };
  const gen::CheckOptions CO;
  for (const Envelope &Env : Envelopes) {
    std::vector<uint64_t> Seeds = Env.Pinned;
    size_t Checked = 0;
    for (uint64_t I = 0; I < 300; ++I)
      Seeds.push_back(deriveStreamSeed(0x9E9, I));
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(std::string(Env.Name) + " seed " + std::to_string(Seed));
      gen::GeneratedLoop G = gen::generateLoop(Seed, Env.E);
      driver::CompileResult PR =
          driver::compileLoop(*G.F, {.RtmTile = CO.RtmTile});
      if (!PR.FlexVec)
        continue;
      ++Checked;
      PeepholeStats Stats;
      CompiledLoop Opt = optimizeLoop(*PR.FlexVec, &Stats);
      std::vector<std::string> Errors = driver::verifyProgram(Opt.Prog);
      ASSERT_TRUE(Errors.empty()) << Errors.front();
      for (int Round = 0; Round < CO.Rounds; ++Round) {
        mem::Memory M;
        ir::Bindings B;
        gen::buildRoundInputs(*G.F, Seed, static_cast<uint64_t>(Round), CO,
                              M, B);
        core::RunOutcome Ref = core::runReferenceMulti(*G.F, M, {B});
        core::RunOutcome Out = core::runProgramMulti(*G.F, Opt, M, {B});
        ASSERT_TRUE(Out.Ok) << Out.Error;
        EXPECT_TRUE(core::outcomesMatch(*G.F, Ref, Out))
            << "round " << Round << " diverges (" << Stats.describe()
            << ")\n"
            << ir::printLoopDsl(*G.F);
      }
    }
    EXPECT_GE(Checked, 300u) << Env.Name;
  }
}

TEST(Peephole, ActuallyOptimizesGeneratedCode) {
  auto F = workloads::buildH264Loop();
  driver::CompileResult PR = driver::compileLoop(*F);
  PeepholeStats Stats;
  CompiledLoop Opt = optimizeLoop(*PR.FlexVec, &Stats);
  EXPECT_GT(Stats.total(), 0u)
      << "the generated partial vector code should contain hoistable "
         "rebroadcasts";
  EXPECT_LE(Opt.Prog.size(), PR.FlexVec->Prog.size());
  EXPECT_EQ(Opt.Notes, PR.FlexVec->Notes + "; peephole: " + Stats.describe());
}
