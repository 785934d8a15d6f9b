//===- tests/BenchmarksTest.cpp - The 18 evaluation kernels ----------------===//
//
// For every Table 2 benchmark: the plan must need FlexVec, the generated
// FlexVec program must use exactly the paper's instruction-mix classes,
// the profiler-driven cost model must accept the loop, and (at reduced
// scale) the FlexVec and RTM programs must match the reference
// interpreter across all invocations.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "profile/LoopProfiler.h"
#include "workloads/Benchmarks.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::workloads;

namespace {

std::vector<Benchmark> &benchmarks() {
  static std::vector<Benchmark> B = buildAllBenchmarks(/*IterationScale=*/0.1);
  return B;
}

class BenchmarkSuite : public ::testing::TestWithParam<int> {};

} // namespace

TEST(Benchmarks, HasElevenSpecAndSevenApps) {
  int Spec = 0, Apps = 0;
  for (const Benchmark &B : benchmarks())
    (B.Group == "SPEC" ? Spec : Apps) += 1;
  EXPECT_EQ(Spec, 11);
  EXPECT_EQ(Apps, 7);
}

TEST_P(BenchmarkSuite, PlanAndInstructionMixMatchTable2) {
  Benchmark &B = benchmarks()[static_cast<size_t>(GetParam())];
  driver::CompileResult PR = driver::compileLoop(*B.F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << B.Name << ": " << PR.Plan.Reason;
  EXPECT_TRUE(PR.Plan.needsFlexVec()) << B.Name;
  EXPECT_FALSE(PR.Traditional.has_value())
      << B.Name << ": the baseline must not vectorize a FlexVec candidate";
  ASSERT_TRUE(PR.FlexVec.has_value()) << B.Name;

  const isa::Program &P = PR.FlexVec->Prog;
  bool UsesKftm =
      P.usesOpcode(isa::Opcode::KFtmExc) || P.usesOpcode(isa::Opcode::KFtmInc);
  bool UsesSlct = P.usesOpcode(isa::Opcode::VSlctLast);
  bool UsesConflict = P.usesOpcode(isa::Opcode::VConflictM);
  bool UsesFF = P.usesOpcode(isa::Opcode::VGatherFF) ||
                P.usesOpcode(isa::Opcode::VMovFF);

  EXPECT_TRUE(UsesKftm) << B.Name << ": every row of Table 2 lists KFTM";
  EXPECT_EQ(UsesSlct, B.PaperMix.find("VPSLCTLAST") != std::string::npos)
      << B.Name;
  EXPECT_EQ(UsesConflict, B.PaperMix.find("VPCONFLICTM") != std::string::npos)
      << B.Name;
  EXPECT_EQ(UsesFF, B.PaperMix.find("VPGATHERFF") != std::string::npos)
      << B.Name;
}

TEST_P(BenchmarkSuite, FlexVecAndRtmMatchReference) {
  Benchmark &B = benchmarks()[static_cast<size_t>(GetParam())];
  driver::CompileResult PR = driver::compileLoop(*B.F, {.RtmTile = 96});
  Rng R(42 + static_cast<uint64_t>(GetParam()));
  core::WorkloadInstance In = B.Gen(R);
  // Keep test time bounded.
  if (In.Invocations.size() > 40)
    In.Invocations.resize(40);

  core::RunOutcome Ref = core::runReferenceMulti(*B.F, In.Image,
                                                 In.Invocations);
  core::RunOutcome Scalar = core::runProgramMulti(*B.F, PR.Scalar, In.Image,
                                                  In.Invocations);
  EXPECT_TRUE(core::outcomesMatch(*B.F, Ref, Scalar)) << B.Name << " scalar";
  core::RunOutcome Flex = core::runProgramMulti(*B.F, *PR.FlexVec, In.Image,
                                                In.Invocations);
  EXPECT_TRUE(core::outcomesMatch(*B.F, Ref, Flex)) << B.Name << " flexvec";
  ASSERT_TRUE(PR.Rtm.has_value());
  core::RunOutcome Rtm = core::runProgramMulti(*B.F, *PR.Rtm, In.Image,
                                               In.Invocations);
  EXPECT_TRUE(core::outcomesMatch(*B.F, Ref, Rtm)) << B.Name << " rtm";
}

TEST_P(BenchmarkSuite, CostModelAcceptsProfiledLoop) {
  Benchmark &B = benchmarks()[static_cast<size_t>(GetParam())];
  driver::CompileResult PR = driver::compileLoop(*B.F);
  Rng R(7);
  core::WorkloadInstance In = B.Gen(R);
  if (In.Invocations.size() > 20)
    In.Invocations.resize(20);

  profile::LoopProfiler Prof(*B.F, PR.Plan);
  mem::Memory M = In.Image.clone();
  for (const ir::Bindings &Inv : In.Invocations)
    Prof.profileRun(M, Inv);

  analysis::LoopProfile Summary = Prof.summarize(B.Coverage);
  // The paper's selection heuristics must accept each of its own
  // benchmarks: trip >= 16, effective VL >= 6, coverage >= 5%... except
  // 403.gcc, which Table 2 lists at 4.1% coverage, below the paper's own
  // floor. That row must fail on coverage alone.
  analysis::CostDecision Dec =
      analysis::shouldVectorize(PR.Plan, PR.Shape, Summary);
  if (B.Name == "403.gcc") {
    EXPECT_FALSE(Dec.Vectorize);
    EXPECT_EQ(Dec.Reason, "coverage below threshold");
    Summary.Coverage = analysis::MinCoverage;
    Dec = analysis::shouldVectorize(PR.Plan, PR.Shape, Summary);
  }
  EXPECT_TRUE(Dec.Vectorize) << B.Name << ": " << Dec.Reason
                             << " (trip=" << Summary.AvgTripCount
                             << ", effVL=" << Summary.EffectiveVL << ")";
}

INSTANTIATE_TEST_SUITE_P(
    All, BenchmarkSuite, ::testing::Range(0, 18),
    [](const ::testing::TestParamInfo<int> &Info) {
      std::string Name = benchmarks()[static_cast<size_t>(Info.param)].Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
