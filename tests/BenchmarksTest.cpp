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

//===----------------------------------------------------------------------===//
// Staged input construction, the oracle for the in-place generators: every
// array is drawn into a std::vector<int64_t>, converted to its element type
// and copied into the image in one piece.
//===----------------------------------------------------------------------===//

uint64_t stagedTyped(mem::BumpAllocator &Alloc, const std::vector<int64_t> &V,
                     bool Fp) {
  if (Fp) {
    std::vector<float> F(V.begin(), V.end());
    return Alloc.allocArray(F);
  }
  std::vector<int32_t> I32(V.size());
  for (size_t I = 0; I < V.size(); ++I)
    I32[I] = static_cast<int32_t>(V[I]);
  return Alloc.allocArray(I32);
}

std::vector<int64_t> stagedConflictIndices(Rng &R, int64_t Trip,
                                           double ConflictProb,
                                           int64_t TableSize) {
  std::vector<int64_t> Idx, Recent;
  for (int64_t I = 0; I < Trip; ++I) {
    int64_t V;
    if (!Recent.empty() && R.nextBool(ConflictProb))
      V = Recent[R.nextBelow(Recent.size())];
    else
      V = static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(TableSize)));
    Idx.push_back(V);
    Recent.push_back(V);
    if (Recent.size() > 12)
      Recent.erase(Recent.begin());
  }
  return Idx;
}

std::vector<int64_t> stagedDraws(Rng &R, int64_t N, uint64_t Bound) {
  std::vector<int64_t> V(static_cast<size_t>(N));
  for (auto &X : V)
    X = static_cast<int64_t>(R.nextBelow(Bound));
  return V;
}

core::WorkloadInstance stagedScatterAccum(const ir::LoopFunction &F, Rng &R,
                                          int64_t Trip, int64_t Invocations,
                                          double ConflictProb,
                                          int64_t TableSize, bool Fp,
                                          unsigned ExtraCompute) {
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);
  int64_t Slices = std::min<int64_t>(Invocations, 48);
  std::vector<int64_t> Idx;
  for (int64_t S = 0; S < Slices; ++S) {
    std::vector<int64_t> Slice =
        stagedConflictIndices(R, Trip, ConflictProb, TableSize);
    Idx.insert(Idx.end(), Slice.begin(), Slice.end());
  }
  std::vector<int64_t> W = stagedDraws(R, Trip * Slices, 16);
  std::vector<int64_t> Aux = stagedDraws(R, Trip * Slices, 16);
  std::vector<int64_t> D = stagedDraws(R, TableSize, 64);
  uint64_t IdxBase = stagedTyped(Alloc, Idx, false);
  uint64_t WBase = stagedTyped(Alloc, W, Fp);
  uint64_t AuxBase = ExtraCompute ? stagedTyped(Alloc, Aux, Fp) : 0;
  uint64_t DBase = stagedTyped(Alloc, D, Fp);
  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    uint64_t Off = static_cast<uint64_t>((Inv % Slices) * Trip) * 4;
    ir::Bindings B = ir::Bindings::forFunction(F);
    B.ArrayBases[0] = IdxBase + Off;
    B.ArrayBases[1] = WBase + Off;
    int Next = 2;
    if (ExtraCompute)
      B.ArrayBases[Next++] = AuxBase + Off;
    B.ArrayBases[Next] = DBase;
    B.setInt(0, Trip);
    Out.Invocations.push_back(B);
  }
  return Out;
}

core::WorkloadInstance stagedForce(const ir::LoopFunction &F, Rng &R,
                                   int64_t Trip, int64_t Invocations,
                                   double UpdateProb, double ConflictProb,
                                   int64_t TableSize, bool Fp,
                                   unsigned ExtraCompute) {
  constexpr int64_t ExtraConsts[] = {3, 5, 7, 2, 9, 4};
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);
  int64_t Slices = std::min<int64_t>(Invocations, 48);
  std::vector<int64_t> Aux = stagedDraws(R, Trip * Slices, 16);
  std::vector<int64_t> W, Idx;
  for (int64_t S = 0; S < Slices; ++S) {
    int64_t Cur = 1 << 16;
    for (int64_t I = 0; I < Trip; ++I) {
      int64_t Target;
      if (R.nextBool(UpdateProb)) {
        Cur += R.nextInRange(1, 8);
        Target = Cur;
      } else {
        Target = Cur - static_cast<int64_t>(R.nextBelow(1000));
      }
      int64_t Extra = 0;
      for (unsigned K = 0; K < ExtraCompute; ++K)
        Extra += Aux[static_cast<size_t>(S * Trip + I)] * ExtraConsts[K % 6];
      W.push_back(Target - Extra);
    }
    std::vector<int64_t> Slice =
        stagedConflictIndices(R, Trip, ConflictProb, TableSize);
    Idx.insert(Idx.end(), Slice.begin(), Slice.end());
  }
  std::vector<int64_t> D = stagedDraws(R, TableSize, 64);
  uint64_t WBase = stagedTyped(Alloc, W, Fp);
  uint64_t AuxBase = ExtraCompute ? stagedTyped(Alloc, Aux, Fp) : 0;
  uint64_t IdxBase = stagedTyped(Alloc, Idx, false);
  uint64_t DBase = stagedTyped(Alloc, D, Fp);
  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    uint64_t Off = static_cast<uint64_t>((Inv % Slices) * Trip) * 4;
    ir::Bindings B = ir::Bindings::forFunction(F);
    B.ArrayBases[0] = WBase + Off;
    int Next = 1;
    if (ExtraCompute)
      B.ArrayBases[Next++] = AuxBase + Off;
    B.ArrayBases[Next++] = IdxBase + Off;
    B.ArrayBases[Next] = DBase;
    B.setInt(0, Trip);
    if (Fp)
      B.setFloat(F.scalar(1).Type, 1, 1 << 16);
    else
      B.setInt(1, 1 << 16);
    B.setInt(2, -1);
    Out.Invocations.push_back(B);
  }
  return Out;
}

void expectSameInstance(const core::WorkloadInstance &Got,
                        const core::WorkloadInstance &Want, Rng &GotRng,
                        Rng &WantRng, const std::string &What) {
  EXPECT_TRUE(Got.Image.contentsEqual(Want.Image)) << What;
  EXPECT_EQ(Got.Image.numPages(), Want.Image.numPages()) << What;
  ASSERT_EQ(Got.Invocations.size(), Want.Invocations.size()) << What;
  for (size_t I = 0; I < Got.Invocations.size(); ++I) {
    EXPECT_EQ(Got.Invocations[I].ArrayBases, Want.Invocations[I].ArrayBases)
        << What << " invocation " << I;
    EXPECT_EQ(Got.Invocations[I].ScalarValues,
              Want.Invocations[I].ScalarValues)
        << What << " invocation " << I;
  }
  EXPECT_EQ(GotRng.next(), WantRng.next()) << What << ": RNG draw order";
}

} // namespace

// Table sizes straddle page boundaries (4096 elements per page at 4 bytes)
// so a partial last page is covered.
TEST(InputImages, ScatterAccumMatchesTheStagedBuild) {
  for (bool Fp : {false, true})
    for (unsigned Extra : {0u, 1u})
      for (int64_t Table : {int64_t(1), int64_t(5000), int64_t(12289)}) {
        auto F = buildScatterAccumLoop("sa", Fp, Extra);
        Rng A(91 + Table), B(91 + Table);
        core::WorkloadInstance Got =
            genScatterAccumInputs(*F, A, 700, 3, 0.05, Table, Fp, Extra);
        core::WorkloadInstance Want =
            stagedScatterAccum(*F, B, 700, 3, 0.05, Table, Fp, Extra);
        expectSameInstance(Got, Want, A, B,
                           "scatter-accum fp=" + std::to_string(Fp) +
                               " extra=" + std::to_string(Extra) +
                               " table=" + std::to_string(Table));
      }
}

TEST(InputImages, ForceMatchesTheStagedBuild) {
  for (bool Fp : {false, true})
    for (unsigned Extra : {0u, 1u})
      for (int64_t Table : {int64_t(64), int64_t(9000)}) {
        auto F = buildForceLoop("force", Fp, Extra);
        Rng A(17 + Table), B(17 + Table);
        core::WorkloadInstance Got =
            genForceInputs(*F, A, 1500, 4, 0.04, 0.04, Table, Fp, Extra);
        core::WorkloadInstance Want =
            stagedForce(*F, B, 1500, 4, 0.04, 0.04, Table, Fp, Extra);
        expectSameInstance(Got, Want, A, B,
                           "force fp=" + std::to_string(Fp) + " extra=" +
                               std::to_string(Extra) +
                               " table=" + std::to_string(Table));
      }
}

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
