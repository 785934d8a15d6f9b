//===- tests/KernelFamiliesTest.cpp - Imported kernel-family rows ----------===//
//
// The acceptance bar for the POLY (polybench-style affine) and IRREG
// (Autovesk-style gather/scatter) sweep rows:
//
//  * every family kernel compiles to a vectorizable plan with no silent
//    variant declines, and POLY rows in particular must produce the
//    traditional variant (they are the affine end of the spectrum);
//  * every generated variant matches the reference interpreter, and the
//    transactional variants stay equivalent under an RTM conflict storm
//    (via the same gen::checkLoop contract the fuzzer enforces);
//  * under the storm, an adaptive family program that actually aborts must
//    demote — affine rows whose adaptive body never opens a transaction
//    are exempt (that is what distinguishes them from the Table 2 corpus);
//  * remarks and disassembly are pinned as goldens under
//    tests/golden/families/ (regenerate with FLEXVEC_UPDATE_GOLDEN=1).
//
//===----------------------------------------------------------------------===//

#include "core/FaultHarness.h"
#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "gen/Differential.h"
#include "support/Hash.h"
#include "workloads/Figure8.h"
#include "workloads/KernelFamilies.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace flexvec;
using workloads::Benchmark;

namespace {

std::string readFile(const std::string &Path, bool *Ok = nullptr) {
  std::ifstream In(Path);
  if (Ok)
    *Ok = In.good();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string sanitized(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '.')
      C = '_';
  return Out;
}

/// Points at the first differing line so CI logs read like a diff hunk.
void expectGoldenEq(const std::string &Golden, const std::string &Actual,
                    const std::string &GoldenPath) {
  if (Golden == Actual)
    return;
  std::istringstream G(Golden), A(Actual);
  std::string GLine, ALine;
  int Line = 1;
  while (true) {
    bool HasG = static_cast<bool>(std::getline(G, GLine));
    bool HasA = static_cast<bool>(std::getline(A, ALine));
    if (!HasG && !HasA)
      break;
    if (!HasG || !HasA || GLine != ALine) {
      FAIL() << GoldenPath << ":" << Line << ": first difference\n"
             << "  golden: " << (HasG ? GLine : "<eof>") << "\n"
             << "  actual: " << (HasA ? ALine : "<eof>") << "\n"
             << "regenerate with FLEXVEC_UPDATE_GOLDEN=1 if intentional";
      return;
    }
    ++Line;
  }
  FAIL() << GoldenPath << ": contents differ only in trailing whitespace";
}

void checkGolden(const std::string &Path, const std::string &Actual) {
  if (std::getenv("FLEXVEC_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  bool Ok = false;
  std::string Golden = readFile(Path, &Ok);
  ASSERT_TRUE(Ok) << "missing golden file " << Path
                  << " (generate with FLEXVEC_UPDATE_GOLDEN=1)";
  expectGoldenEq(Golden, Actual, Path);
}

class KernelFamilies : public ::testing::Test {
protected:
  static std::vector<Benchmark> &rows() {
    static std::vector<Benchmark> R = workloads::buildFamilyBenchmarks(1.0);
    return R;
  }
};

TEST_F(KernelFamilies, HasBothFamiliesWithAtLeastSixRows) {
  size_t Poly = 0, Irreg = 0;
  for (const Benchmark &B : rows()) {
    if (B.Group == "POLY")
      ++Poly;
    else if (B.Group == "IRREG")
      ++Irreg;
  }
  EXPECT_GE(Poly, 3u);
  EXPECT_GE(Irreg, 3u);
  EXPECT_GE(Poly + Irreg, 6u);
  EXPECT_EQ(Poly + Irreg, rows().size());
}

TEST_F(KernelFamilies, SuiteAppendsFamiliesAfterTable2) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(0.1);
  ASSERT_EQ(Suite.Workloads.size(), 18u + rows().size());
  // The first 18 rows stay the Table 2 corpus in order (their per-cell
  // input seeds derive from the names, so names moving would invalidate
  // the bench baseline).
  for (size_t I = 0; I < 18; ++I)
    EXPECT_TRUE(Suite.Workloads[I].Group == "SPEC" ||
                Suite.Workloads[I].Group == "APPS")
        << Suite.Workloads[I].Name;
  for (size_t I = 18; I < Suite.Workloads.size(); ++I)
    EXPECT_TRUE(Suite.Workloads[I].Group == "POLY" ||
                Suite.Workloads[I].Group == "IRREG")
        << Suite.Workloads[I].Name;
}

// The fuzzer's full contract — DSL round trip, vectorizable plan, no
// silent declines, six-variant differential, conflict-storm equivalence —
// applied to every family row with its own input plan.
TEST_F(KernelFamilies, EveryRowPassesTheDifferentialContract) {
  for (const Benchmark &B : rows()) {
    gen::CheckOptions CO;
    CO.MinTrip = 1;
    CO.MaxTrip = 256; // Differential rounds; the sweep covers full trips.
    CO.Inputs.IndexBound = 128;
    CO.Inputs.IndexMask = 255;
    CO.StormSeed = deriveStreamSeed(fnv1a64(B.Name), 0x57);
    gen::CheckResult R = gen::checkLoop(*B.F, fnv1a64(B.Name), CO);
    EXPECT_TRUE(R.ok()) << B.Name << ": " << gen::failureClassName(R.Class)
                        << (R.Variant.empty() ? "" : " in ") << R.Variant
                        << "\n"
                        << R.Detail;
  }
}

// POLY rows are the affine anchor: the traditional vectorizer must accept
// them (a decline there would mean the affine matcher regressed).
TEST_F(KernelFamilies, PolyRowsGenerateTraditional) {
  for (const Benchmark &B : rows()) {
    if (B.Group != "POLY")
      continue;
    driver::CompileResult PR = driver::compileLoop(*B.F, {.RtmTile = 64});
    ASSERT_TRUE(PR.Plan.Vectorizable) << B.Name << ": " << PR.Plan.Reason;
    if (B.Kind == workloads::KernelKind::Affine) {
      EXPECT_TRUE(PR.Traditional.has_value())
          << B.Name << ": affine family kernel must vectorize traditionally";
    }
    EXPECT_TRUE(PR.FlexVec.has_value()) << B.Name;
  }
}

// Storm demotion, abort-conditional: a family adaptive program that
// suffers aborts under the storm must demote exactly once and stay
// bit-exact; one that never opens a transaction (possible for affine
// rows) must never demote — and must still stay bit-exact.
TEST_F(KernelFamilies, StormDemotionMatchesAbortActivity) {
  for (const Benchmark &B : rows()) {
    driver::CompileResult PR = driver::compileLoop(*B.F, {.RtmTile = 64});
    if (!PR.Adaptive)
      continue;
    Rng R(deriveStreamSeed(77, fnv1a64(B.Name)));
    core::WorkloadInstance In = B.Gen(R);
    ASSERT_FALSE(In.Invocations.empty()) << B.Name;
    for (size_t I = 0; In.Invocations.size() < 12; ++I)
      In.Invocations.push_back(In.Invocations[I % In.Invocations.size()]);

    core::FaultPlan Plan;
    Plan.Tx.Seed = fnv1a64(B.Name);
    Plan.Tx.AbortProb = 0.75;
    Plan.Tx.Reason = rtm::AbortReason::Conflict;
    core::DiffVerdict V = core::runDifferentialMulti(
        *B.F, PR.Scalar, *PR.Adaptive, In.Image, In.Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << B.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << B.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    if (D.AbortEvents > 0) {
      EXPECT_EQ(D.Demotions, 1u)
          << B.Name << ": aborting family kernel must demote";
      EXPECT_EQ(D.State, 1u) << B.Name;
    } else {
      EXPECT_EQ(D.Demotions, 0u)
          << B.Name << ": no aborts, nothing to demote";
    }
  }
}

//===----------------------------------------------------------------------===//
// Goldens: the remark stream and the FlexVec disassembly of every family
// kernel, pinned under tests/golden/families/.
//===----------------------------------------------------------------------===//

TEST_F(KernelFamilies, RemarksMatchGolden) {
  for (const Benchmark &B : rows()) {
    driver::CompileResult PR = driver::compileLoop(*B.F, {.RtmTile = 64});
    checkGolden(std::string(FLEXVEC_SOURCE_DIR) + "/tests/golden/families/" +
                    sanitized(B.Name) + ".remarks.json",
                PR.Remarks.toJson().dump());
  }
}

TEST_F(KernelFamilies, FlexVecDisassemblyMatchesGolden) {
  for (const Benchmark &B : rows()) {
    driver::CompileResult PR = driver::compileLoop(*B.F, {.RtmTile = 64});
    ASSERT_TRUE(PR.FlexVec) << B.Name;
    checkGolden(std::string(FLEXVEC_SOURCE_DIR) + "/tests/golden/families/" +
                    sanitized(B.Name) + ".flexvec.s",
                PR.FlexVec->Prog.disassemble());
  }
}

} // namespace
