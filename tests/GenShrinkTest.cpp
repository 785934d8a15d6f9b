//===- tests/GenShrinkTest.cpp - Generator + shrinker guarantees -----------===//
//
// Pins down the two properties the scenario mill promises:
//
//  * Determinism: the same seed always generates a byte-identical loop,
//    and the same (loop, predicate) always shrinks to a byte-identical
//    reproducer — a CI failure log names a seed, and replaying that seed
//    reproduces exactly what CI saw.
//
//  * Failure preservation: shrinking minimizes while the *same* failure
//    keeps reproducing. The deliberately-injected-miscompile test corrupts
//    the FlexVec program post-compile (an immediate flip — the classic
//    codegen off-by-one) and requires the shrinker to reach a reproducer
//    of at most 15 DSL lines on which the corrupted program still diverges
//    from the reference interpreter.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "gen/Differential.h"
#include "gen/Gen.h"
#include "gen/Shrink.h"
#include "ir/Parser.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace flexvec;

namespace {

std::string dslFor(uint64_t Seed, const gen::Envelope &E) {
  gen::GeneratedLoop G = gen::generateLoop(Seed, E);
  return ir::printLoopDsl(*G.F);
}

int dslLines(const std::string &Dsl) {
  return static_cast<int>(std::count(Dsl.begin(), Dsl.end(), '\n'));
}

TEST(GenDeterminism, SameSeedSameLoopBothEnvelopes) {
  for (const gen::Envelope &E :
       {gen::Envelope::classic(), gen::Envelope::widened()}) {
    for (uint64_t Seed = 0; Seed < 12; ++Seed)
      EXPECT_EQ(dslFor(Seed, E), dslFor(Seed, E)) << "seed " << Seed;
  }
}

TEST(GenDeterminism, SeedsActuallyVary) {
  // Not a distribution test — just that the seed feeds through: 12 seeds
  // must produce more than one distinct loop.
  std::vector<std::string> Dsls;
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    Dsls.push_back(dslFor(Seed, gen::Envelope::widened()));
  std::sort(Dsls.begin(), Dsls.end());
  Dsls.erase(std::unique(Dsls.begin(), Dsls.end()), Dsls.end());
  EXPECT_GT(Dsls.size(), 1u);
}

TEST(GenDeterminism, CloneLoopPreservesDsl) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
    std::unique_ptr<ir::LoopFunction> C = gen::cloneLoop(*G.F);
    EXPECT_EQ(ir::printLoopDsl(*G.F), ir::printLoopDsl(*C))
        << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Shrinker basics on a cheap syntactic predicate.
//===----------------------------------------------------------------------===//

// Finds a widened-envelope seed whose loop has a conflict block (an "rw"
// array), so the predicate "still stores to rw" is satisfiable.
uint64_t seedWithConflict() {
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
    if (G.HasConflict)
      return Seed;
  }
  ADD_FAILURE() << "no conflict loop in 64 seeds";
  return 0;
}

TEST(Shrink, GreedyShrinkKeepsPredicateAndIsDeterministic) {
  uint64_t Seed = seedWithConflict();
  gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
  auto StoresToRw = [](const ir::LoopFunction &F) {
    return ir::printLoopDsl(F).find("rw[") != std::string::npos;
  };
  ASSERT_TRUE(StoresToRw(*G.F));

  gen::ShrinkResult A = gen::shrinkLoop(*G.F, StoresToRw);
  gen::ShrinkResult B = gen::shrinkLoop(*G.F, StoresToRw);
  EXPECT_TRUE(StoresToRw(*A.F));
  EXPECT_FALSE(A.BudgetExhausted);
  // Deterministic: same loop + same predicate -> byte-identical reproducer
  // and identical search statistics.
  EXPECT_EQ(ir::printLoopDsl(*A.F), ir::printLoopDsl(*B.F));
  EXPECT_EQ(A.Attempts, B.Attempts);
  EXPECT_EQ(A.Accepted, B.Accepted);
  // It actually minimized: everything except the store region is gone.
  EXPECT_LT(dslLines(ir::printLoopDsl(*A.F)),
            dslLines(ir::printLoopDsl(*G.F)));
  // And the reproducer still round-trips through the DSL.
  std::string Dsl = ir::printLoopDsl(*A.F);
  ir::ParseResult P = ir::parseLoop(Dsl);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(ir::printLoopDsl(*P.F), Dsl);
}

// The rebuild numbers expressions in the walk order the enumerator uses
// (Lhs before Rhs), whatever order the compiler evaluates call arguments
// in, so TakeLhs on the inner sum lands on it and y can then be dropped.
TEST(Shrink, ExpressionMutationsHitTheEnumeratedNode) {
  ir::ParseResult P = ir::parseLoop(
      "loop t(i64 n trip, i64 s liveout, i64 x[] readonly, "
      "i64 y[] readonly) {\n  s = ((x[i] + y[i]) + 5);\n}\n");
  ASSERT_TRUE(P) << P.Error;
  auto LhsReadsXRhsConst = [](const ir::LoopFunction &F) {
    if (F.body().empty() || F.body()[0]->Kind != ir::StmtKind::AssignScalar)
      return false;
    const ir::Expr *V = F.body()[0]->Value;
    if (V->Kind != ir::ExprKind::Binary ||
        V->Rhs->Kind != ir::ExprKind::ConstInt)
      return false;
    bool ReadsX = false;
    ir::forEachExpr(V->Lhs, [&](const ir::Expr *E) {
      ReadsX |= E->Kind == ir::ExprKind::ArrayRef &&
                F.array(E->ArrayId).Name == "x";
    });
    return ReadsX;
  };
  ASSERT_TRUE(LhsReadsXRhsConst(*P.F));

  gen::ShrinkResult R = gen::shrinkLoop(*P.F, LhsReadsXRhsConst);
  EXPECT_EQ(ir::printLoopDsl(*R.F),
            "loop t(i64 n trip, i64 s liveout, i64 x[] readonly) {\n"
            "  s = (x[i] + 5);\n}\n");
  EXPECT_EQ(R.Accepted, 2);
}

TEST(Shrink, BudgetStopsTheSearch) {
  uint64_t Seed = seedWithConflict();
  gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
  gen::ShrinkOptions SO;
  SO.MaxAttempts = 1;
  gen::ShrinkResult R = gen::shrinkLoop(
      *G.F, [](const ir::LoopFunction &) { return true; }, SO);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_LE(R.Attempts, 1);
}

//===----------------------------------------------------------------------===//
// Deliberately injected miscompile.
//===----------------------------------------------------------------------===//

/// Corrupts the first non-branch instruction carrying a non-zero immediate
/// in \p CL's program (Imm += 1). Returns false if there is none.
bool corruptFirstImmediate(codegen::CompiledLoop &CL) {
  std::vector<isa::Instruction> Instrs = CL.Prog.instructions();
  for (isa::Instruction &I : Instrs) {
    if (I.isBranch() || I.Imm == 0)
      continue;
    I.Imm += 1;
    CL.Prog = isa::Program(std::move(Instrs));
    return true;
  }
  return false;
}

/// The divergence predicate the shrinker preserves: compile the candidate,
/// corrupt its FlexVec program the same way, and check whether the
/// corrupted program still diverges from the reference interpreter on
/// convention inputs (run error and budget blowout count as divergence —
/// corrupting an index or trip immediate can derail the loop entirely).
bool corruptedFlexVecDiverges(const ir::LoopFunction &F) {
  driver::CompileResult PR = driver::compileLoop(F, {.RtmTile = 64});
  if (!PR.Plan.Vectorizable || !PR.FlexVec)
    return false;
  codegen::CompiledLoop Bad = *PR.FlexVec;
  if (!corruptFirstImmediate(Bad))
    return false;

  Rng R(99);
  gen::InputPlan Plan;
  Plan.Trip = 128;
  mem::Memory M;
  ir::Bindings B = ir::Bindings::forFunction(F);
  gen::buildConventionInputs(F, R, Plan, M, B);

  core::RunOutcome Ref = core::runReferenceMulti(F, M, {B});
  if (!Ref.Ok)
    return false; // The candidate itself faults; not a valid reproducer.
  emu::RunLimits Limits;
  Limits.MaxInstructions = 1ULL << 22;
  core::RunOutcome Out =
      core::runProgramMulti(F, Bad, M, {B}, /*Sink=*/nullptr, Limits);
  return !Out.Ok || !core::outcomesMatch(F, Ref, Out);
}

TEST(Shrink, InjectedMiscompileShrinksToSmallReproducer) {
  // Find a seed whose generated loop exposes the corruption. The immediate
  // flip is not observable on every loop (the immediate may feed dead
  // code), so probe a fixed seed range; the range is part of the test's
  // determinism.
  uint64_t Seed = ~0ULL;
  for (uint64_t S = 0; S < 32; ++S) {
    gen::GeneratedLoop G = gen::generateLoop(S, gen::Envelope::widened());
    if (corruptedFlexVecDiverges(*G.F)) {
      Seed = S;
      break;
    }
  }
  ASSERT_NE(Seed, ~0ULL) << "no seed in [0,32) exposes the corruption";

  gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
  gen::ShrinkResult R1 = gen::shrinkLoop(*G.F, corruptedFlexVecDiverges);
  gen::ShrinkResult R2 = gen::shrinkLoop(*G.F, corruptedFlexVecDiverges);

  std::string Dsl = ir::printLoopDsl(*R1.F);
  // The acceptance bar: a deliberately injected miscompile shrinks to a
  // reproducer of at most 15 DSL lines...
  EXPECT_LE(dslLines(Dsl), 15) << Dsl;
  // ...that still reproduces the original divergence class...
  EXPECT_TRUE(corruptedFlexVecDiverges(*R1.F)) << Dsl;
  // ...deterministically...
  EXPECT_EQ(Dsl, ir::printLoopDsl(*R2.F));
  EXPECT_EQ(R1.Attempts, R2.Attempts);
  // ...and the reproducer parses back to itself.
  ir::ParseResult P = ir::parseLoop(Dsl);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(ir::printLoopDsl(*P.F), Dsl);
}

//===----------------------------------------------------------------------===//
// checkLoop failure-classification plumbing (what flexvec-fuzz keys its
// shrink predicate on).
//===----------------------------------------------------------------------===//

TEST(CheckLoop, CleanLoopReportsNone) {
  gen::GeneratedLoop G = gen::generateLoop(3, gen::Envelope::widened());
  gen::CheckOptions CO;
  CO.StormSeed = 42;
  gen::CheckResult R = gen::checkLoop(*G.F, 3, CO);
  EXPECT_TRUE(R.ok()) << gen::failureClassName(R.Class) << " " << R.Detail;
}

// The digest is a pure function of (loop, seed, options), and the storm
// pass's runs are folded into it.
TEST(CheckLoop, DigestIsDeterministicAndCoversTheStorm) {
  gen::GeneratedLoop G = gen::generateLoop(3, gen::Envelope::widened());
  gen::CheckOptions CO;
  gen::CheckResult Calm = gen::checkLoop(*G.F, 3, CO);
  CO.StormSeed = 42;
  gen::CheckResult A = gen::checkLoop(*G.F, 3, CO);
  gen::CheckResult B = gen::checkLoop(*G.F, 3, CO);
  ASSERT_TRUE(A.ok()) << A.Detail;
  EXPECT_NE(A.Digest, 0u);
  EXPECT_EQ(A.Digest, B.Digest);
  EXPECT_NE(A.Digest, Calm.Digest);
}

TEST(CheckLoop, SameFailureComparesClassAndVariant) {
  gen::CheckResult A, B;
  A.Class = gen::FailureClass::Mismatch;
  A.Variant = "flexvec";
  B.Class = gen::FailureClass::Mismatch;
  B.Variant = "flexvec-rtm";
  EXPECT_FALSE(A.sameFailure(B));
  B.Variant = "flexvec";
  EXPECT_TRUE(A.sameFailure(B));
  B.Class = gen::FailureClass::RunError;
  EXPECT_FALSE(A.sameFailure(B));
}

} // namespace
