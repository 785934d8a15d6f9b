//===- tests/AdaptiveDispatchTest.cpp - Adaptive multi-version dispatch ----===//
//
// The acceptance bar for the flexvec-adaptive variant: across the full
// 18-kernel Figure 8 corpus, an injected RTM conflict storm (abort
// probability well past the demotion threshold) makes every adaptive
// program demote to its traditional path within the configured window,
// with outputs bit-identical to the scalar reference before, during, and
// after the demotion-boundary invocation. With faults off, the adaptive
// program's outcome is identical to the speculative variant's, and the
// preheader guard (min-trip, alias-range overlap) routes around the
// speculative body without ever diverging.
//
//===----------------------------------------------------------------------===//

#include "core/FaultHarness.h"
#include "driver/AdaptiveStrategy.h"
#include "driver/CompilerDriver.h"
#include "ir/Parser.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

using namespace flexvec;

namespace {

/// Cycles \p In.Invocations until it holds at least \p Want entries, so
/// short-invocation kernels still cross the demotion window.
void extendInvocations(core::WorkloadInstance &In, size_t Want) {
  ASSERT_FALSE(In.Invocations.empty());
  for (size_t I = 0; In.Invocations.size() < Want; ++I)
    In.Invocations.push_back(In.Invocations[I % In.Invocations.size()]);
}

} // namespace

// Under a sustained conflict storm every corpus kernel's adaptive program
// must (i) demote exactly once, within the window, and (ii) stay
// bit-identical to the scalar reference across the whole invocation
// sequence — including the demotion-boundary invocation itself.
TEST(AdaptiveDispatch, CorpusConflictStormDemotesWithinWindowBitExact) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(1.0);
  const unsigned Window = driver::AdaptiveConfig().Window;
  const size_t TotalInvocations = 12;
  size_t Checked = 0, Table2Rows = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    // This bar is calibrated for the Table 2 corpus: every row has a
    // transactional hot path, so the storm must force exactly one demotion.
    // The imported kernel-family rows (POLY/IRREG) include affine kernels
    // whose adaptive body may never open a transaction; their storm
    // behavior is covered in KernelFamiliesTest with an abort-conditional
    // assertion.
    if (W.Group != "SPEC" && W.Group != "APPS")
      continue;
    ++Table2Rows;
    driver::CompileResult PR = driver::compileLoop(*W.F);
    ASSERT_TRUE(PR.Adaptive) << W.Name << ": no adaptive variant";
    Rng R(deriveStreamSeed(33, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    extendInvocations(In, TotalInvocations);

    core::FaultPlan Plan;
    Plan.Tx.Seed = fnv1a64(W.Name);
    Plan.Tx.AbortProb = 0.75;
    Plan.Tx.Reason = rtm::AbortReason::Conflict;
    core::DiffVerdict V = core::runDifferentialMulti(
        *W.F, PR.Scalar, *PR.Adaptive, In.Image, In.Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << W.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.Ok) << W.Name;
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << W.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    EXPECT_EQ(D.Demotions, 1u) << W.Name << ": must demote exactly once";
    EXPECT_EQ(D.State, 1u) << W.Name << ": demotion must be sticky";
    EXPECT_GE(D.Invocations, Window)
        << W.Name << ": demotion needs a full observation window";
    EXPECT_LE(D.Invocations, Window + 2)
        << W.Name << ": demotion must land within the window, not drift";
    EXPECT_GT(D.AbortEvents, 0u) << W.Name;
    EXPECT_EQ(D.GuardFail, 0u)
        << W.Name << ": corpus arrays are disjoint; the guard must pass";
    ++Checked;
  }
  EXPECT_EQ(Checked, Table2Rows);
  EXPECT_EQ(Checked, 18u) << "Table 2 corpus must stay at 18 rows";
}

// With no faults injected, the adaptive program stays speculative for the
// whole run and its architectural outcome matches the plain speculative
// (flexvec-rtm) variant's, invocation for invocation.
TEST(AdaptiveDispatch, CleanRunMatchesSpeculativeVariantExactly) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(1.0);
  for (const core::SweepWorkload &W : Suite.Workloads) {
    driver::CompileResult PR = driver::compileLoop(*W.F);
    if (!PR.Adaptive || !PR.Rtm)
      continue;
    Rng R(deriveStreamSeed(44, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    core::RunOutcome Spec =
        core::runProgramMulti(*W.F, *PR.Rtm, In.Image, In.Invocations);
    core::RunOutcome Adaptive =
        core::runProgramMulti(*W.F, *PR.Adaptive, In.Image, In.Invocations);
    ASSERT_TRUE(Spec.Ok && Adaptive.Ok) << W.Name;
    EXPECT_TRUE(core::outcomesMatch(*W.F, Spec, Adaptive))
        << W.Name << ": clean adaptive run must equal the speculative "
        << "variant (fingerprint " << Adaptive.MemFingerprint << " vs "
        << Spec.MemFingerprint << ")";
    ASSERT_TRUE(Adaptive.HasDispatch);
    const driver::DispatchCounts &D = Adaptive.Dispatch;
    EXPECT_EQ(D.State, 0u) << W.Name << ": no demotion without aborts";
    EXPECT_EQ(D.Demotions, 0u) << W.Name;
    EXPECT_EQ(D.GuardPass, In.Invocations.size()) << W.Name;
    EXPECT_EQ(D.Invocations, In.Invocations.size()) << W.Name;
  }
}

// Identical base addresses make the alias-range guard fire on every
// invocation (the ranges overlap exactly), routing each invocation down
// the demoted path without ever counting it as speculative. dst == src
// keeps the loop semantics order-independent, so the run must still be
// bit-identical to scalar.
TEST(AdaptiveDispatch, AliasedArraysFailGuardEveryInvocationAndStayExact) {
  ir::ParseResult R = ir::parseLoop(R"(
loop stream(i64 n trip, i32 t, i32 dst[], i32 src[] readonly) {
  t = src[i];
  dst[i] = t + 1;
})");
  ASSERT_TRUE(R) << R.Error;
  driver::CompileResult PR = driver::compileLoop(*R.F);
  ASSERT_TRUE(PR.Adaptive) << "stream loop must produce an adaptive variant";

  const int64_t N = 256;
  mem::Memory Image;
  const uint64_t Base = 0x10000;
  Image.map(Base, mem::PageSize);
  for (int64_t I = 0; I < N; ++I)
    Image.set<int32_t>(Base + 4 * static_cast<uint64_t>(I),
                       static_cast<int32_t>(I * 3 - 40));
  ir::Bindings B = ir::Bindings::forFunction(*R.F);
  B.setInt(0, N);        // trip
  B.ArrayBases[0] = Base; // dst
  B.ArrayBases[1] = Base; // src aliases dst exactly
  std::vector<ir::Bindings> Invocations(3, B);

  core::FaultPlan Plan; // Nothing injected; the guard alone routes.
  core::DiffVerdict V = core::runDifferentialMulti(
      *R.F, PR.Scalar, *PR.Adaptive, Image, Invocations, Plan);
  ASSERT_TRUE(V.Equivalent) << V.describe();
  ASSERT_TRUE(V.Vector.Outcome.HasDispatch);
  const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
  EXPECT_EQ(D.GuardFail, Invocations.size())
      << "every invocation must fail the overlap check";
  EXPECT_EQ(D.GuardPass, 0u);
  EXPECT_EQ(D.Invocations, 0u) << "guard-failed runs are not speculative";
  EXPECT_EQ(D.State, 0u) << "guard failures are not demotions";
  EXPECT_EQ(D.Demotions, 0u);
}

// Trip counts below the minimum make the guard route to the demoted path
// without burning a speculative invocation.
TEST(AdaptiveDispatch, ShortTripsFailGuardAndStayExact) {
  ir::ParseResult R = ir::parseLoop(R"(
loop shorty(i64 n trip, i64 acc liveout, i32 a[] readonly) {
  acc = acc + a[i];
})");
  ASSERT_TRUE(R) << R.Error;
  driver::CompileResult PR = driver::compileLoop(*R.F);
  ASSERT_TRUE(PR.Adaptive);

  mem::Memory Image;
  const uint64_t Base = 0x20000;
  Image.map(Base, mem::PageSize);
  for (int64_t I = 0; I < 64; ++I)
    Image.set<int32_t>(Base + 4 * static_cast<uint64_t>(I),
                       static_cast<int32_t>(7 * I + 1));
  ir::Bindings B = ir::Bindings::forFunction(*R.F);
  B.setInt(0, driver::AdaptiveConfig().MinTrip - 1);
  B.ArrayBases[0] = Base;
  std::vector<ir::Bindings> Invocations(2, B);

  core::FaultPlan Plan;
  core::DiffVerdict V = core::runDifferentialMulti(
      *R.F, PR.Scalar, *PR.Adaptive, Image, Invocations, Plan);
  ASSERT_TRUE(V.Equivalent) << V.describe();
  ASSERT_TRUE(V.Vector.Outcome.HasDispatch);
  const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
  EXPECT_EQ(D.GuardFail, Invocations.size());
  EXPECT_EQ(D.GuardPass, 0u);
  EXPECT_EQ(D.Demotions, 0u);
}

// The demotion verdict surfaces as typed remarks: a storm run must render
// dispatch.demoted, a clean run dispatch.promoted-stay, and a guard-failed
// run dispatch.guard-failed — never silence.
TEST(AdaptiveDispatch, DispatchRemarksNameTheVerdict) {
  driver::DispatchCounts Stormed;
  Stormed.State = 1;
  Stormed.Invocations = 8;
  Stormed.AbortedInvocations = 8;
  Stormed.Demotions = 1;
  std::vector<driver::Remark> Rs = driver::dispatchRemarks(Stormed);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Id, "dispatch.demoted");
  EXPECT_EQ(Rs[0].Variant, "flexvec-adaptive");

  driver::DispatchCounts Clean;
  Clean.Invocations = 4;
  Rs = driver::dispatchRemarks(Clean);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Id, "dispatch.promoted-stay");

  driver::DispatchCounts Guarded;
  Guarded.GuardFail = 3;
  Guarded.Invocations = 2;
  Rs = driver::dispatchRemarks(Guarded);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_EQ(Rs[0].Id, "dispatch.guard-failed");
  EXPECT_EQ(Rs[1].Id, "dispatch.promoted-stay");
}
