//===- gen/Differential.cpp -----------------------------------------------===//

#include "gen/Differential.h"

#include "core/FaultHarness.h"
#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "driver/Remarks.h"
#include "ir/Parser.h"
#include "support/Hash.h"

using namespace flexvec;
using namespace flexvec::gen;

const char *gen::failureClassName(FailureClass C) {
  switch (C) {
  case FailureClass::None:
    return "none";
  case FailureClass::RoundTrip:
    return "round-trip";
  case FailureClass::NotVectorizable:
    return "not-vectorizable";
  case FailureClass::SilentDecline:
    return "silent-decline";
  case FailureClass::MissingApplied:
    return "missing-applied-remark";
  case FailureClass::RunError:
    return "run-error";
  case FailureClass::Mismatch:
    return "mismatch";
  case FailureClass::StormDivergence:
    return "storm-divergence";
  }
  return "?";
}

namespace {

CheckResult fail(FailureClass C, std::string Variant, std::string Detail) {
  CheckResult R;
  R.Class = C;
  R.Variant = std::move(Variant);
  R.Detail = std::move(Detail);
  return R;
}

} // namespace

CheckResult gen::checkLoop(const ir::LoopFunction &F, uint64_t InputSeed,
                           const CheckOptions &Opts) {
  // 1. The reproducer path itself: the loop must survive a DSL round trip
  // byte-identically, or every failure we print is unreplayable.
  std::string Dsl = ir::printLoopDsl(F);
  ir::ParseResult P = ir::parseLoop(Dsl);
  if (!P)
    return fail(FailureClass::RoundTrip, "",
                "reparse failed: " + P.Error + "\n" + Dsl);
  if (ir::printLoopDsl(*P.F) != Dsl)
    return fail(FailureClass::RoundTrip, "",
                "re-print differs from original:\n" + Dsl);

  driver::DriverOptions DOpts;
  DOpts.RtmTile = Opts.RtmTile;
  DOpts.Vec = Opts.Vec;
  DOpts.Predicated = Opts.Predicated;
  driver::CompileResult PR = driver::compileLoop(F, DOpts);
  if (!PR.Plan.Vectorizable)
    return fail(FailureClass::NotVectorizable, "",
                PR.Plan.Reason + "\n" + Dsl);

  // 2. No silent declines: every absent vector variant must carry a
  // lower-pass missed remark, every present one an applied remark.
  for (unsigned V = 1; V < core::NumVariants; ++V) {
    const char *Name = core::variantName(static_cast<core::VariantId>(V));
    bool Generated =
        core::selectVariant(PR, static_cast<core::VariantId>(V)) != nullptr;
    bool Applied = false, Missed = false;
    for (const driver::Remark &Rk : PR.Remarks.remarks()) {
      if (Rk.Pass != "lower" || Rk.Variant != Name)
        continue;
      Applied |= Rk.Kind == driver::RemarkKind::Applied;
      Missed |= Rk.Kind == driver::RemarkKind::Missed;
    }
    if (Generated && !Applied)
      return fail(FailureClass::MissingApplied, Name,
                  "generated without an applied remark\n" + Dsl);
    if (!Generated && !Missed)
      return fail(FailureClass::SilentDecline, Name,
                  "declined without a missed remark\n" + Dsl);
  }

  // 3. Differential rounds: fresh random inputs per round, every generated
  // variant against the reference interpreter. The adaptive variant runs
  // through the multi-invocation path, which maps and tears down its
  // dispatch cell.
  for (int Round = 0; Round < Opts.Rounds; ++Round) {
    Rng R(deriveStreamSeed(InputSeed, static_cast<uint64_t>(Round)));
    InputPlan Plan = Opts.Inputs;
    Plan.Trip = Opts.MinTrip +
                static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(
                    Opts.MaxTrip - Opts.MinTrip + 1)));
    mem::Memory M;
    ir::Bindings B = ir::Bindings::forFunction(F);
    buildConventionInputs(F, R, Plan, M, B);
    std::vector<ir::Bindings> Invocations{B};

    core::RunOutcome Ref = core::runReferenceMulti(F, M, Invocations);
    if (!Ref.Ok)
      return fail(FailureClass::RunError, "reference",
                  "round " + std::to_string(Round) + ": " + Ref.Error + "\n" +
                      Dsl);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      const char *Name = core::variantName(static_cast<core::VariantId>(V));
      core::RunOutcome Out = core::runProgramMulti(F, *CL, M, Invocations);
      std::string Ctx = std::string(Name) + " (round " +
                        std::to_string(Round) + ", trip " +
                        std::to_string(Plan.Trip) + ")";
      if (!Out.Ok)
        return fail(FailureClass::RunError, Name,
                    Ctx + ": " + Out.Error + "\n" + Dsl);
      if (!core::outcomesMatch(F, Ref, Out))
        return fail(FailureClass::Mismatch, Name,
                    Ctx + " diverges from the reference\n" + Dsl);
    }
  }

  // 4. Conflict-storm pass: the transactional variants re-run the same
  // inputs as a multi-invocation sequence under a seeded abort storm;
  // RTM retries/falls back and adaptive demotes, but architectural
  // equivalence with the stormed scalar run must hold throughout.
  if (Opts.StormSeed) {
    Rng R(deriveStreamSeed(InputSeed, 0x5702)); // Independent input round.
    InputPlan Plan = Opts.Inputs;
    Plan.Trip = Opts.MinTrip +
                static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(
                    Opts.MaxTrip - Opts.MinTrip + 1)));
    mem::Memory M;
    ir::Bindings B = ir::Bindings::forFunction(F);
    buildConventionInputs(F, R, Plan, M, B);
    std::vector<ir::Bindings> Invocations(Opts.StormInvocations, B);

    for (core::VariantId V : {core::VariantId::Rtm, core::VariantId::Adaptive}) {
      const codegen::CompiledLoop *CL = core::selectVariant(PR, V);
      if (!CL)
        continue;
      core::FaultPlan FP;
      FP.Tx.Seed = deriveStreamSeed(Opts.StormSeed, static_cast<uint64_t>(V));
      FP.Tx.AbortProb = Opts.StormAbortProb;
      FP.Tx.Reason = rtm::AbortReason::Conflict;
      core::DiffVerdict Verdict = core::runDifferentialMulti(
          F, PR.Scalar, *CL, M, Invocations, FP);
      if (!Verdict.Equivalent)
        return fail(FailureClass::StormDivergence, core::variantName(V),
                    Verdict.Detail + "\n" + Dsl);
    }
  }
  return CheckResult();
}
