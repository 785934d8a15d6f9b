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

/// Shape of checkLoop's conflict-storm pass: the abort probability of
/// every transactional access, and the invocations one storm run makes.
constexpr double StormAbortRate = 0.75;
constexpr size_t InvocationsPerStorm = 10;

/// \p Digest folds the runs up to and including the failing one; the
/// checks that precede every run leave it 0.
CheckResult fail(FailureClass C, std::string Variant, std::string Detail,
                 uint64_t Digest = 0) {
  CheckResult R;
  R.Class = C;
  R.Variant = std::move(Variant);
  R.Detail = std::move(Detail);
  R.Digest = Digest;
  return R;
}

/// Folds one run into a CheckResult::Digest.
uint64_t foldRun(uint64_t H, const core::RunOutcome &O) {
  const emu::ExecStats &E = O.Exec.Stats;
  const rtm::TxStats &T = O.Tx;
  for (uint64_t V :
       {O.LiveOutHash, O.MemFingerprint, E.Instructions, E.Branches,
        E.TakenBranches, E.MemoryAccesses, E.VectorOps, E.RtmRetries,
        E.RtmFallbacks, E.RtmBudgetExhausted, E.BackoffCycles,
        E.TraceBatches, E.VplSteps, E.VplPartitions, E.FFClips,
        E.FFSuppressedLanes, E.ConflictChecks, E.ConflictHits, T.Begins,
        T.Commits, T.Aborts, T.AbortsByFault, T.AbortsByCapacity,
        T.AbortsExplicit, T.AbortsByConflict, T.AbortsSpurious,
        T.AbortsNested, T.InjectedAborts, T.BytesLogged, O.Mem.TlbHits,
        O.Mem.TlbMisses, O.Mem.CowCopies})
    H = hashCombine(H, V);
  return H;
}

} // namespace

int64_t gen::buildRoundInputs(const ir::LoopFunction &F, uint64_t InputSeed,
                              uint64_t Stream, const CheckOptions &Opts,
                              mem::Memory &M, ir::Bindings &B) {
  Rng R(deriveStreamSeed(InputSeed, Stream));
  InputPlan Plan = Opts.Inputs;
  Plan.Trip = Opts.MinTrip +
              static_cast<int64_t>(R.nextBelow(
                  static_cast<uint64_t>(Opts.MaxTrip - Opts.MinTrip + 1)));
  B = ir::Bindings::forFunction(F);
  buildConventionInputs(F, R, Plan, M, B);
  return Plan.Trip;
}

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
  uint64_t Digest = 0;
  for (int Round = 0; Round < Opts.Rounds; ++Round) {
    mem::Memory M;
    ir::Bindings B;
    int64_t Trip = buildRoundInputs(F, InputSeed,
                                    static_cast<uint64_t>(Round), Opts, M, B);
    std::vector<ir::Bindings> Invocations{B};

    core::RunOutcome Ref = core::runReferenceMulti(F, M, Invocations);
    Digest = foldRun(Digest, Ref);
    if (!Ref.Ok)
      return fail(FailureClass::RunError, "reference",
                  "round " + std::to_string(Round) + ": " + Ref.Error + "\n" +
                      Dsl,
                  Digest);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      const char *Name = core::variantName(static_cast<core::VariantId>(V));
      core::RunOutcome Out = core::runProgramMulti(F, *CL, M, Invocations);
      Digest = foldRun(Digest, Out);
      std::string Ctx = std::string(Name) + " (round " +
                        std::to_string(Round) + ", trip " +
                        std::to_string(Trip) + ")";
      if (!Out.Ok)
        return fail(FailureClass::RunError, Name,
                    Ctx + ": " + Out.Error + "\n" + Dsl, Digest);
      if (!core::outcomesMatch(F, Ref, Out))
        return fail(FailureClass::Mismatch, Name,
                    Ctx + " diverges from the reference\n" + Dsl, Digest);
    }
  }

  // 4. Conflict-storm pass: the transactional variants re-run the same
  // inputs as a multi-invocation sequence under a seeded abort storm;
  // RTM retries/falls back and adaptive demotes, but architectural
  // equivalence with the stormed scalar run must hold throughout.
  if (Opts.StormSeed) {
    mem::Memory M;
    ir::Bindings B;
    buildRoundInputs(F, InputSeed, 0x5702, Opts, M, B); // Independent round.
    std::vector<ir::Bindings> Invocations(InvocationsPerStorm, B);

    for (core::VariantId V :
         {core::VariantId::FlexVecRtm, core::VariantId::FlexVecAdaptive}) {
      const codegen::CompiledLoop *CL = core::selectVariant(PR, V);
      if (!CL)
        continue;
      core::FaultPlan FP;
      FP.Tx.Seed = deriveStreamSeed(Opts.StormSeed, static_cast<uint64_t>(V));
      FP.Tx.AbortProb = StormAbortRate;
      FP.Tx.Reason = rtm::AbortReason::Conflict;
      core::DiffVerdict Verdict = core::runDifferentialMulti(
          F, PR.Scalar, *CL, M, Invocations, FP);
      Digest = foldRun(Digest, Verdict.Scalar.Outcome);
      Digest = foldRun(Digest, Verdict.Vector.Outcome);
      if (!Verdict.Equivalent)
        return fail(FailureClass::StormDivergence, core::variantName(V),
                    Verdict.Detail + "\n" + Dsl, Digest);
    }
  }
  CheckResult R;
  R.Digest = Digest;
  return R;
}
