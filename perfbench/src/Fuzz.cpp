//===- perfbench/src/Fuzz.cpp - The fuzz-compile workload -----------------===//
//
// A seeded stream of gen::generateLoop loops from the widened envelope,
// each generated and put through gen::checkLoop with the storm pass off.
// Every loop is a fresh compile and inputs are small (trip <= 400), so the
// compiler, the sinkless emulator's per-run fixed costs and the reference
// interpreter do the work. The traced pass replays checkLoop's steps.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/Evaluator.h"
#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "gen/Differential.h"
#include "gen/Gen.h"
#include "ir/Parser.h"
#include "support/Hash.h"

#include <cstdio>

using namespace flexvec;
using namespace perfbench;

namespace {

/// Loops per pass: enough that a pass's cost varies little between seeds.
constexpr size_t LoopsPerPass = 3000;
/// Loops run by the untimed warm-up slice.
constexpr size_t WarmUpLoops = 150;

class Fuzz final : public Workload {
public:
  explicit Fuzz(uint64_t Seed) : Seed(Seed), Env(gen::Envelope::widened()) {
    CO.StormSeed = 0;
  }

  void setUp() override {
    CaseSeeds.clear();
    for (size_t I = 0; I < LoopsPerPass; ++I)
      CaseSeeds.push_back(deriveStreamSeed(Seed, static_cast<uint64_t>(I)));
  }

  void warmUp() override {
    for (size_t I = 0; I < WarmUpLoops; ++I) {
      gen::GeneratedLoop G = gen::generateLoop(CaseSeeds[I], Env);
      gen::checkLoop(*G.F, CaseSeeds[I], CO);
    }
  }

  PassResult runPass() override;
  PassResult runTracedPass(SpanRecorder &Rec) override;

private:
  /// checkLoop's steps, one span per layer call. True when every check
  /// passes; \p Why says which failed otherwise.
  bool replayCheck(const ir::LoopFunction &F, uint64_t CaseSeed,
                   SpanRecorder &Rec, uint32_t Task, Metrics &C,
                   std::string &Why) const;

  uint64_t Seed;
  gen::Envelope Env;
  gen::CheckOptions CO;
  std::vector<uint64_t> CaseSeeds;
  std::vector<bool> LastOk; ///< Verdicts of the latest untraced pass.
};

PassResult Fuzz::runPass() {
  PassResult R;
  LastOk.assign(CaseSeeds.size(), false);
  R.Payload.reserve(CaseSeeds.size());
  int64_t T0 = nowNs();
  for (size_t I = 0; I < CaseSeeds.size(); ++I) {
    int64_t TaskStart = nowNs();
    gen::GeneratedLoop G = gen::generateLoop(CaseSeeds[I], Env);
    gen::CheckResult CR = gen::checkLoop(*G.F, CaseSeeds[I], CO);
    R.TaskMs.push_back(static_cast<double>(nowNs() - TaskStart) * 1e-6);
    ++R.Attempted;
    LastOk[I] = CR.ok();
    R.Payload += static_cast<char>('0' + static_cast<int>(CR.Class));
    if (!CR.ok()) {
      ++R.Failed;
      std::fprintf(stderr, "perfbench: loop %zu (case seed %llu): %s %s\n%s\n",
                   I, static_cast<unsigned long long>(CaseSeeds[I]),
                   gen::failureClassName(CR.Class), CR.Variant.c_str(),
                   CR.Detail.c_str());
    }
  }
  R.WallS = static_cast<double>(nowNs() - T0) * 1e-9;
  return R;
}

bool Fuzz::replayCheck(const ir::LoopFunction &F, uint64_t CaseSeed,
                       SpanRecorder &Rec, uint32_t Task, Metrics &C,
                       std::string &Why) const {
  bool RoundTrip = false;
  {
    Scoped S(Rec, Layer::IrRoundtrip, Task);
    std::string Dsl = ir::printLoopDsl(F);
    ir::ParseResult P = ir::parseLoop(Dsl);
    RoundTrip = P && ir::printLoopDsl(*P.F) == Dsl;
  }
  if (!RoundTrip) {
    Why = "round-trip";
    return false;
  }

  driver::DriverOptions DOpts;
  DOpts.RtmTile = CO.RtmTile;
  DOpts.Vec = CO.Vec;
  DOpts.Predicated = CO.Predicated;
  core::PipelineResult PR;
  {
    Scoped S(Rec, Layer::DriverCompile, Task);
    PR = driver::compileLoop(F, DOpts);
  }
  C["driver.compiles"] += 1;
  countProgram(PR, C);
  if (!PR.Plan.Vectorizable) {
    Why = "not-vectorizable";
    return false;
  }
  // No silent declines: the remark invariant checkLoop enforces.
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
    if ((Generated && !Applied) || (!Generated && !Missed)) {
      Why = std::string("remarks of ") + Name;
      return false;
    }
  }

  for (int Round = 0; Round < CO.Rounds; ++Round) {
    mem::Memory M;
    ir::Bindings B = ir::Bindings::forFunction(F);
    {
      Scoped S(Rec, Layer::GenInputs, Task);
      Rng R(deriveStreamSeed(CaseSeed, static_cast<uint64_t>(Round)));
      gen::InputPlan Plan = CO.Inputs;
      Plan.Trip = CO.MinTrip +
                  static_cast<int64_t>(R.nextBelow(
                      static_cast<uint64_t>(CO.MaxTrip - CO.MinTrip + 1)));
      gen::buildConventionInputs(F, R, Plan, M, B);
    }
    std::vector<ir::Bindings> Invocations{B};

    core::RunOutcome Ref;
    {
      Scoped S(Rec, Layer::IrInterp, Task);
      Ref = core::runReferenceMulti(F, M, Invocations);
    }
    C["ir.interp_runs"] += 1;
    if (!Ref.Ok) {
      Why = "reference run-error";
      return false;
    }
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      core::RunOutcome Out;
      {
        Scoped S(Rec, Layer::EmuSinkless, Task);
        Out = core::runProgramMulti(F, *CL, M, Invocations);
      }
      countRun(Out, /*Traced=*/false, C);
      if (!Out.Ok) {
        Why = std::string("run-error in ") + core::variantName(
                  static_cast<core::VariantId>(V));
        return false;
      }
      bool Match = false;
      {
        Scoped S(Rec, Layer::CoreCheck, Task);
        Match = core::outcomesMatch(F, Ref, Out);
      }
      if (!Match) {
        Why = std::string("mismatch in ") + core::variantName(
                  static_cast<core::VariantId>(V));
        return false;
      }
    }
  }
  return true;
}

PassResult Fuzz::runTracedPass(SpanRecorder &Rec) {
  PassResult R;
  Metrics &C = R.Counts;
  int64_t T0 = nowNs();
  {
    Scoped PassSpan(Rec, Layer::Pass, 0);
    for (size_t I = 0; I < CaseSeeds.size(); ++I) {
      uint32_t Task = static_cast<uint32_t>(I);
      Scoped TaskSpan(Rec, Layer::Task, Task);
      ++R.Attempted;
      gen::GeneratedLoop G;
      {
        Scoped S(Rec, Layer::GenGenerate, Task);
        G = gen::generateLoop(CaseSeeds[I], Env);
      }
      C["gen.loops"] += 1;
      std::string Why;
      bool Ok = replayCheck(*G.F, CaseSeeds[I], Rec, Task, C, Why);
      if (Ok && LastOk.at(I))
        continue;
      ++R.Failed;
      std::string Replay = Ok ? "passed" : "failed (" + Why + ")";
      std::fprintf(stderr,
                   "perfbench: loop %zu (case seed %llu): traced replay %s, "
                   "gen::checkLoop %s\nDSL reproducer:\n%s\n",
                   I, static_cast<unsigned long long>(CaseSeeds[I]),
                   Replay.c_str(), LastOk.at(I) ? "passed" : "failed",
                   ir::printLoopDsl(*G.F).c_str());
    }
  }
  R.WallS = static_cast<double>(nowNs() - T0) * 1e-9;
  return R;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeFuzz(uint64_t Seed) {
  return std::make_unique<Fuzz>(Seed);
}
