//===- tests/FaultInjectionTest.cpp - Differential fault tolerance ---------===//
//
// The acceptance bar for the fault-injection subsystem: under a seeded
// fault schedule, scalar and FlexVec executions of the paper's three loop
// patterns (conditional scalar update, cross-iteration memory dependency,
// early termination) reach equivalent architectural outcomes — identical
// memory fingerprints and live-outs, or identical structured fault
// reports — and no injected fault (nested transactions, a thousand
// consecutive RTM aborts, ...) terminates the host process.
//
//===----------------------------------------------------------------------===//

#include "codegen/Peephole.h"
#include "core/FaultHarness.h"
#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "emu/Machine.h"
#include "faults/FaultInjector.h"
#include "gen/Differential.h"
#include "ir/Parser.h"
#include "isa/Program.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace flexvec;
using namespace flexvec::isa;

namespace {

/// One paper loop with generated inputs and every compiled variant.
struct LoopCase {
  std::string Name;
  std::unique_ptr<ir::LoopFunction> F;
  workloads::LoopInputs In;
  driver::CompileResult PR;
  /// The peepholed FlexVec program (codegen::optimizeLoop).
  std::optional<codegen::CompiledLoop> FlexVecOpt;
};

std::vector<LoopCase>
buildPaperLoops(uint64_t Seed, int64_t N = 200,
                isa::VectorConfig Vec = isa::VectorConfig()) {
  std::vector<LoopCase> Cases;
  {
    LoopCase C;
    C.Name = "h264";
    C.F = workloads::buildH264Loop();
    Rng R(Seed);
    C.In = workloads::genH264Inputs(*C.F, R, N, /*UpdateProb=*/0.2);
    C.PR = driver::compileLoop(*C.F, {.Vec = Vec});
    Cases.push_back(std::move(C));
  }
  {
    LoopCase C;
    C.Name = "conflict";
    C.F = workloads::buildConflictLoop();
    Rng R(Seed + 1);
    C.In = workloads::genConflictInputs(*C.F, R, N, /*ConflictProb=*/0.2);
    C.PR = driver::compileLoop(*C.F, {.Vec = Vec});
    Cases.push_back(std::move(C));
  }
  {
    LoopCase C;
    C.Name = "early-exit";
    C.F = workloads::buildEarlyExitLoop();
    Rng R(Seed + 2);
    C.In = workloads::genEarlyExitInputs(*C.F, R, N, /*MatchPos=*/N - 20);
    C.PR = driver::compileLoop(*C.F, {.Vec = Vec});
    Cases.push_back(std::move(C));
  }
  for (LoopCase &C : Cases)
    if (C.PR.FlexVec)
      C.FlexVecOpt = codegen::optimizeLoop(*C.PR.FlexVec);
  return Cases;
}

/// All vectorized variants of a case, labeled.
std::vector<std::pair<std::string, const codegen::CompiledLoop *>>
vectorVariants(const LoopCase &C) {
  std::vector<std::pair<std::string, const codegen::CompiledLoop *>> Out;
  if (C.PR.FlexVec)
    Out.push_back({"flexvec", &*C.PR.FlexVec});
  if (C.FlexVecOpt)
    Out.push_back({"flexvec-opt", &*C.FlexVecOpt});
  if (C.PR.Rtm)
    Out.push_back({"rtm", &*C.PR.Rtm});
  return Out;
}

} // namespace

TEST(FaultDifferential, CleanRunsAreEquivalent) {
  for (LoopCase &C : buildPaperLoops(11)) {
    core::FaultPlan Plan; // Nothing injected.
    for (auto &[VarName, CL] : vectorVariants(C)) {
      core::DiffVerdict V = core::runDifferentialMulti(
          *C.F, C.PR.Scalar, *CL, C.In.Image, {C.In.B}, Plan);
      EXPECT_TRUE(V.Equivalent)
          << C.Name << "/" << VarName << ": " << V.describe();
      EXPECT_TRUE(V.Scalar.Outcome.Ok);
      EXPECT_TRUE(V.Vector.Outcome.Ok);
    }
  }
}

// Persistent, address-deterministic range faults aimed at one array at a
// time: the same data addresses are poisoned in the scalar and the vector
// run, so either both executions absorb the faults (first-faulting clips,
// RTM fallback) and agree on final state, or both stop with the same
// fault report (reason + address).
void checkPersistentRangeFaults(isa::VectorConfig Vec) {
  uint64_t Injected = 0, Faulted = 0, Completed = 0;
  for (uint64_t Seed : {101u, 202u, 303u}) {
    for (LoopCase &C : buildPaperLoops(Seed, /*N=*/200, Vec)) {
      for (size_t Arr = 0; Arr < C.In.B.ArrayBases.size(); ++Arr) {
        uint64_t Base = C.In.B.ArrayBases[Arr];
        core::FaultPlan Plan;
        Plan.Mem.Seed = Seed * 7 + Arr;
        Plan.Mem.Ranges.push_back({Base, Base + mem::PageSize, /*Prob=*/0.06,
                                   faults::FaultDuration::Persistent});
        for (auto &[VarName, CL] : vectorVariants(C)) {
          core::DiffVerdict V = core::runDifferentialMulti(
              *C.F, C.PR.Scalar, *CL, C.In.Image, {C.In.B}, Plan);
          EXPECT_TRUE(V.Equivalent)
              << C.Name << "/" << VarName << " array " << Arr << " seed "
              << Seed << " at " << Vec.bits() << " bits: " << V.describe();
          Injected += V.Scalar.Injection.MemFaultsInjected;
          (V.Scalar.Outcome.Ok ? Completed : Faulted) += 1;
        }
      }
    }
  }
  // The schedule matrix must actually exercise both outcomes.
  EXPECT_GT(Injected, 0u);
  EXPECT_GT(Faulted, 0u);
  EXPECT_GT(Completed, 0u);
}

TEST(FaultDifferential, PersistentRangeFaultsInEachArray) {
  checkPersistentRangeFaults(isa::VectorConfig());
}

// At 256 bits a chunk covers 8 lanes, so first-faulting clips land on
// other lane boundaries than at the 512-bit default.
TEST(FaultDifferential, PersistentRangeFaultsInEachArrayAt256Bits) {
  checkPersistentRangeFaults(isa::VectorConfig(256 / 8));
}

// Injected RTM aborts never reach the scalar program (it has no
// transactions); the RTM variant retries or falls back, and both sides
// must still agree on the final state.
TEST(FaultDifferential, InjectedTxAbortsAreAbsorbedByRetryAndFallback) {
  bool SawRtm = false;
  for (uint64_t Seed : {5u, 6u}) {
    for (LoopCase &C : buildPaperLoops(Seed)) {
      if (!C.PR.Rtm)
        continue;
      SawRtm = true;
      for (rtm::AbortReason Reason :
           {rtm::AbortReason::Conflict, rtm::AbortReason::Capacity,
            rtm::AbortReason::Spurious}) {
        core::FaultPlan Plan;
        Plan.Tx.Seed = Seed;
        Plan.Tx.AbortProb = 0.3;
        Plan.Tx.Reason = Reason;
        core::DiffVerdict V = core::runDifferentialMulti(
            *C.F, C.PR.Scalar, *C.PR.Rtm, C.In.Image, {C.In.B}, Plan);
        EXPECT_TRUE(V.Equivalent)
            << C.Name << "/rtm reason=" << rtm::abortReasonName(Reason)
            << " seed " << Seed << ": " << V.describe();
        EXPECT_GT(V.Vector.Injection.TxAbortsInjected, 0u)
            << C.Name << ": the schedule must actually abort transactions";
      }
    }
  }
  EXPECT_TRUE(SawRtm) << "no loop produced an RTM variant";
}

// --- Adaptive dispatch under fault storms ---------------------------------===//

namespace {

/// The paper loops as multi-invocation sequences long enough to cross the
/// adaptive demotion window.
std::vector<ir::Bindings> repeated(const ir::Bindings &B, size_t Count) {
  return std::vector<ir::Bindings>(Count, B);
}

} // namespace

// A spurious-abort storm raging while invocations pass the preheader
// guard: the adaptive program must charge the aborts, demote inside the
// window, and stay bit-identical to scalar throughout.
TEST(FaultDifferential, SpuriousAbortStormDuringGuardedInvocationsDemotes) {
  for (LoopCase &C : buildPaperLoops(31)) {
    if (!C.PR.Adaptive || !C.PR.Rtm) // Tx storms need a transactional side.
      continue;
    core::FaultPlan Plan;
    Plan.Tx.Seed = 31;
    Plan.Tx.AbortProb = 0.9;
    Plan.Tx.Reason = rtm::AbortReason::Spurious;
    std::vector<ir::Bindings> Invocations = repeated(C.In.B, 12);
    core::DiffVerdict V = core::runDifferentialMulti(
        *C.F, C.PR.Scalar, *C.PR.Adaptive, C.In.Image, Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << C.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << C.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    EXPECT_GT(D.GuardPass, 0u)
        << C.Name << ": the storm must hit guard-passing invocations";
    EXPECT_EQ(D.Demotions, 1u) << C.Name;
    EXPECT_EQ(D.State, 1u) << C.Name;
  }
}

// A storm that ends right after demotion: the program must NOT re-promote
// when the weather clears — demotion is permanent for the program's
// lifetime — and the final state must still be exact.
TEST(FaultDifferential, DemoteThenRecoverStaysDemotedAndExact) {
  for (LoopCase &C : buildPaperLoops(32)) {
    if (!C.PR.Adaptive || !C.PR.Rtm)
      continue;
    core::FaultPlan Plan;
    Plan.Tx.Seed = 32;
    Plan.Tx.AbortProb = 1.0;
    Plan.Tx.Reason = rtm::AbortReason::Conflict;
    // Enough injections to abort every tile of the first ~9 invocations
    // (driving demotion), then the storm ends and the world is calm for
    // the remaining invocations.
    Plan.Tx.MaxInjected = 2000;
    std::vector<ir::Bindings> Invocations = repeated(C.In.B, 16);
    core::DiffVerdict V = core::runDifferentialMulti(
        *C.F, C.PR.Scalar, *C.PR.Adaptive, C.In.Image, Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << C.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << C.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    EXPECT_EQ(D.Demotions, 1u)
        << C.Name << ": one demotion, no flapping after the storm ends";
    EXPECT_EQ(D.State, 1u)
        << C.Name << ": must stay demoted once the abort budget was burned";
  }
}

// --- Resilience policy, machine level ------------------------------------===//

namespace {

class ResilienceTest : public ::testing::Test {
protected:
  mem::Memory M;
  emu::Machine Mach{M};

  void SetUp() override { M.map(0x1000, 4 * mem::PageSize); }
};

} // namespace

TEST_F(ResilienceTest, NestedTransactionIsArchitecturalAbortNotProcessDeath) {
  ProgramBuilder B;
  auto OuterAbort = B.createLabel();
  auto InnerAbort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 111); // Rolled back to 111 on abort.
  B.xbegin(OuterAbort);
  B.movImm(Reg::scalar(2), 222);
  B.movImm(Reg::scalar(3), 9);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xbegin(InnerAbort); // Nested XBEGIN: aborts the running transaction.
  B.movImm(Reg::scalar(4), 1);
  B.xend();
  B.jmp(Done);
  B.bind(InnerAbort);
  B.movImm(Reg::scalar(5), 1); // Must never run: the OUTER target is taken.
  B.jmp(Done);
  B.bind(OuterAbort);
  B.movImm(Reg::scalar(6), 1);
  B.bind(Done);
  B.halt();
  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(2), 111) << "register rollback";
  EXPECT_EQ(Mach.getScalar(4), 0);
  EXPECT_EQ(Mach.getScalar(5), 0) << "inner abort target must not be taken";
  EXPECT_EQ(Mach.getScalar(6), 1) << "outer abort handler ran";
  EXPECT_EQ(M.get<int32_t>(0x1000), 0) << "memory rollback";
  EXPECT_EQ(Mach.txStats().AbortsNested, 1u);
  ASSERT_EQ(R.AbortHistory.size(), 1u);
  EXPECT_EQ(R.AbortHistory[0], rtm::AbortReason::Nested);
}

TEST_F(ResilienceTest, ThousandConsecutiveAbortsFallBackAndSurvive) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortProb = 1.0; // Every transactional operation aborts.
  TxPlan.Reason = rtm::AbortReason::Conflict;
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  // for (i = 0; i < 1000; ++i) { XBEGIN; store; XEND } with the abort
  // handler counting fallbacks in r3.
  ProgramBuilder B;
  auto Header = B.createLabel();
  auto Abort = B.createLabel();
  auto Cont = B.createLabel();
  auto Exit = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1100);
  B.movImm(Reg::scalar(2), 0); // i
  B.movImm(Reg::scalar(3), 0); // fallback count
  B.movImm(Reg::scalar(5), 7);
  B.bind(Header);
  B.cmpImm(Reg::scalar(4), CmpKind::LT, Reg::scalar(2), 1000);
  B.brZero(Reg::scalar(4), Exit);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(5));
  B.xend();
  B.jmp(Cont);
  B.bind(Abort);
  B.binOpImm(Opcode::AddImm, Reg::scalar(3), Reg::scalar(3), 1);
  B.bind(Cont);
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(2), 1);
  B.jmp(Header);
  B.bind(Exit);
  B.halt();

  emu::RunLimits Limits;
  Limits.MaxRtmRetries = 4;
  emu::ExecResult R = Mach.run(B.finalize(), Limits);
  ASSERT_EQ(R.Reason, emu::StopReason::Halted)
      << "a storm of aborts must degrade to the fallback path, not kill "
         "the run: "
      << R.describe();
  EXPECT_EQ(Mach.getScalar(3), 1000) << "every iteration fell back";
  EXPECT_EQ(R.Stats.RtmFallbacks, 1000u);
  EXPECT_EQ(R.Stats.RtmBudgetExhausted, 1000u)
      << "every fallback here came from burning the retry budget";
  EXPECT_EQ(R.Stats.RtmRetries, 4000u) << "4 bounded retries per iteration";
  EXPECT_GT(R.Stats.BackoffCycles, 0u);
  EXPECT_EQ(Inj.stats().TxAbortsInjected, 5000u);
  EXPECT_EQ(M.get<int32_t>(0x1100), 0) << "no aborted store ever committed";
  EXPECT_EQ(R.AbortHistory.size(), emu::ExecResult::MaxAbortHistory);
}

TEST_F(ResilienceTest, RetryableAbortsEventuallyCommit) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortProb = 1.0;
  TxPlan.Reason = rtm::AbortReason::Conflict;
  TxPlan.MaxInjected = 2; // Transient storm: first two attempts abort.
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(3), 42);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::RunLimits Limits;
  Limits.MaxRtmRetries = 4;
  emu::ExecResult R = Mach.run(B.finalize(), Limits);
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(4), 0) << "fallback must not be taken";
  EXPECT_EQ(M.get<int32_t>(0x1000), 42) << "third attempt committed";
  EXPECT_EQ(R.Stats.RtmRetries, 2u);
  EXPECT_EQ(R.Stats.RtmFallbacks, 0u);
  EXPECT_EQ(R.Stats.BackoffCycles, (1u << 1) + (1u << 2))
      << "exponential backoff across the two retries";
  EXPECT_EQ(Mach.txStats().Commits, 1u);
  EXPECT_EQ(Mach.txStats().AbortsByConflict, 2u);
}

TEST_F(ResilienceTest, NonRetryableAbortDispatchesStraightToFallback) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortNthOp = 1;
  TxPlan.Reason = rtm::AbortReason::Capacity; // Deterministic: no retry.
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(3), 42);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  // The fallback does the work non-transactionally.
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(4), 1) << "fallback taken";
  EXPECT_EQ(M.get<int32_t>(0x1000), 42) << "fallback completed the work";
  EXPECT_EQ(R.Stats.RtmRetries, 0u) << "capacity aborts are not retried";
  EXPECT_EQ(R.Stats.RtmFallbacks, 1u);
}

TEST_F(ResilienceTest, TransientMemFaultInsideTxHealsForTheFallback) {
  M.set<int32_t>(0x1000, 77);
  faults::MemFaultPlan MemPlan;
  MemPlan.Ranges.push_back({0x1000, 0x1040, 1.0,
                            faults::FaultDuration::Transient});
  faults::FaultInjector Inj(MemPlan);
  Inj.arm(M, &Mach.tx());

  // The transactional load hits the (transient) fault, aborts the
  // transaction, and the fallback's non-transactional reload succeeds
  // because the line has healed.
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.xbegin(Abort);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.load(Reg::scalar(3), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted) << R.describe();
  EXPECT_EQ(Mach.getScalar(4), 1) << "fault abort dispatched to fallback";
  EXPECT_EQ(Mach.getScalar(3), 77) << "healed line readable in fallback";
  EXPECT_EQ(Mach.txStats().AbortsByFault, 1u);
  EXPECT_EQ(Inj.stats().MemFaultsInjected, 1u);
}

// --- Harness-level structured reports ------------------------------------===//

// The stop report of a failing run is the failing invocation's whole
// ExecResult (reason, PC, opcode) over the stats of every invocation run,
// with and without an injector armed.
TEST(FaultHarness, BudgetWatchdogProducesStructuredDiagnostics) {
  std::vector<LoopCase> Cases = buildPaperLoops(21);
  LoopCase &C = Cases[0];
  core::FaultPlan Plan;
  Plan.Limits.MaxInstructions = 50; // Far below what the loop needs.
  const std::vector<ir::Bindings> Invocations{C.In.B, C.In.B};
  core::FaultedRun Run = core::runProgramMultiWithFaults(
      *C.F, C.PR.Scalar, C.In.Image, Invocations, Plan);
  core::RunOutcome Plain = core::runProgramMulti(
      *C.F, C.PR.Scalar, C.In.Image, Invocations, nullptr, Plan.Limits);
  for (const core::RunOutcome *Out : {&Run.Outcome, &Plain}) {
    const std::string Report = Out->Exec.describe();
    EXPECT_FALSE(Out->Ok);
    EXPECT_EQ(Out->Exec.Reason, emu::StopReason::BudgetExceeded) << Report;
    EXPECT_EQ(Out->Exec.Stats.Instructions, 50u);
    EXPECT_NE(Out->Exec.FaultOp, isa::Opcode::Nop) << Report;
    EXPECT_NE(Report.find("budget-exceeded"), std::string::npos) << Report;
    EXPECT_NE(Report.find(std::string("(") +
                          isa::opcodeName(Out->Exec.FaultOp) + ")"),
              std::string::npos)
        << Report;
  }
  EXPECT_NE(Run.report().find("pc="), std::string::npos) << Run.report();
}

TEST(FaultHarness, FailNthAccessYieldsStructuredFaultReport) {
  std::vector<LoopCase> Cases = buildPaperLoops(22);
  LoopCase &C = Cases[0];
  core::FaultPlan Plan;
  Plan.Mem.FailNthAccess = 7;
  core::FaultedRun Run = core::runProgramMultiWithFaults(
      *C.F, C.PR.Scalar, C.In.Image, {C.In.B}, Plan);
  EXPECT_FALSE(Run.Outcome.Ok);
  EXPECT_EQ(Run.Outcome.Exec.Reason, emu::StopReason::Fault);
  EXPECT_EQ(Run.Injection.MemFaultsInjected, 1u);
  EXPECT_NE(Run.Outcome.Exec.FaultAddr, 0u);
  EXPECT_NE(Run.report().find("fault"), std::string::npos) << Run.report();
}

// --- The contract an unarmed memory side rests on ------------------------===//

namespace {

/// A memory hook that never fires: all it does is force every access down
/// Memory's out-of-line path and switch the block copies off.
class InertHook : public mem::FaultHook {
public:
  bool shouldFault(uint64_t, uint64_t, bool, uint64_t &) override {
    return false;
  }
};

/// What one run of a program over an invocation sequence leaves behind.
struct HookedRun {
  bool Ok = true;
  std::vector<int64_t> Scalars; ///< Every scalar param, every invocation.
  uint64_t Fingerprint = 0;
  emu::ExecStats Exec;
  rtm::TxStats Tx;
  mem::MemoryStats Mem;
};

/// Runs \p CL over \p Invocations on a clone of \p Image with \p Hook (or
/// none) installed by hand and a Tx-only injector armed for \p Storm.
HookedRun runHooked(const ir::LoopFunction &F, const codegen::CompiledLoop &CL,
                    const mem::Memory &Image,
                    const std::vector<ir::Bindings> &Invocations,
                    mem::FaultHook *Hook, const faults::TxFaultPlan &Storm) {
  HookedRun Out;
  mem::Memory M = Image.clone();
  const bool Adaptive = CL.Kind == codegen::CodeGenKind::FlexVecAdaptive;
  if (Adaptive)
    M.map(driver::dispatch::CellAddr, driver::dispatch::CellSize);
  emu::Machine Mach(M);
  faults::FaultInjector Inj(faults::MemFaultPlan(), Storm);
  Inj.arm(M, &Mach.tx());
  M.setFaultHook(Hook);
  for (const ir::Bindings &B : Invocations) {
    Mach.resetRegisters();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Mach.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                     B.ScalarValues[S]);
    for (size_t A = 0; A < B.ArrayBases.size(); ++A)
      Mach.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                     static_cast<int64_t>(B.ArrayBases[A]));
    emu::ExecResult R = Mach.run(CL.Prog);
    Out.Exec.merge(R.Stats);
    if (R.Reason != emu::StopReason::Halted) {
      Out.Ok = false;
      break;
    }
    for (size_t S = 0; S < F.scalars().size(); ++S)
      Out.Scalars.push_back(Mach.getScalar(
          codegen::scalarParamReg(static_cast<int>(S)).Index));
  }
  M.setFaultHook(nullptr);
  Inj.disarm();
  Out.Tx = Mach.txStats();
  Out.Mem = M.stats();
  if (Adaptive)
    M.unmap(driver::dispatch::CellAddr, driver::dispatch::CellSize);
  Out.Fingerprint = M.fingerprint();
  return Out;
}

void expectSameRun(const HookedRun &A, const HookedRun &B,
                   const std::string &Where) {
  EXPECT_EQ(A.Ok, B.Ok) << Where;
  EXPECT_EQ(A.Scalars, B.Scalars) << Where;
  EXPECT_EQ(A.Fingerprint, B.Fingerprint) << Where;

  const rtm::TxStats &T = A.Tx, &U = B.Tx;
  EXPECT_EQ(std::vector<uint64_t>({T.Begins, T.Commits, T.Aborts,
                                   T.AbortsByFault, T.AbortsByCapacity,
                                   T.AbortsExplicit, T.AbortsByConflict,
                                   T.AbortsSpurious, T.AbortsNested,
                                   T.InjectedAborts, T.BytesLogged}),
            std::vector<uint64_t>({U.Begins, U.Commits, U.Aborts,
                                   U.AbortsByFault, U.AbortsByCapacity,
                                   U.AbortsExplicit, U.AbortsByConflict,
                                   U.AbortsSpurious, U.AbortsNested,
                                   U.InjectedAborts, U.BytesLogged}))
      << Where << ": TxStats";
  EXPECT_EQ(A.Mem.TlbHits, B.Mem.TlbHits) << Where;
  EXPECT_EQ(A.Mem.TlbMisses, B.Mem.TlbMisses) << Where;
  EXPECT_EQ(A.Mem.CowCopies, B.Mem.CowCopies) << Where;

  // SimdUnitStrideHits records which host path ran, so it is the one
  // counter an installed hook may move.
  const emu::ExecStats &E = A.Exec, &G = B.Exec;
  EXPECT_EQ(std::vector<uint64_t>(
                {E.Instructions, E.Branches, E.TakenBranches,
                 E.MemoryAccesses, E.VectorOps, E.RtmRetries, E.RtmFallbacks,
                 E.RtmBudgetExhausted, E.BackoffCycles, E.TraceBatches,
                 E.VplSteps, E.VplPartitions, E.FFClips, E.FFSuppressedLanes,
                 E.ConflictChecks, E.ConflictHits, E.SimdMaskShortcircuits}),
            std::vector<uint64_t>(
                {G.Instructions, G.Branches, G.TakenBranches,
                 G.MemoryAccesses, G.VectorOps, G.RtmRetries, G.RtmFallbacks,
                 G.RtmBudgetExhausted, G.BackoffCycles, G.TraceBatches,
                 G.VplSteps, G.VplPartitions, G.FFClips, G.FFSuppressedLanes,
                 G.ConflictChecks, G.ConflictHits, G.SimdMaskShortcircuits}))
      << Where << ": ExecStats";
  EXPECT_EQ(E.MaskDensity, G.MaskDensity) << Where;
  EXPECT_EQ(E.MaskDensityUsed, G.MaskDensityUsed) << Where;
  EXPECT_EQ(E.RtmRetryDepth, G.RtmRetryDepth) << Where;
  EXPECT_EQ(E.OpcodeCounts, G.OpcodeCounts) << Where;
}

} // namespace

// FaultInjector::arm leaves the memory hook out under a Tx-only plan, which
// is exact only because an installed hook that never fires is invisible:
// Memory's inline TLB path and block copies book exactly what the
// out-of-line per-access path books. Every generated variant of every
// corpus loop runs with and without an inert hook, calm and under a
// conflict storm.
TEST(FaultInjector, InertMemoryHookIsInvisible) {
  const std::filesystem::path Dir =
      std::filesystem::path(FLEXVEC_SOURCE_DIR) / "tests" / "corpus";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".fv")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  const gen::Envelope E = gen::Envelope::classic();
  gen::CheckOptions CO;
  CO.Inputs.IndexMask = E.IndexMask;
  CO.Inputs.IndexBound = E.TableSize;
  CO.Inputs.ArraySlack = E.MaxAffineOffset + 4;

  faults::TxFaultPlan Storm;
  Storm.AbortProb = 0.5;
  Storm.Reason = rtm::AbortReason::Conflict;
  InertHook Hook;
  uint64_t Unhooked = 0, Hooked = 0, Begins = 0;
  for (const std::filesystem::path &Path : Files) {
    const std::string Name = Path.stem().string();
    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    ir::ParseResult P = ir::parseLoop(SS.str());
    ASSERT_TRUE(P) << Name << ": " << P.Error;
    driver::CompileResult PR = driver::compileLoop(*P.F);

    mem::Memory Image;
    ir::Bindings B;
    gen::buildRoundInputs(*P.F, fnv1a64(Name), 0, CO, Image, B);
    const std::vector<ir::Bindings> Invocations(4, B);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      for (const faults::TxFaultPlan &Tx : {faults::TxFaultPlan(), Storm}) {
        const std::string Where =
            Name + " " + core::variantName(static_cast<core::VariantId>(V)) +
            (Tx.enabled() ? " storm" : " calm");
        HookedRun Plain = runHooked(*P.F, *CL, Image, Invocations, nullptr, Tx);
        HookedRun WithHook =
            runHooked(*P.F, *CL, Image, Invocations, &Hook, Tx);
        EXPECT_TRUE(Plain.Ok) << Where;
        expectSameRun(Plain, WithHook, Where);
        Unhooked += Plain.Exec.SimdUnitStrideHits;
        Hooked += WithHook.Exec.SimdUnitStrideHits;
        Begins += Plain.Tx.Begins;
      }
    }
  }
  // The comparison covers both fast paths and transactions: without the
  // hook some unit-stride accesses collapsed to block copies, with it none.
  EXPECT_GT(Unhooked, 0u);
  EXPECT_EQ(Hooked, 0u);
  EXPECT_GT(Begins, 0u);
}
