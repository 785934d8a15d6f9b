//===- tests/EmuTest.cpp - Functional emulator unit tests ------------------===//

#include "emu/Machine.h"
#include "isa/Program.h"

#include <gtest/gtest.h>

#include <memory>

using namespace flexvec;
using namespace flexvec::isa;
using namespace flexvec::emu;

namespace {

class EmuTest : public ::testing::Test {
protected:
  mem::Memory M;
  Machine Mach{M};

  ExecResult run(ProgramBuilder &B) { return Mach.run(B.finalize()); }
};

} // namespace

TEST_F(EmuTest, ScalarArithmetic) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 10);
  B.movImm(Reg::scalar(2), 3);
  B.binOp(Opcode::Sub, Reg::scalar(3), Reg::scalar(1), Reg::scalar(2));
  B.binOp(Opcode::Mul, Reg::scalar(4), Reg::scalar(3), Reg::scalar(3));
  B.binOpImm(Opcode::ShlImm, Reg::scalar(5), Reg::scalar(1), 3);
  B.binOp(Opcode::Min, Reg::scalar(6), Reg::scalar(1), Reg::scalar(2));
  B.halt();
  ASSERT_EQ(run(B).Reason, StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(3), 7);
  EXPECT_EQ(Mach.getScalar(4), 49);
  EXPECT_EQ(Mach.getScalar(5), 80);
  EXPECT_EQ(Mach.getScalar(6), 3);
}

TEST_F(EmuTest, ScalarFloat64) {
  ProgramBuilder B;
  B.fmovImm(Reg::scalar(1), ElemType::F64, 1.5);
  B.fmovImm(Reg::scalar(2), ElemType::F64, 2.25);
  B.fbinOp(Opcode::FMul, ElemType::F64, Reg::scalar(3), Reg::scalar(1),
           Reg::scalar(2));
  B.fcmp(Reg::scalar(4), CmpKind::LT, ElemType::F64, Reg::scalar(1),
         Reg::scalar(2));
  B.halt();
  run(B);
  EXPECT_DOUBLE_EQ(Mach.getScalarF64(3), 3.375);
  EXPECT_EQ(Mach.getScalar(4), 1);
}

TEST_F(EmuTest, ScalarFloat32UsesSinglePrecision) {
  ProgramBuilder B;
  B.fmovImm(Reg::scalar(1), ElemType::F32, 16777216.0); // 2^24
  B.fmovImm(Reg::scalar(2), ElemType::F32, 1.0);
  B.fbinOp(Opcode::FAdd, ElemType::F32, Reg::scalar(3), Reg::scalar(1),
           Reg::scalar(2));
  B.halt();
  run(B);
  EXPECT_EQ(Mach.getScalarF32(3), 16777216.0f);
}

TEST_F(EmuTest, BranchesAndLoop) {
  // Sum 0..9 with a scalar loop.
  ProgramBuilder B;
  auto Header = B.createLabel();
  auto Exit = B.createLabel();
  B.movImm(Reg::scalar(1), 0);  // i
  B.movImm(Reg::scalar(2), 0);  // sum
  B.bind(Header);
  B.cmpImm(Reg::scalar(3), CmpKind::LT, Reg::scalar(1), 10);
  B.brZero(Reg::scalar(3), Exit);
  B.binOp(Opcode::Add, Reg::scalar(2), Reg::scalar(2), Reg::scalar(1));
  B.binOpImm(Opcode::AddImm, Reg::scalar(1), Reg::scalar(1), 1);
  B.jmp(Header);
  B.bind(Exit);
  B.halt();
  ExecResult R = run(B);
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(2), 45);
  EXPECT_EQ(R.Stats.Branches, 21u); // 11 brz + 10 jmp.
  EXPECT_EQ(R.Stats.TakenBranches, 11u);
}

TEST_F(EmuTest, LoadSignExtendsI32) {
  M.map(0x1000, 64);
  M.set<int32_t>(0x1000, -5);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.halt();
  run(B);
  EXPECT_EQ(Mach.getScalar(2), -5);
}

TEST_F(EmuTest, UnhandledFaultStopsExecution) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x50000);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.halt();
  ExecResult R = run(B);
  EXPECT_EQ(R.Reason, StopReason::Fault);
  EXPECT_EQ(R.FaultAddr, 0x50000u);
}

TEST_F(EmuTest, IntegerDivideErrorStopsExecution) {
  // Signed division truncates toward zero; a zero divisor and
  // INT64_MIN / -1 have no result and stop the run at the Div unretired.
  struct Case {
    int64_t A, B;
    bool Ok;
    int64_t Q;
  } Cases[] = {{7, -2, true, -3},
               {-7, 2, true, -3},
               {7, 0, false, 0},
               {INT64_MIN, -1, false, 0},
               {INT64_MIN, 1, true, INT64_MIN}};
  for (const Case &C : Cases) {
    ProgramBuilder B;
    B.movImm(Reg::scalar(1), C.A);
    B.movImm(Reg::scalar(2), C.B);
    B.binOp(Opcode::Div, Reg::scalar(3), Reg::scalar(1), Reg::scalar(2));
    B.halt();
    ExecResult R = run(B);
    if (C.Ok) {
      ASSERT_EQ(R.Reason, StopReason::Halted) << R.describe();
      EXPECT_EQ(Mach.getScalar(3), C.Q);
      continue;
    }
    EXPECT_EQ(R.Reason, StopReason::DivideError);
    EXPECT_EQ(R.FaultPC, 2u);
    EXPECT_EQ(R.FaultOp, Opcode::Div);
    EXPECT_EQ(R.Stats.Instructions, 2u) << "the Div does not retire";
    EXPECT_EQ(R.describe(), "divide-error at pc=2 (div)");
  }
}

TEST_F(EmuTest, BudgetWatchdogStopsRunawayLoops) {
  ProgramBuilder B;
  auto L = B.createLabel();
  B.bind(L);
  B.jmp(L);
  Program P = B.finalize();
  RunLimits Limits;
  Limits.MaxInstructions = 1000;
  ExecResult R = Mach.run(P, Limits);
  EXPECT_EQ(R.Reason, StopReason::BudgetExceeded);
  EXPECT_EQ(R.Stats.Instructions, 1000u);
  // The watchdog reports where the runaway loop was spinning.
  EXPECT_EQ(R.FaultPC, 0u);
  EXPECT_EQ(R.FaultOp, Opcode::Jmp);
}

TEST_F(EmuTest, VectorIndexCompareAndReduce) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 100);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(1)); // 100..115
  B.vcmpImm(Reg::mask(1), CmpKind::LT, ElemType::I32, Reg::vector(1), 108);
  B.kpopcnt(Reg::scalar(2), Reg::mask(1));
  B.movImm(Reg::scalar(3), 0);
  B.vreduce(Opcode::VReduceAdd, ElemType::I32, Reg::scalar(4), Reg::mask(1),
            Reg::vector(1), Reg::scalar(3));
  B.halt();
  run(B);
  EXPECT_EQ(Mach.getScalar(2), 8);
  EXPECT_EQ(Mach.getScalar(4), 100 + 101 + 102 + 103 + 104 + 105 + 106 + 107);
}

TEST_F(EmuTest, VectorLoadStoreRoundTrip) {
  M.map(0x1000, 256);
  for (int I = 0; I < 16; ++I)
    M.set<int32_t>(0x1000 + static_cast<uint64_t>(I) * 4, I * 3);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 0x1080);
  B.vload(Reg::vector(1), ElemType::I32, Reg::none(), Reg::scalar(1),
          Reg::none(), 1, 0);
  B.vbinOpImm(Opcode::VAddImm, ElemType::I32, Reg::vector(2), Reg::vector(1),
              1000);
  B.vstore(ElemType::I32, Reg::none(), Reg::scalar(2), Reg::none(), 1, 0,
           Reg::vector(2));
  B.halt();
  ASSERT_EQ(run(B).Reason, StopReason::Halted);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(M.get<int32_t>(0x1080 + static_cast<uint64_t>(I) * 4),
              I * 3 + 1000);
}

TEST_F(EmuTest, GatherWithScaleAndDisp) {
  M.map(0x1000, 4096);
  for (int I = 0; I < 64; ++I)
    M.set<int32_t>(0x1000 + static_cast<uint64_t>(I) * 4, 1000 + I);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 2);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(2)); // indices 2..17
  B.vgather(Reg::vector(2), ElemType::I32, Reg::none(), Reg::scalar(1),
            Reg::vector(1), 4, /*Disp=*/8);
  B.halt();
  run(B);
  // Element = base + idx*4 + 8 → value 1000 + idx + 2.
  for (unsigned L = 0; L < 16; ++L)
    EXPECT_EQ(Mach.getVector(2).laneInt(ElemType::I32, L),
              1000 + 2 + static_cast<int>(L) + 2);
}

TEST_F(EmuTest, FirstFaultingLoadClipsMaskAtGuardPage) {
  // One page of data followed by the BumpAllocator's unmapped guard page.
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data(1024);
  for (int I = 0; I < 1024; ++I)
    Data[I] = I;
  uint64_t Base = Alloc.allocArray(Data);
  // Start 8 elements before the guard page: lanes 0..7 are mapped, lane 8
  // lands exactly on the guard page.
  uint64_t Start = Base + 1024 * 4 - 8 * 4;
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), static_cast<int64_t>(Start));
  B.kset(Reg::mask(1), 0xFFFF);
  B.vmovff(Reg::vector(1), ElemType::I32, Reg::mask(1), Reg::scalar(1),
           Reg::none(), 1, 0);
  B.halt();
  ExecResult R = run(B);
  ASSERT_EQ(R.Reason, StopReason::Halted)
      << "a speculative-lane fault must not surface architecturally";
  EXPECT_EQ(Mach.getMask(1), 0xFFu)
      << "write mask clipped from the faulting lane rightward";
  for (unsigned L = 0; L < 8; ++L)
    EXPECT_EQ(Mach.getVector(1).laneInt(ElemType::I32, L),
              1016 + static_cast<int>(L));
}

TEST_F(EmuTest, FirstFaultingGatherClipsMaskAtGuardPage) {
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Tab(1024);
  for (int I = 0; I < 1024; ++I)
    Tab[I] = 2 * I;
  uint64_t Base = Alloc.allocArray(Tab);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), static_cast<int64_t>(Base));
  B.movImm(Reg::scalar(2), 1020); // Indices 1020..1035 run off the table.
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(2));
  B.kset(Reg::mask(1), 0xFFFF);
  B.vgatherff(Reg::vector(2), ElemType::I32, Reg::mask(1), Reg::scalar(1),
              Reg::vector(1), 4, 0);
  B.halt();
  ExecResult R = run(B);
  ASSERT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(Mach.getMask(1), 0xFu)
      << "only the in-bounds indices 1020..1023 survive";
  for (unsigned L = 0; L < 4; ++L)
    EXPECT_EQ(Mach.getVector(2).laneInt(ElemType::I32, L),
              2 * (1020 + static_cast<int>(L)));
}

TEST_F(EmuTest, FirstFaultingLeftmostLaneFaultsArchitecturally) {
  // The leftmost *enabled* lane is non-speculative (paper Section 3.3.1):
  // lanes 0..7 are disabled, lane 8 points into the guard page, so the
  // fault is architectural even though earlier addresses are mapped.
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data(1024, 5);
  uint64_t Base = Alloc.allocArray(Data);
  uint64_t Start = Base + 1024 * 4 - 8 * 4;
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), static_cast<int64_t>(Start));
  B.kset(Reg::mask(1), 0xFF00); // Leftmost enabled lane is lane 8.
  B.vmovff(Reg::vector(1), ElemType::I32, Reg::mask(1), Reg::scalar(1),
           Reg::none(), 1, 0);
  B.halt();
  ExecResult R = run(B);
  EXPECT_EQ(R.Reason, StopReason::Fault);
  EXPECT_EQ(R.FaultAddr, Start + 8 * 4);
  EXPECT_EQ(R.FaultPC, 2u);
  EXPECT_EQ(R.FaultOp, Opcode::VMovFF);
}

TEST_F(EmuTest, RtmAbortRestoresRegistersAndMemory) {
  M.map(0x1000, 4096);
  M.set<int32_t>(0x1000, 5);
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 111); // Will be rolled back to 111.
  B.xbegin(Abort);
  B.movImm(Reg::scalar(2), 222);
  B.movImm(Reg::scalar(3), 999);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xabort();
  B.bind(Abort);
  B.movImm(Reg::scalar(4), 1); // Abort path marker.
  B.bind(Done);
  B.halt();
  ASSERT_EQ(run(B).Reason, StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(2), 111) << "register rollback";
  EXPECT_EQ(Mach.getScalar(4), 1) << "control reached the abort handler";
  EXPECT_EQ(M.get<int32_t>(0x1000), 5) << "memory rollback";
}

TEST_F(EmuTest, RtmCommitKeepsWrites) {
  M.map(0x1000, 4096);
  ProgramBuilder B;
  auto Abort = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.xbegin(Abort);
  B.movImm(Reg::scalar(3), 42);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xend();
  B.bind(Abort); // Fallthrough target; never taken here.
  B.halt();
  ASSERT_EQ(run(B).Reason, StopReason::Halted);
  EXPECT_EQ(M.get<int32_t>(0x1000), 42);
}

TEST_F(EmuTest, RtmFaultInsideTransactionTransfersToHandler) {
  M.map(0x1000, 4096);
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x900000); // Unmapped.
  B.xbegin(Abort);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(4), 7);
  B.bind(Done);
  B.halt();
  ExecResult R = run(B);
  EXPECT_EQ(R.Reason, StopReason::Halted)
      << "a fault inside a transaction aborts instead of faulting";
  EXPECT_EQ(Mach.getScalar(4), 7);
}

TEST_F(EmuTest, OpcodeCountsTrackMix) {
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0xFF);
  B.kftmExc(Reg::mask(2), ElemType::I32, Reg::mask(1), Reg::mask(1));
  B.kftmInc(Reg::mask(3), ElemType::I32, Reg::mask(1), Reg::mask(1));
  B.halt();
  ExecResult R = run(B);
  EXPECT_EQ(R.Stats.countOf(Opcode::KFtmExc), 1u);
  EXPECT_EQ(R.Stats.countOf(Opcode::KFtmInc), 1u);
  EXPECT_EQ(R.Stats.countOf(Opcode::KSet), 1u);
}

TEST_F(EmuTest, ProgramCopyRunsAfterTheOriginalIsDestroyed) {
  // A Program carries its decoded table by value: a copy indexes its own
  // rows, so it runs (and traces) after the original is gone.
  struct RowCheckSink : TraceSink {
    const Program *P = nullptr;
    uint64_t Records = 0;
    void onBatch(const DynInstr *Batch, size_t N) override {
      for (size_t I = 0; I < N; ++I) {
        const DynInstr &DI = Batch[I];
        EXPECT_EQ(DI.Row, &P->decoded()[DI.InstrIdx]);
        EXPECT_EQ(DI.Row->Op, (*P)[DI.InstrIdx].Op);
        ++Records;
      }
    }
  };
  auto Original = std::make_unique<Program>([] {
    ProgramBuilder B;
    ProgramBuilder::Label Loop = B.createLabel();
    B.movImm(Reg::scalar(1), 0);
    B.bind(Loop);
    B.binOpImm(Opcode::AddImm, Reg::scalar(1), Reg::scalar(1), 1);
    B.cmpImm(Reg::scalar(2), CmpKind::LT, Reg::scalar(1), 100);
    B.brNonZero(Reg::scalar(2), Loop);
    B.halt();
    return B.finalize();
  }());
  Program Copy = *Original;
  Original.reset();
  RowCheckSink Sink;
  Sink.P = &Copy;
  ExecResult R = Mach.run(Copy, RunLimits(), &Sink);
  ASSERT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(1), 100);
  EXPECT_EQ(Sink.Records, 1u + 3 * 100);
}
