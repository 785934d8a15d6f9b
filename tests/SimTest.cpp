//===- tests/SimTest.cpp - OOO timing model sanity ------------------------===//
//
// The absolute cycle counts of the model are only meaningful as ratios,
// but several structural properties must hold: dependent chains cost
// latency, independent work overlaps, cache levels order correctly,
// mispredicts cost more than predicted branches, and the Table 1 FlexVec
// instruction latencies are observable (the paper's back-to-back
// micro-kernel methodology).
//
//===----------------------------------------------------------------------===//

#include "emu/Machine.h"
#include "sim/OooCore.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::isa;
using namespace flexvec::sim;

namespace {

/// Runs \p P through the emulator with an OooCore sink; returns stats.
SimStats timeProgram(const Program &P, mem::Memory &M) {
  OooCore Core;
  emu::Machine Mach(M);
  emu::ExecResult R = Mach.run(P, emu::RunLimits(), &Core);
  EXPECT_EQ(R.Reason, emu::StopReason::Halted);
  return Core.stats();
}

/// Emits N back-to-back *dependent* instances of a mask op and returns the
/// per-instance cycle cost (latency measurement, as in Section 5's
/// VPCONFLICTM methodology).
double dependentChainCost(Opcode Op, int N) {
  mem::Memory M;
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0xFFFF);
  B.kset(Reg::mask(2), 0x0100);
  for (int I = 0; I < N; ++I) {
    // Chain k3 -> k3.
    if (I == 0)
      B.kset(Reg::mask(3), 0x0010);
    Instruction Ins;
    Ins.Op = Op;
    Ins.Type = ElemType::I32;
    Ins.Dst = Reg::mask(3);
    Ins.Src1 = Reg::mask(3);
    Ins.MaskReg = Reg::mask(1);
    B.emit(Ins);
  }
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  return static_cast<double>(S.Cycles) / N;
}

} // namespace

TEST(Sim, DependentChainPaysFullLatency) {
  // 1000 dependent scalar multiplies (latency 3) ≈ 3000 cycles.
  mem::Memory M;
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 3);
  for (int I = 0; I < 1000; ++I)
    B.binOp(Opcode::Mul, Reg::scalar(1), Reg::scalar(1), Reg::scalar(1));
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  EXPECT_GE(S.Cycles, 2900u);
  EXPECT_LE(S.Cycles, 3300u);
}

TEST(Sim, IndependentWorkOverlaps) {
  // 1000 independent multiplies: throughput-bound, far below 3000 cycles.
  mem::Memory M;
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 3);
  for (int I = 0; I < 1000; ++I)
    B.binOp(Opcode::Mul, Reg::scalar(2), Reg::scalar(1), Reg::scalar(1));
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  EXPECT_LE(S.Cycles, 1500u);
}

TEST(Sim, FlexVecInstructionLatenciesMatchTable1) {
  // Dependent chains expose the latency: KFTM ≈ 2, VPCONFLICTM ≈ 20.
  double Kftm = dependentChainCost(Opcode::KFtmExc, 500);
  EXPECT_NEAR(Kftm, 2.0, 0.5);
  double KftmInc = dependentChainCost(Opcode::KFtmInc, 500);
  EXPECT_NEAR(KftmInc, 2.0, 0.5);

  // VPSLCTLAST chained through its vector operand.
  mem::Memory M;
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0x00FF);
  for (int I = 0; I < 500; ++I)
    B.vslctlast(Reg::vector(1), ElemType::I32, Reg::mask(1), Reg::vector(1));
  B.halt();
  double Slct = static_cast<double>(timeProgram(B.finalize(), M).Cycles) / 500;
  EXPECT_NEAR(Slct, 3.0, 0.5);

  // VPCONFLICTM chained dst->src via an intervening mask-to-vector dep is
  // awkward; chain through the write-enable instead is not dependent, so
  // chain v1 <- blend(conflict result) is overkill: measure via dst-as-src
  // using VConflictM's mask output feeding KFTM feeding the next enable.
  ProgramBuilder B2;
  mem::Memory M2;
  B2.kset(Reg::mask(1), 0xFFFF);
  for (int I = 0; I < 200; ++I) {
    B2.vconflictm(Reg::mask(2), ElemType::I32, Reg::mask(1), Reg::vector(1),
                  Reg::vector(2));
    B2.kftmExc(Reg::mask(1), ElemType::I32, Reg::mask(2), Reg::mask(2));
  }
  B2.halt();
  double Pair = static_cast<double>(timeProgram(B2.finalize(), M2).Cycles) /
                200;
  // 20 (conflict) + 2 (kftm) per round trip.
  EXPECT_NEAR(Pair, 22.0, 2.0);
}

TEST(Sim, CacheHierarchyLatenciesOrder) {
  // Pointer-chase (dependent loads) over working sets sized for each
  // level; cycles per load must increase L1 -> L2 -> L3 -> memory.
  auto chase = [](uint64_t Elems) {
    mem::Memory M;
    uint64_t Base = 0x100000;
    M.map(Base, Elems * 8 + 64);
    // Permutation walk with a stride large enough to dodge the streaming
    // prefetcher; iterate the chain many times so cold misses wash out.
    uint64_t Step = 97;
    for (uint64_t I = 0; I < Elems; ++I)
      M.set<int64_t>(Base + I * 8,
                     static_cast<int64_t>(((I + Step) % Elems) * 8));
    int64_t N = static_cast<int64_t>(Elems) * 4;
    ProgramBuilder B;
    auto Header = B.createLabel();
    auto Exit = B.createLabel();
    B.movImm(Reg::scalar(1), static_cast<int64_t>(Base));
    B.movImm(Reg::scalar(2), 0); // Chain cursor.
    B.movImm(Reg::scalar(5), 0); // Counter.
    B.bind(Header);
    B.cmpImm(Reg::scalar(6), CmpKind::LT, Reg::scalar(5), N);
    B.brZero(Reg::scalar(6), Exit);
    B.load(Reg::scalar(2), ElemType::I64, Reg::scalar(1), Reg::scalar(2), 1,
           0);
    B.binOpImm(Opcode::AddImm, Reg::scalar(5), Reg::scalar(5), 1);
    B.jmp(Header);
    B.bind(Exit);
    B.halt();
    SimStats S = timeProgram(B.finalize(), M);
    return static_cast<double>(S.Cycles) / static_cast<double>(N);
  };
  double L1 = chase(512);        // 4 KiB.
  double L2 = chase(8 * 1024);   // 64 KiB: fits L2, not L1.
  double L3 = chase(96 * 1024);  // 768 KiB: fits L3, not L2.
  EXPECT_LT(L1 + 1.0, L2);
  EXPECT_LT(L2 + 2.0, L3);
  // ~5 cycles of load-to-use chain plus amortized cold misses.
  EXPECT_GT(L1, 4.5);
  EXPECT_LT(L1, 11.0);
}

TEST(Sim, MispredictsCostCycles) {
  // A data-dependent unpredictable branch vs an always-taken one.
  auto branchy = [](bool Random) {
    mem::Memory M;
    M.map(0x1000, 64 * 1024);
    Rng R(5);
    for (int I = 0; I < 8192; ++I)
      M.set<int32_t>(0x1000 + static_cast<uint64_t>(I) * 4,
                     Random ? static_cast<int32_t>(R.nextBelow(2)) : 1);
    ProgramBuilder B;
    auto Header = B.createLabel();
    auto Skip = B.createLabel();
    auto Exit = B.createLabel();
    B.movImm(Reg::scalar(1), 0);
    B.movImm(Reg::scalar(4), 0x1000);
    B.bind(Header);
    B.cmpImm(Reg::scalar(2), CmpKind::LT, Reg::scalar(1), 8192);
    B.brZero(Reg::scalar(2), Exit);
    B.load(Reg::scalar(3), ElemType::I32, Reg::scalar(4), Reg::scalar(1), 4,
           0);
    B.brZero(Reg::scalar(3), Skip);
    B.binOpImm(Opcode::AddImm, Reg::scalar(5), Reg::scalar(5), 1);
    B.bind(Skip);
    B.binOpImm(Opcode::AddImm, Reg::scalar(1), Reg::scalar(1), 1);
    B.jmp(Header);
    B.bind(Exit);
    B.halt();
    return B.finalize();
  };
  mem::Memory M1, M2;
  M1.map(0x1000, 64 * 1024);
  M2.map(0x1000, 64 * 1024);
  Rng R(5);
  for (int I = 0; I < 8192; ++I) {
    M1.set<int32_t>(0x1000 + static_cast<uint64_t>(I) * 4,
                    static_cast<int32_t>(R.nextBelow(2)));
    M2.set<int32_t>(0x1000 + static_cast<uint64_t>(I) * 4, 1);
  }
  SimStats SRand = timeProgram(branchy(true), M1);
  SimStats SPred = timeProgram(branchy(false), M2);
  EXPECT_GT(SRand.Mispredicts, 2000u);
  EXPECT_LT(SPred.Mispredicts, 200u);
  EXPECT_GT(SRand.Cycles, SPred.Cycles + 10000u);
}

TEST(Sim, StreamingPrefetcherHidesSequentialMisses) {
  mem::Memory M;
  uint64_t Base = 0x100000;
  uint64_t Elems = 64 * 1024; // 256 KiB: every line misses L1/L2 cold.
  uint64_t Lines = Elems * 4 / mem::LineBytes;
  M.map(Base, Elems * 4);
  ProgramBuilder B;
  auto Header = B.createLabel();
  auto Exit = B.createLabel();
  B.movImm(Reg::scalar(1), 0);
  B.movImm(Reg::scalar(4), static_cast<int64_t>(Base));
  B.bind(Header);
  B.cmpImm(Reg::scalar(2), CmpKind::LT, Reg::scalar(1),
           static_cast<int64_t>(Elems));
  B.brZero(Reg::scalar(2), Exit);
  B.load(Reg::scalar(3), ElemType::I32, Reg::scalar(4), Reg::scalar(1), 4, 0);
  B.binOpImm(Opcode::AddImm, Reg::scalar(1), Reg::scalar(1), 1);
  B.jmp(Header);
  B.bind(Exit);
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  // Without the prefetcher each of the Lines cold lines goes to DRAM; with
  // it only the lines before a page's stream is confirmed do.
  EXPECT_GT(S.Mem.PrefetchIssued, 0u);
  EXPECT_LT(S.Mem.MemAccesses, Lines / 4);
}

TEST(Sim, GatherExpandsToLaneUops) {
  mem::Memory M;
  M.map(0x1000, 4096);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 0);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(2));
  B.kset(Reg::mask(1), 0xFFFF);
  B.vgather(Reg::vector(2), ElemType::I32, Reg::mask(1), Reg::scalar(1),
            Reg::vector(1), 4, 0);
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  // 16 active lanes -> at least 16 memory uops + AGU + the setup.
  EXPECT_GE(S.Uops, 20u);
}

TEST(Sim, Table1ConfigIsDefault) {
  EXPECT_EQ(FetchWidth, 5u);
  EXPECT_EQ(CommitWidth, 5u);
  EXPECT_EQ(RsEntries, 97u);
  EXPECT_EQ(RobEntries, 224u);
  EXPECT_EQ(LoadQueueEntries, 80u);
  EXPECT_EQ(StoreQueueEntries, 56u);
  EXPECT_EQ(L1D.SizeBytes, 32u * 1024);
  EXPECT_EQ(L1D.LatencyCycles, 4u);
  EXPECT_EQ(L2.SizeBytes, 256u * 1024);
  EXPECT_EQ(L2.LatencyCycles, 12u);
  EXPECT_EQ(L3.SizeBytes, 8u * 1024 * 1024);
  EXPECT_EQ(L3.LatencyCycles, 25u);
  EXPECT_EQ(MemoryLatency, 200u);
  EXPECT_EQ(LoadPorts, 2u);
  EXPECT_EQ(StorePorts, 1u);
}

TEST(Sim, WideVectorAluOpsIssueOneUopGroupPerSlice) {
  // Two broadcasts and a dependent vadd chain: every instruction is a
  // one-uop vector-ALU op, and the model's datapath is 512 bits wide, so a
  // 1024-bit program double-pumps each one and a 2048-bit program
  // quad-pumps it.
  constexpr unsigned ChainLen = 16;
  auto uopsAt = [](unsigned VecBytes) {
    mem::Memory M;
    ProgramBuilder B;
    B.setVectorBytes(VecBytes);
    B.vbroadcastImm(Reg::vector(1), ElemType::I32, 1);
    B.vbroadcastImm(Reg::vector(2), ElemType::I32, 2);
    for (unsigned I = 0; I < ChainLen; ++I)
      B.vbinOp(Opcode::VAdd, ElemType::I32, Reg::vector(1), Reg::vector(1),
               Reg::vector(2));
    B.halt();
    SimStats S = timeProgram(B.finalize(), M);
    EXPECT_EQ(S.Instructions, ChainLen + 2);
    return S.Uops;
  };
  EXPECT_EQ(uopsAt(64), 18u);
  EXPECT_EQ(uopsAt(128), 36u);
  EXPECT_EQ(uopsAt(256), 72u);
}

namespace {

/// Two programs with the same instruction indices. \p DivChain: r1, r2 =
/// 7, 1, then a dependent chain of N scalar divides (latency 21, 4 uops on
/// the single multiply/divide unit). Otherwise: r1, r2 = 0, 1 and a chain
/// of N one-uop, one-cycle adds. Timing the adds with the divide rows
/// would cost 4 uops and 21 cycles per add.
constexpr unsigned TwoProgramsN = 8;
Program twoProgramsChain(bool DivChain) {
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), DivChain ? 7 : 0);
  B.movImm(Reg::scalar(2), 1);
  for (unsigned I = 0; I < TwoProgramsN; ++I)
    B.binOp(DivChain ? Opcode::Div : Opcode::Add, Reg::scalar(1),
            Reg::scalar(1), Reg::scalar(2));
  B.halt();
  return B.finalize();
}

/// Pinned timing of the divide chain then the add chain on one core.
void expectTwoProgramsTiming(const SimStats &A, const SimStats &AB) {
  constexpr unsigned N = TwoProgramsN;
  // Both moves complete at cycle 6 (five-stage front end, one-cycle ALU);
  // divide k completes at 6 + 21k and all four of its uops retire the
  // cycle after.
  EXPECT_EQ(A.Uops, 2u + 4 * N);
  EXPECT_EQ(A.Cycles, 7u + 21 * N);
  // The add chain completes at cycle 13 + N, long before the last divide
  // retires, so its 2 + N uops retire in order behind it at the 5-wide
  // commit: one slot left in that cycle, then five per cycle.
  EXPECT_EQ(AB.Instructions, 2 * (N + 2));
  EXPECT_EQ(AB.Uops, A.Uops + 2 + N);
  EXPECT_EQ(AB.Cycles, A.Cycles + 2);
}

} // namespace

TEST(Sim, OneCoreTimesTwoProgramsWithTheirOwnRows) {
  const Program Div = twoProgramsChain(true);
  const Program Add = twoProgramsChain(false);
  mem::Memory M;
  emu::Machine Mach(M);
  OooCore Core;
  ASSERT_EQ(Mach.run(Div, emu::RunLimits(), &Core).Reason,
            emu::StopReason::Halted);
  SimStats A = Core.stats();
  ASSERT_EQ(Mach.run(Add, emu::RunLimits(), &Core).Reason,
            emu::StopReason::Halted);
  expectTwoProgramsTiming(A, Core.stats());
}

TEST(Sim, ProgramBuiltInAFreedProgramsStorageTimesWithItsOwnRows) {
  // As above, but the first program is gone before the second is built, so
  // the allocator may hand the second one the same storage: nothing may
  // key the timing on where a program lives.
  mem::Memory M;
  emu::Machine Mach(M);
  OooCore Core;
  ASSERT_EQ(Mach.run(twoProgramsChain(true), emu::RunLimits(), &Core).Reason,
            emu::StopReason::Halted);
  SimStats A = Core.stats();
  ASSERT_EQ(
      Mach.run(twoProgramsChain(false), emu::RunLimits(), &Core).Reason,
      emu::StopReason::Halted);
  expectTwoProgramsTiming(A, Core.stats());
}
