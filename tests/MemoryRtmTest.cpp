//===- tests/MemoryRtmTest.cpp - Paged memory and RTM unit tests -----------===//

#include "emu/Machine.h"
#include "faults/FaultInjector.h"
#include "isa/Program.h"
#include "memory/Memory.h"
#include "rtm/Transaction.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace flexvec;
using namespace flexvec::mem;
using namespace flexvec::rtm;

TEST(Memory, UnmappedAccessFaults) {
  Memory M;
  int32_t V;
  AccessResult R = M.readValue(0x1000, V);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.FaultAddr, 0x1000u);
}

TEST(Memory, MapReadWriteRoundTrip) {
  Memory M;
  M.map(0x1000, 8192);
  M.set<int64_t>(0x1F00, 0x1122334455667788LL);
  EXPECT_EQ(M.get<int64_t>(0x1F00), 0x1122334455667788LL);
  EXPECT_EQ(M.get<int32_t>(0x1F00), 0x55667788);
}

TEST(Memory, CrossPageAccessWorks) {
  Memory M;
  M.map(0x1000, 2 * PageSize);
  uint64_t Addr = 0x1000 + PageSize - 4;
  M.set<int64_t>(Addr, -1234567890123LL);
  EXPECT_EQ(M.get<int64_t>(Addr), -1234567890123LL);
}

TEST(Memory, CrossPageFaultHasNoPartialEffect) {
  Memory M;
  M.map(0x1000, PageSize); // Second page unmapped.
  uint64_t Addr = 0x1000 + PageSize - 4;
  int64_t Probe = 0x0102030405060708LL;
  AccessResult W = M.write(Addr, &Probe, 8);
  EXPECT_FALSE(W.Ok);
  // The first 4 bytes must be untouched.
  EXPECT_EQ(M.get<int32_t>(Addr), 0);
}

TEST(Memory, PermissionsEnforced) {
  Memory M;
  M.map(0x1000, PageSize, PermRead);
  int32_t V = 7;
  EXPECT_TRUE(M.read(0x1000, &V, 4).Ok);
  EXPECT_FALSE(M.write(0x1000, &V, 4).Ok);
}

TEST(Memory, FingerprintDetectsSingleByteChange) {
  Memory A;
  A.map(0x1000, PageSize);
  A.set<int32_t>(0x1100, 42);
  Memory B = A.clone();
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_TRUE(A.contentsEqual(B));
  B.set<int32_t>(0x1104, 1);
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_FALSE(A.contentsEqual(B));
}

TEST(Memory, BumpAllocatorLeavesGuardPages) {
  Memory M;
  BumpAllocator Alloc(M);
  uint64_t A = Alloc.alloc(100);
  uint64_t B = Alloc.alloc(100);
  // The gap between allocations must contain an unmapped page.
  EXPECT_GE(B - A, PageSize);
  int32_t V;
  bool FoundGuard = false;
  for (uint64_t P = A + 100; P + 4 <= B; P += PageSize)
    FoundGuard |= !M.readValue(P, V).Ok;
  EXPECT_TRUE(FoundGuard);
}

// --- RTM ---------------------------------------------------------------===//

class RtmTest : public ::testing::Test {
protected:
  void SetUp() override { M.map(0x1000, 4 * PageSize); }
  Memory M;
};

TEST_F(RtmTest, CommitMakesWritesPermanent) {
  TransactionManager Tx(M);
  Tx.begin();
  int32_t V = 77;
  ASSERT_TRUE(Tx.write(0x1100, &V, 4));
  Tx.commit();
  EXPECT_EQ(M.get<int32_t>(0x1100), 77);
  EXPECT_EQ(Tx.stats().Commits, 1u);
}

TEST_F(RtmTest, AbortRollsBackAllWrites) {
  M.set<int32_t>(0x1100, 10);
  M.set<int32_t>(0x1200, 20);
  TransactionManager Tx(M);
  Tx.begin();
  int32_t V = 99;
  ASSERT_TRUE(Tx.write(0x1100, &V, 4));
  ASSERT_TRUE(Tx.write(0x1200, &V, 4));
  ASSERT_TRUE(Tx.write(0x1100, &V, 4)); // Overwrite again.
  Tx.abort(AbortReason::Explicit);
  EXPECT_EQ(M.get<int32_t>(0x1100), 10);
  EXPECT_EQ(M.get<int32_t>(0x1200), 20);
  EXPECT_EQ(Tx.stats().AbortsExplicit, 1u);
}

TEST_F(RtmTest, FaultInsideTransactionAbortsAndRollsBack) {
  M.set<int32_t>(0x1100, 10);
  TransactionManager Tx(M);
  Tx.begin();
  int32_t V = 99;
  ASSERT_TRUE(Tx.write(0x1100, &V, 4));
  // Unmapped address.
  EXPECT_FALSE(Tx.write(0x900000, &V, 4));
  EXPECT_EQ(Tx.lastAbortReason(), AbortReason::Fault);
  EXPECT_FALSE(Tx.isActive());
  EXPECT_EQ(M.get<int32_t>(0x1100), 10);
}

TEST_F(RtmTest, WriteSetCapacityOverflowAborts) {
  // One line past the write-set capacity, in a region of its own.
  const uint64_t Base = 0x100000;
  M.map(Base, (MaxWriteSetLines + 1) * LineBytes);
  TransactionManager Tx(M);
  Tx.begin();
  int32_t V = 1;
  for (unsigned Line = 0; Line < MaxWriteSetLines; ++Line)
    ASSERT_TRUE(Tx.write(Base + Line * LineBytes, &V, 4)) << Line;
  EXPECT_FALSE(Tx.write(Base + MaxWriteSetLines * LineBytes, &V, 4));
  EXPECT_EQ(Tx.lastAbortReason(), AbortReason::Capacity);
  EXPECT_EQ(Tx.stats().AbortsByCapacity, 1u);
  // Every tentative write rolled back.
  for (unsigned Line = 0; Line <= MaxWriteSetLines; ++Line)
    EXPECT_EQ(M.get<int32_t>(Base + Line * LineBytes), 0) << Line;
}

TEST_F(RtmTest, ReadSetCapacityOverflowAborts) {
  const uint64_t Base = 0x100000;
  M.map(Base, (MaxReadSetLines + 1) * LineBytes);
  TransactionManager Tx(M);
  Tx.begin();
  int32_t V;
  for (unsigned Line = 0; Line < MaxReadSetLines; ++Line)
    ASSERT_TRUE(Tx.read(Base + Line * LineBytes, &V, 4)) << Line;
  EXPECT_FALSE(Tx.read(Base + MaxReadSetLines * LineBytes, &V, 4));
  EXPECT_EQ(Tx.lastAbortReason(), AbortReason::Capacity);
  EXPECT_EQ(Tx.stats().AbortsByCapacity, 1u);
}

/// Property: randomized transactional histories either commit (final state
/// = all writes applied) or abort (final state = initial).
TEST_F(RtmTest, RandomizedAbortCommitProperty) {
  Rng R(7);
  for (int Case = 0; Case < 100; ++Case) {
    Memory Mem2;
    Mem2.map(0x1000, 2 * PageSize);
    std::vector<int32_t> Shadow(512, 0);
    TransactionManager Tx(Mem2);
    Tx.begin();
    std::vector<std::pair<size_t, int32_t>> Writes;
    int NumWrites = 1 + static_cast<int>(R.nextBelow(20));
    for (int W = 0; W < NumWrites; ++W) {
      size_t Slot = R.nextBelow(512);
      int32_t Val = static_cast<int32_t>(R.next());
      int32_t V = Val;
      ASSERT_TRUE(Tx.write(0x1000 + Slot * 4, &V, 4));
      Writes.push_back({Slot, Val});
    }
    if (R.nextBool(0.5)) {
      Tx.commit();
      for (auto &[Slot, Val] : Writes)
        Shadow[Slot] = Val;
    } else {
      Tx.abort(AbortReason::Explicit);
    }
    for (size_t Slot = 0; Slot < 512; ++Slot)
      ASSERT_EQ(Mem2.get<int32_t>(0x1000 + Slot * 4), Shadow[Slot]);
  }
}

// --- Fault injection -----------------------------------------------------===//

TEST(FaultInjector, FailNthAccessFaultsExactlyOnce) {
  Memory M;
  M.map(0x1000, PageSize);
  faults::MemFaultPlan Plan;
  Plan.FailNthAccess = 3;
  faults::FaultInjector Inj(Plan);
  Inj.arm(M);
  int32_t V;
  EXPECT_TRUE(M.readValue(0x1000, V).Ok);
  EXPECT_TRUE(M.readValue(0x1004, V).Ok);
  AccessResult Third = M.readValue(0x1008, V);
  EXPECT_FALSE(Third.Ok);
  EXPECT_EQ(Third.FaultAddr, 0x1008u);
  EXPECT_TRUE(M.readValue(0x100C, V).Ok) << "one-shot, not repeating";
  EXPECT_EQ(Inj.stats().MemFaultsInjected, 1u);
  EXPECT_EQ(Inj.stats().MemAccessesSeen, 4u);
}

TEST(FaultInjector, RangeFaultsAreAddressDeterministic) {
  // A line's faultiness depends only on (seed, line), never on access
  // order or count — the property the differential harness relies on.
  Memory M;
  M.map(0x10000, 0x4000);
  faults::MemFaultPlan Plan;
  Plan.Seed = 99;
  Plan.Ranges.push_back(
      {0x10000, 0x14000, 0.5, faults::FaultDuration::Persistent});

  auto sweep = [&](bool Descending) {
    faults::FaultInjector Inj(Plan);
    Inj.arm(M);
    std::set<uint64_t> Faulty;
    for (int I = 0; I < 256; ++I) {
      int Line = Descending ? 255 - I : I;
      uint64_t Addr = 0x10000 + static_cast<uint64_t>(Line) * 64;
      int32_t V;
      if (!M.readValue(Addr, V).Ok)
        Faulty.insert(Addr);
      // Touch it again: persistent faults must not depend on touch count.
      EXPECT_EQ(M.readValue(Addr, V).Ok, !Faulty.count(Addr));
    }
    Inj.disarm();
    return Faulty;
  };

  std::set<uint64_t> Ascending = sweep(false);
  std::set<uint64_t> Reversed = sweep(true);
  EXPECT_EQ(Ascending, Reversed);
  EXPECT_GT(Ascending.size(), 0u);
  EXPECT_LT(Ascending.size(), 256u);
}

TEST(FaultInjector, DifferentSeedsChangeTheFaultySet) {
  Memory M;
  M.map(0x10000, 0x4000);
  auto faultySet = [&](uint64_t Seed) {
    faults::MemFaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Ranges.push_back(
        {0x10000, 0x14000, 0.5, faults::FaultDuration::Persistent});
    faults::FaultInjector Inj(Plan);
    Inj.arm(M);
    std::set<uint64_t> Faulty;
    int32_t V;
    for (uint64_t Addr = 0x10000; Addr < 0x14000; Addr += 64)
      if (!M.readValue(Addr, V).Ok)
        Faulty.insert(Addr);
    Inj.disarm();
    return Faulty;
  };
  EXPECT_NE(faultySet(1), faultySet(2));
}

TEST(FaultInjector, TransientFaultHealsAfterFiring) {
  Memory M;
  M.map(0x1000, PageSize);
  M.set<int32_t>(0x1000, 31);
  faults::MemFaultPlan Plan;
  Plan.Ranges.push_back(
      {0x1000, 0x1040, 1.0, faults::FaultDuration::Transient});
  faults::FaultInjector Inj(Plan);
  Inj.arm(M);
  int32_t V = 0;
  EXPECT_FALSE(M.readValue(0x1000, V).Ok) << "first touch faults";
  EXPECT_TRUE(M.readValue(0x1000, V).Ok) << "the line has healed";
  EXPECT_EQ(V, 31);
  EXPECT_EQ(Inj.stats().MemFaultsInjected, 1u);
}

TEST(FaultInjector, DebugPeekPokeBypassInjection) {
  Memory M;
  M.map(0x1000, PageSize);
  faults::MemFaultPlan Plan;
  Plan.Ranges.push_back(
      {0x1000, 0x1000 + PageSize, 1.0, faults::FaultDuration::Persistent});
  faults::FaultInjector Inj(Plan);
  Inj.arm(M);
  int32_t V = 5;
  EXPECT_FALSE(M.write(0x1000, &V, 4).Ok);
  // get/set route through peek/poke: harness verification and image
  // construction must be unaffected by an armed injector.
  M.set<int32_t>(0x1000, 123);
  EXPECT_EQ(M.get<int32_t>(0x1000), 123);
  EXPECT_FALSE(M.read(0x1000, &V, 4).Ok);
  Inj.disarm();
  EXPECT_TRUE(M.read(0x1000, &V, 4).Ok);
  EXPECT_EQ(V, 123);
}

// arm() installs a hook only for a plan side that can fire, so a Tx-only
// plan (a conflict storm) keeps the plain memory fast paths; each side's
// counter counts only while that side is armed; disarm() clears both.
TEST(FaultInjector, ArmsOnlyTheHooksItsPlanEnables) {
  using namespace flexvec::isa;
  ProgramBuilder B;
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(3), 42);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.xbegin(Done);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 4, Reg::scalar(3));
  B.xend();
  B.bind(Done);
  B.halt();
  const Program P = B.finalize();

  // Both sides enabled but inert: the range lies outside every access and
  // the storm may inject nothing.
  faults::MemFaultPlan MemOn;
  MemOn.Ranges.push_back(
      {0x100000, 0x100040, 1.0, faults::FaultDuration::Persistent});
  faults::TxFaultPlan TxOn;
  TxOn.AbortProb = 1.0;
  TxOn.MaxInjected = 0;

  struct Case {
    const char *Name;
    faults::MemFaultPlan Mem;
    faults::TxFaultPlan Tx;
  };
  for (const Case &C : {Case{"tx-only", {}, TxOn},
                        Case{"mem-only", MemOn, {}},
                        Case{"both", MemOn, TxOn}}) {
    Memory M;
    M.map(0x1000, PageSize);
    emu::Machine Mach(M);
    faults::FaultInjector Inj(C.Mem, C.Tx);
    Inj.arm(M, &Mach.tx());
    const bool MemArmed = C.Mem.enabled(), TxArmed = C.Tx.enabled();
    EXPECT_EQ(M.faultHook(),
              MemArmed ? static_cast<mem::FaultHook *>(&Inj) : nullptr)
        << C.Name;
    EXPECT_EQ(Mach.tx().faultHook(),
              TxArmed ? static_cast<rtm::TxFaultHook *>(&Inj) : nullptr)
        << C.Name;

    emu::ExecResult R = Mach.run(P);
    ASSERT_EQ(R.Reason, emu::StopReason::Halted) << C.Name << R.describe();
    EXPECT_EQ(Mach.txStats().Commits, 1u) << C.Name;
    EXPECT_EQ(M.get<int32_t>(0x1004), 42) << C.Name;
    EXPECT_EQ(Inj.stats().MemAccessesSeen > 0, MemArmed) << C.Name;
    EXPECT_EQ(Inj.stats().TxOpsSeen > 0, TxArmed) << C.Name;
    EXPECT_EQ(Inj.stats().MemFaultsInjected, 0u) << C.Name;
    EXPECT_EQ(Inj.stats().TxAbortsInjected, 0u) << C.Name;

    Inj.disarm();
    EXPECT_EQ(M.faultHook(), nullptr) << C.Name;
    EXPECT_EQ(Mach.tx().faultHook(), nullptr) << C.Name;
  }
}

TEST(FaultInjector, ParseRangeFaultSpecs) {
  faults::RangeFault R;
  std::string Err;
  ASSERT_TRUE(faults::parseRangeFault("0x1000:0x2000:0.25:transient", R, Err))
      << Err;
  EXPECT_EQ(R.Lo, 0x1000u);
  EXPECT_EQ(R.Hi, 0x2000u);
  EXPECT_DOUBLE_EQ(R.Prob, 0.25);
  EXPECT_EQ(R.Duration, faults::FaultDuration::Transient);
  ASSERT_TRUE(faults::parseRangeFault("4096:8192:1", R, Err)) << Err;
  EXPECT_EQ(R.Duration, faults::FaultDuration::Persistent);
  EXPECT_FALSE(faults::parseRangeFault("0x2000:0x1000:0.5", R, Err));
  EXPECT_FALSE(faults::parseRangeFault("0x1000:0x2000", R, Err));
  EXPECT_FALSE(faults::parseRangeFault("0x1000:0x2000:1.5", R, Err));
  EXPECT_FALSE(faults::parseRangeFault("0x1000:0x2000:0.5:sometimes", R, Err));
}

// --- RTM rollback exactness under injected aborts ------------------------===//

TEST(RtmFault, InjectedAbortRollsBackBitForBit) {
  Memory M;
  M.map(0x1000, 4 * PageSize);
  for (int I = 0; I < 64; ++I)
    M.set<int64_t>(0x1000 + static_cast<uint64_t>(I) * 8, I * 1111);
  Memory Pristine = M.clone();

  emu::Machine Mach(M);
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortNthOp = 4; // Three writes land, the fourth aborts.
  TxPlan.Reason = rtm::AbortReason::Capacity;
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  using namespace flexvec::isa;
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  // Pre-transaction architectural state the abort must restore exactly.
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 1234);
  B.kset(Reg::mask(1), 0x00F0);
  B.movImm(Reg::scalar(9), 77);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(9)); // 77..92
  B.xbegin(Abort);
  // Clobber registers, masks, vectors; write the same line twice and a
  // second line so the undo log must replay in reverse order.
  B.movImm(Reg::scalar(2), -1);
  B.kset(Reg::mask(1), 0xFFFF);
  B.movImm(Reg::scalar(10), 500);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(10));
  B.movImm(Reg::scalar(3), 888);
  B.store(ElemType::I64, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.store(ElemType::I64, Reg::scalar(1), Reg::none(), 1, 8, Reg::scalar(3));
  B.store(ElemType::I64, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(2));
  B.store(ElemType::I64, Reg::scalar(1), Reg::none(), 1, 128, Reg::scalar(3));
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(8), 1);
  B.bind(Done);
  B.halt();

  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted) << R.describe();
  EXPECT_EQ(Mach.getScalar(8), 1) << "abort handler ran";
  // Registers, masks, and vectors restored bit-for-bit.
  EXPECT_EQ(Mach.getScalar(2), 1234);
  EXPECT_EQ(Mach.getMask(1), 0x00F0u);
  for (unsigned L = 0; L < 16; ++L)
    EXPECT_EQ(Mach.getVector(1).laneInt(ElemType::I32, L),
              77 + static_cast<int>(L));
  // Memory restored bit-for-bit, including the doubly-written line.
  EXPECT_EQ(M.fingerprint(), Pristine.fingerprint());
  EXPECT_TRUE(M.contentsEqual(Pristine));
  EXPECT_EQ(Mach.txStats().AbortsByCapacity, 1u);
  EXPECT_EQ(Mach.txStats().InjectedAborts, 1u);
  EXPECT_EQ(R.Stats.RtmFallbacks, 1u);
  EXPECT_EQ(R.Stats.RtmRetries, 0u);
}

// --- Vector accesses at the transactional capacity edge ------------------===//
//
// Vector loads (stores) inside one transaction fill the read (write) set
// to exactly its capacity, one line per instruction; one more access then
// straddles a tracked line and a fresh one, so the overflow lands partway
// through the instruction. Three access kinds do it: full-mask unit-stride
// vload/vstore, the same under a partial mask, and vgather/vscatter with
// lanes in reverse address order. The pinned counters are those of the
// reference per-lane transactional access sequence: whatever path the
// emulator takes for a vector access inside a transaction must book the
// same abort lane, bytes logged, TLB traffic and COW copies, and must
// restore the image bit for bit.

namespace {

struct EdgeRun {
  emu::ExecResult R;
  rtm::TxStats Tx;
  MemoryStats Mem;
  bool ImageRestored = false;
  int64_t Handler = 0; ///< 1: abort handler ran, 2: committed.
};

/// How each capacity-edge access addresses its 16 I32 lanes.
enum class EdgeKind {
  FullMask,    ///< vload/vstore, every lane.
  PartialMask, ///< vload/vstore under k1 = 0xAAAA: the odd lanes only.
  Indexed,     ///< vgather/vscatter, every lane, lane L at byte 4*(15-L).
};

/// Runs \p Lines \p Kind accesses of 16 I32 lanes (one per 64-byte line,
/// starting 32 lines into a page), plus the straddling one when \p Cross,
/// inside a single XBEGIN/XEND against a COW clone of a patterned image.
EdgeRun runCapacityEdge(bool IsStore, unsigned Lines, bool Cross,
                        EdgeKind Kind = EdgeKind::FullMask) {
  constexpr uint64_t Region = 0x100000;
  constexpr uint64_t Base = Region + 32 * LineBytes;
  const uint64_t Bytes = (32 + Lines + 32) * LineBytes;
  Memory Image;
  Image.map(Region, Bytes);
  std::vector<uint8_t> Pattern(Bytes);
  for (size_t I = 0; I < Pattern.size(); ++I)
    Pattern[I] = static_cast<uint8_t>(I * 131 + 7);
  Image.poke(Region, Pattern.data(), Pattern.size());
  Memory M = Image.clone();

  using namespace flexvec::isa;
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), static_cast<int64_t>(Base));
  B.movImm(Reg::scalar(9), 1000);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(9));
  // Gather/scatter indices 15 - L: v3 = 15 - vindex(0).
  B.movImm(Reg::scalar(10), 0);
  B.vindex(Reg::vector(4), ElemType::I32, Reg::scalar(10));
  B.vbroadcastImm(Reg::vector(3), ElemType::I32, 15);
  B.vbinOp(Opcode::VSub, ElemType::I32, Reg::vector(3), Reg::vector(3),
           Reg::vector(4));
  B.kset(Reg::mask(1), 0xAAAA);
  const Reg Mask =
      Kind == EdgeKind::PartialMask ? Reg::mask(1) : Reg::none();
  B.xbegin(Abort);
  auto access = [&](int64_t Disp) {
    if (Kind == EdgeKind::Indexed && IsStore)
      B.vscatter(ElemType::I32, Reg::none(), Reg::scalar(1), Reg::vector(3),
                 4, Disp, Reg::vector(1));
    else if (Kind == EdgeKind::Indexed)
      B.vgather(Reg::vector(2), ElemType::I32, Reg::none(), Reg::scalar(1),
                Reg::vector(3), 4, Disp);
    else if (IsStore)
      B.vstore(ElemType::I32, Mask, Reg::scalar(1), Reg::none(), 1, Disp,
               Reg::vector(1));
    else
      B.vload(Reg::vector(2), ElemType::I32, Mask, Reg::scalar(1),
              Reg::none(), 1, Disp);
  };
  for (unsigned L = 0; L < Lines; ++L)
    access(static_cast<int64_t>(L * LineBytes));
  // Lanes 0-7 re-touch the last tracked line, 8-15 a new one (indexed:
  // lanes 0-7 the new line, 8-15 the tracked one).
  if (Cross)
    access(static_cast<int64_t>((Lines - 1) * LineBytes + LineBytes / 2));
  B.xend();
  B.movImm(Reg::scalar(8), 2);
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(8), 1);
  B.bind(Done);
  B.halt();

  emu::Machine Mach(M);
  EdgeRun Out;
  Out.R = Mach.run(B.finalize());
  Out.Tx = Mach.txStats();
  Out.Mem = M.stats();
  Out.ImageRestored = M.contentsEqual(Image) &&
                      M.fingerprint() == Image.fingerprint();
  Out.Handler = Mach.getScalar(8);
  return Out;
}

} // namespace

TEST(RtmVectorEdge, VStoresFillWriteSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, false);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2) << "a write set of exactly the capacity commits";
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.Aborts, 0u);
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * LineBytes);
  EXPECT_FALSE(E.ImageRestored);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 16u);
  // Per lane: one undo read and one write through the TLB.
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits, MaxWriteSetLines * 32u - 9u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, VStoreCrossingWriteSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, true);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.R.Stats.RtmFallbacks, 1u);
  // Lanes 0-8 of the crossing store were logged; lane 8 overflowed.
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * LineBytes + 9 * 4);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 16u + 9u);
  EXPECT_TRUE(E.ImageRestored) << "rollback must be bit for bit";
  // The rollback pokes every logged element again, in reverse.
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits,
            MaxWriteSetLines * 32u + 18u - 9u + MaxWriteSetLines * 16u + 9u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, VLoadsFillReadSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, false);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2);
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  EXPECT_TRUE(E.ImageRestored) << "loads leave the image alone";
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 16u);
  // 65 pages touched, each missing the TLB once.
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 16u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

TEST(RtmVectorEdge, VLoadCrossingReadSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, true);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 16u + 9u);
  EXPECT_TRUE(E.ImageRestored);
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 16u + 9u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

// Under k1 = 0xAAAA each access moves 8 lanes. The crossing one books
// lanes 1, 3, 5 and 7 in the tracked line, then lane 9 (the first active
// lane in the new line) overflows.

TEST(RtmVectorEdge, MaskedVStoresFillWriteSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, false,
                              EdgeKind::PartialMask);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2);
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.Aborts, 0u);
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * 8u * 4u);
  EXPECT_FALSE(E.ImageRestored);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 8u);
  // Per active lane: one undo read and one write; 9 pages, each missing
  // once and copied once.
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits, MaxWriteSetLines * 16u - 9u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, MaskedVStoreCrossingWriteSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, true,
                              EdgeKind::PartialMask);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.R.Stats.RtmFallbacks, 1u);
  // Lanes 1, 3, 5, 7 and 9 of the crossing store were logged.
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * 8u * 4u + 5u * 4u);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 8u + 5u);
  EXPECT_TRUE(E.ImageRestored) << "rollback must be bit for bit";
  // Two TLB accesses per logged lane, then one rollback poke per lane.
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits, MaxWriteSetLines * 16u + 10u - 9u +
                               MaxWriteSetLines * 8u + 5u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, MaskedVLoadsFillReadSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, false,
                              EdgeKind::PartialMask);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2);
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  EXPECT_TRUE(E.ImageRestored);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 8u);
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 8u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

TEST(RtmVectorEdge, MaskedVLoadCrossingReadSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, true,
                              EdgeKind::PartialMask);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  // Lane 9 is read, then its line overflows the read set.
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 8u + 5u);
  EXPECT_TRUE(E.ImageRestored);
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 8u + 5u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

// Indexed accesses visit lanes in lane order, not address order: the
// crossing one's lane 0 is the highest address, in the new line, so it
// overflows first, before any lane of the tracked line.

TEST(RtmVectorEdge, VScattersFillWriteSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, false,
                              EdgeKind::Indexed);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2);
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.Aborts, 0u);
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * LineBytes);
  EXPECT_FALSE(E.ImageRestored);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 16u);
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits, MaxWriteSetLines * 32u - 9u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, VScatterCrossingWriteSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/true, MaxWriteSetLines, true,
                              EdgeKind::Indexed);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.R.Stats.RtmFallbacks, 1u);
  // Only lane 0 of the crossing scatter was logged.
  EXPECT_EQ(E.Tx.BytesLogged, MaxWriteSetLines * LineBytes + 4u);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxWriteSetLines * 16u + 1u);
  EXPECT_TRUE(E.ImageRestored) << "rollback must be bit for bit";
  EXPECT_EQ(E.Mem.TlbMisses, 9u);
  EXPECT_EQ(E.Mem.TlbHits, MaxWriteSetLines * 32u + 2u - 9u +
                               MaxWriteSetLines * 16u + 1u);
  EXPECT_EQ(E.Mem.CowCopies, 9u);
}

TEST(RtmVectorEdge, VGathersFillReadSetExactlyThenCommit) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, false,
                              EdgeKind::Indexed);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 2);
  EXPECT_EQ(E.Tx.Commits, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  EXPECT_TRUE(E.ImageRestored);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 16u);
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 16u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

TEST(RtmVectorEdge, VGatherCrossingReadSetAbortsAtTheLane) {
  EdgeRun E = runCapacityEdge(/*IsStore=*/false, MaxReadSetLines, true,
                              EdgeKind::Indexed);
  ASSERT_EQ(E.R.Reason, emu::StopReason::Halted) << E.R.describe();
  EXPECT_EQ(E.Handler, 1);
  EXPECT_EQ(E.Tx.Aborts, 1u);
  EXPECT_EQ(E.Tx.AbortsByCapacity, 1u);
  EXPECT_EQ(E.Tx.BytesLogged, 0u);
  EXPECT_EQ(E.R.Stats.MemoryAccesses, MaxReadSetLines * 16u + 1u);
  EXPECT_TRUE(E.ImageRestored);
  EXPECT_EQ(E.Mem.TlbMisses, 65u);
  EXPECT_EQ(E.Mem.TlbHits, MaxReadSetLines * 16u + 1u - 65u);
  EXPECT_EQ(E.Mem.CowCopies, 0u);
}

TEST(RtmVectorEdge, VStoreThenOverlappingScalarStoreRollsBack) {
  Memory Image;
  Image.map(0x1000, PageSize);
  for (uint64_t A = 0x1000; A < 0x1100; A += 8)
    Image.set<int64_t>(A, static_cast<int64_t>(A * 0x9E3779B97F4A7C15ULL));
  Memory M = Image.clone();

  using namespace flexvec::isa;
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1040);
  B.movImm(Reg::scalar(9), -5);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(9));
  B.movImm(Reg::scalar(3), 0x7777777777777777LL);
  B.xbegin(Abort);
  B.vstore(ElemType::I32, Reg::none(), Reg::scalar(1), Reg::none(), 1, 0,
           Reg::vector(1));
  // Overlaps lanes 2-3: its undo record holds the vstore's bytes, so only
  // a reverse-order replay gets back to the original image.
  B.store(ElemType::I64, Reg::scalar(1), Reg::none(), 1, 8, Reg::scalar(3));
  B.xabort();
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(8), 1);
  B.bind(Done);
  B.halt();

  emu::Machine Mach(M);
  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted) << R.describe();
  EXPECT_EQ(Mach.getScalar(8), 1);
  EXPECT_TRUE(M.contentsEqual(Image));
  EXPECT_EQ(M.fingerprint(), Image.fingerprint());
  EXPECT_EQ(Mach.txStats().AbortsExplicit, 1u);
  EXPECT_EQ(Mach.txStats().BytesLogged, 64u + 8u);
  // 16 undo reads + 16 writes, the scalar store's 2, then 17 rollback pokes.
  EXPECT_EQ(M.stats().TlbMisses, 1u);
  EXPECT_EQ(M.stats().TlbHits, 32u + 2u + 17u - 1u);
  EXPECT_EQ(M.stats().CowCopies, 1u);
}
