//===- tests/PatternComboTest.cpp - Pattern interaction tests --------------===//
//
// Deterministic coverage of loops that combine the paper's three patterns
// in one body (the gzip/bzip2 shapes the paper discusses mix early exit
// with conditional updates; LAMMPS-class loops mix conditional updates
// with runtime memory dependences), plus RTM-tile correctness sweeps.
//
//===----------------------------------------------------------------------===//

#include "codegen/Peephole.h"
#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "ir/Parser.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::ir;

namespace {

struct Built {
  std::unique_ptr<LoopFunction> F;
  mem::Memory Image;
  Bindings B;
};

/// Early exit + conditional update in one loop: scan for a sentinel while
/// tracking the running minimum seen so far.
Built buildExitPlusUpdate(Rng &R, int64_t Trip, int64_t MatchPos,
                          double UpdateProb) {
  ParseResult P = parseLoop(R"(
loop scan_min(i64 n trip, i32 sentinel, i32 pos liveout,
              i32 best liveout, i32 best_idx liveout, i32 t,
              i32 a[] readonly) {
  t = a[i];
  if (t == sentinel) {
    pos = i;
    break;
  }
  if (t < best) {
    best = t;
    best_idx = i;
  }
})");
  EXPECT_TRUE(P) << P.Error;
  Built Out;
  Out.F = std::move(P.F);

  constexpr int32_t Sentinel = -999999;
  std::vector<int32_t> Data(static_cast<size_t>(Trip));
  int64_t Cur = 1 << 22;
  for (int64_t I = 0; I < Trip; ++I) {
    if (R.nextBool(UpdateProb))
      Cur -= R.nextInRange(1, 8);
    Data[static_cast<size_t>(I)] =
        R.nextBool(UpdateProb) ? static_cast<int32_t>(Cur)
                               : static_cast<int32_t>(
                                     Cur + R.nextBelow(1000));
  }
  if (MatchPos < Trip)
    Data[static_cast<size_t>(MatchPos)] = Sentinel;

  mem::BumpAllocator Alloc(Out.Image);
  Out.B = Bindings::forFunction(*Out.F);
  Out.B.ArrayBases[0] = Alloc.allocArray(Data);
  Out.B.setInt(0, Trip);
  Out.B.setInt(1, Sentinel);
  Out.B.setInt(2, -1);      // pos
  Out.B.setInt(3, 1 << 22); // best
  Out.B.setInt(4, -1);      // best_idx
  return Out;
}

/// Conditional update + memory conflict in one loop (the "force" shape).
Built buildUpdatePlusConflict(Rng &R, int64_t Trip, int64_t TableSize) {
  ParseResult P = parseLoop(R"(
loop force_like(i64 n trip, i32 maxw liveout, i32 argmax liveout,
                i32 e, i32 j, i32 w[] readonly, i32 idx[] readonly,
                i32 d[]) {
  e = w[i];
  if (e > maxw) {
    maxw = e;
    argmax = i;
  }
  j = idx[i];
  d[j] = d[j] + e;
})");
  EXPECT_TRUE(P) << P.Error;
  Built Out;
  Out.F = std::move(P.F);

  std::vector<int32_t> W(static_cast<size_t>(Trip));
  for (auto &V : W)
    V = static_cast<int32_t>(R.nextBelow(1000));
  std::vector<int32_t> Idx(static_cast<size_t>(Trip));
  for (auto &V : Idx)
    V = static_cast<int32_t>(R.nextBelow(static_cast<uint64_t>(TableSize)));
  std::vector<int32_t> D(static_cast<size_t>(TableSize), 0);

  mem::BumpAllocator Alloc(Out.Image);
  Out.B = Bindings::forFunction(*Out.F);
  Out.B.ArrayBases[0] = Alloc.allocArray(W);
  Out.B.ArrayBases[1] = Alloc.allocArray(Idx);
  Out.B.ArrayBases[2] = Alloc.allocArray(D);
  Out.B.setInt(0, Trip);
  Out.B.setInt(1, -1); // maxw
  Out.B.setInt(2, -1); // argmax
  return Out;
}

void expectAllMatch(const Built &L, unsigned RtmTile = 64) {
  driver::CompileResult PR = driver::compileLoop(*L.F, {.RtmTile = RtmTile});
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  core::RunOutcome Ref = core::runReferenceMulti(*L.F, L.Image, {L.B});
  codegen::CompiledLoop Opt = codegen::optimizeLoop(*PR.FlexVec);
  for (const auto *CL : {&PR.Scalar, &*PR.FlexVec, &Opt, &*PR.Rtm}) {
    core::RunOutcome Out = core::runProgramMulti(*L.F, *CL, L.Image, {L.B});
    ASSERT_TRUE(Out.Ok) << Out.Error;
    EXPECT_TRUE(core::outcomesMatch(*L.F, Ref, Out))
        << codegen::variantName(CL->Kind);
  }
}

} // namespace

TEST(PatternCombo, ExitPlusUpdatePlanShape) {
  Rng R(1);
  Built L = buildExitPlusUpdate(R, 500, 250, 0.05);
  driver::CompileResult PR = driver::compileLoop(*L.F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  EXPECT_EQ(PR.Plan.EarlyExits.size(), 1u);
  EXPECT_EQ(PR.Plan.CondUpdateVpls.size(), 1u);
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VSlctLast));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VMovFF));
}

class ExitPlusUpdate : public ::testing::TestWithParam<int> {};

TEST_P(ExitPlusUpdate, AllVariantsMatch) {
  Rng R(100 + static_cast<uint64_t>(GetParam()));
  int64_t Trip = 50 + static_cast<int64_t>(R.nextBelow(600));
  // Cycle through: early match, late match, no match.
  int64_t MatchPos;
  switch (GetParam() % 3) {
  case 0:
    MatchPos = static_cast<int64_t>(R.nextBelow(32));
    break;
  case 1:
    MatchPos = Trip - 1;
    break;
  default:
    MatchPos = Trip + 50;
  }
  Built L = buildExitPlusUpdate(R, Trip, MatchPos, 0.08);
  expectAllMatch(L);
}

INSTANTIATE_TEST_SUITE_P(Cases, ExitPlusUpdate, ::testing::Range(0, 9));

TEST(PatternCombo, UpdatePlusConflictPlanShape) {
  Rng R(2);
  Built L = buildUpdatePlusConflict(R, 500, 64);
  driver::CompileResult PR = driver::compileLoop(*L.F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  EXPECT_EQ(PR.Plan.CondUpdateVpls.size(), 1u);
  EXPECT_EQ(PR.Plan.MemConflictVpls.size(), 1u);
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VConflictM));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VSlctLast));
}

class UpdatePlusConflict : public ::testing::TestWithParam<int> {};

TEST_P(UpdatePlusConflict, AllVariantsMatch) {
  Rng R(200 + static_cast<uint64_t>(GetParam()));
  int64_t Trip = 30 + static_cast<int64_t>(R.nextBelow(800));
  // Table sizes from pathological (every chunk conflicts) to sparse.
  int64_t Table = 4 + static_cast<int64_t>(R.nextBelow(500));
  Built L = buildUpdatePlusConflict(R, Trip, Table);
  expectAllMatch(L);
}

INSTANTIATE_TEST_SUITE_P(Cases, UpdatePlusConflict, ::testing::Range(0, 9));

class RtmTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(RtmTileSweep, CorrectAtEveryTileSize) {
  unsigned Tile = static_cast<unsigned>(GetParam());
  Rng R(300 + Tile);
  Built L = buildExitPlusUpdate(R, 700, 650, 0.05);
  expectAllMatch(L, Tile);
  Built L2 = buildUpdatePlusConflict(R, 700, 64);
  expectAllMatch(L2, Tile);
}

INSTANTIATE_TEST_SUITE_P(Tiles, RtmTileSweep,
                         ::testing::Values(16, 17, 31, 64, 128, 255, 1024));

TEST(PatternCombo, SingleLaneTableMaximallyConflicts) {
  // Every iteration hits bucket 0: the VPL must serialize all 16 lanes of
  // every chunk and still be exact.
  Rng R(3);
  Built L = buildUpdatePlusConflict(R, 333, 1);
  expectAllMatch(L);
}
