//===- tests/SimdEquivalenceTest.cpp - SIMD-backend equivalence ------------===//
//
// The SIMD backend contract (emu/Machine.h): the AVX2 lane-kernel table
// is *observably identical* to the scalar reference — same ExecStats field
// for field (including the fast-path counters, which count preconditions,
// not backend choices), same trace streams, same memory fingerprints and
// live-outs, same fault storms — so the CPUID choice between them only
// moves host wall time. This suite holds that contract across the whole
// Figure-8 corpus, both fuzz envelopes (pinned seeds, at 512 bits and at
// 256 and 2048), a seeded RTM abort storm with the backend pinned through
// FaultPlan, and a direct kernel-table differential over adversarial lane
// patterns.
//
// Every leg compares SimdBackend::Auto (the table this host runs) against
// a Scalar-pinned reference. On a host or build without AVX2, Auto
// resolves to Scalar, so the suite degenerates to a smoke test rather
// than failing.
//
//===----------------------------------------------------------------------===//

#include "codegen/Compiled.h"
#include "core/Evaluator.h"
#include "core/FaultHarness.h"
#include "driver/CompilerDriver.h"
#include "emu/simd/Kernels.h"
#include "gen/Gen.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace flexvec;

namespace {

struct RecordDigest {
  uint64_t H = 0;
  uint64_t Count = 0;

  void fold(const emu::DynInstr &DI) {
    H = hashCombine(H, static_cast<uint64_t>(DI.Row->Op));
    H = hashCombine(H, DI.InstrIdx);
    H = hashCombine(H, DI.NextIdx);
    H = hashCombine(H, DI.Taken ? 1 : 0);
    H = hashCombine(H, DI.ActiveMask);
    H = hashCombine(H, DI.NumMemAddrs);
    for (uint32_t A = 0; A < DI.NumMemAddrs; ++A)
      H = hashCombine(H, DI.MemAddrs[A]);
    ++Count;
  }
};

class DigestSink : public emu::TraceSink {
public:
  RecordDigest D;
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    for (size_t I = 0; I < N; ++I)
      D.fold(Batch[I]);
  }
};

/// Run limits with the SIMD backend pinned: Scalar for the reference,
/// Auto for the table under test.
emu::RunLimits pinned(emu::SimdBackend Backend) {
  emu::RunLimits Limits;
  Limits.Simd = Backend;
  return Limits;
}

/// Every field of ExecStats. The fast-path counters are backend-invariant
/// by design (fast paths trigger on preconditions checked in shared
/// handler code), so they compare exactly too.
void expectStatsEqual(const emu::ExecStats &A, const emu::ExecStats &B,
                      const std::string &Where) {
  EXPECT_EQ(A.Instructions, B.Instructions) << Where;
  EXPECT_EQ(A.Branches, B.Branches) << Where;
  EXPECT_EQ(A.TakenBranches, B.TakenBranches) << Where;
  EXPECT_EQ(A.MemoryAccesses, B.MemoryAccesses) << Where;
  EXPECT_EQ(A.VectorOps, B.VectorOps) << Where;
  EXPECT_EQ(A.RtmRetries, B.RtmRetries) << Where;
  EXPECT_EQ(A.RtmFallbacks, B.RtmFallbacks) << Where;
  EXPECT_EQ(A.RtmBudgetExhausted, B.RtmBudgetExhausted) << Where;
  EXPECT_EQ(A.BackoffCycles, B.BackoffCycles) << Where;
  EXPECT_EQ(A.VplSteps, B.VplSteps) << Where;
  EXPECT_EQ(A.VplPartitions, B.VplPartitions) << Where;
  EXPECT_EQ(A.FFClips, B.FFClips) << Where;
  EXPECT_EQ(A.FFSuppressedLanes, B.FFSuppressedLanes) << Where;
  EXPECT_EQ(A.ConflictChecks, B.ConflictChecks) << Where;
  EXPECT_EQ(A.ConflictHits, B.ConflictHits) << Where;
  EXPECT_EQ(A.SimdUnitStrideHits, B.SimdUnitStrideHits) << Where;
  EXPECT_EQ(A.SimdMaskShortcircuits, B.SimdMaskShortcircuits) << Where;
  EXPECT_EQ(A.MaskDensity, B.MaskDensity) << Where;
  EXPECT_EQ(A.RtmRetryDepth, B.RtmRetryDepth) << Where;
  EXPECT_EQ(A.OpcodeCounts, B.OpcodeCounts) << Where;
}

/// Name of the table SimdBackend::Auto runs on this host, for messages.
std::string autoName() {
  return emu::simdBackendName(emu::resolveSimdBackend(emu::SimdBackend::Auto));
}

std::string cellName(const std::string &Workload, unsigned V) {
  return Workload + "/" + core::variantName(static_cast<core::VariantId>(V)) +
         " vs " + autoName();
}

// --- Backend resolution --------------------------------------------------===//

TEST(SimdEquivalence, AutoResolvesToAvx2ExactlyWhenHostAndBuildSupportIt) {
  EXPECT_EQ(emu::resolveSimdBackend(emu::SimdBackend::Scalar),
            emu::SimdBackend::Scalar);
  const bool Avx2 = emu::simd::hostHasAvx2() && emu::simd::avx2Compiled();
  EXPECT_EQ(emu::resolveSimdBackend(emu::SimdBackend::Auto),
            Avx2 ? emu::SimdBackend::Avx2 : emu::SimdBackend::Scalar);
}

// --- Figure-8 corpus: stats, memory, live-outs, and traces ---------------===//

TEST(SimdEquivalence, Figure8CellsIdenticalAcrossBackends) {
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t CellsChecked = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    driver::CompileResult PR = driver::compileLoop(*W.F);
    Rng R(deriveStreamSeed(/*BaseSeed=*/1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      core::RunOutcome Ref =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, nullptr,
                                pinned(emu::SimdBackend::Scalar));
      ASSERT_TRUE(Ref.Ok) << W.Name << ": " << Ref.Error;
      std::string Where = cellName(W.Name, V);
      core::RunOutcome Out =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, nullptr,
                                pinned(emu::SimdBackend::Auto));
      ASSERT_TRUE(Out.Ok) << Where << ": " << Out.Error;
      expectStatsEqual(Ref.Exec.Stats, Out.Exec.Stats, Where);
      EXPECT_EQ(Ref.MemFingerprint, Out.MemFingerprint) << Where;
      EXPECT_EQ(Ref.LiveOutHash, Out.LiveOutHash) << Where;
      EXPECT_EQ(Ref.LiveOuts, Out.LiveOuts) << Where;
      EXPECT_EQ(Ref.Tx.Commits, Out.Tx.Commits) << Where;
      EXPECT_EQ(Ref.Tx.Aborts, Out.Tx.Aborts) << Where;
      ++CellsChecked;
    }
  }
  EXPECT_GE(CellsChecked, 18u * 2u);
}

TEST(SimdEquivalence, TraceStreamsIdenticalAcrossBackends) {
  // Tracing runs take the per-lane reference loops for memory ops (the
  // batched paths don't book per-lane trace addresses), but the ALU
  // kernels still execute — the stream digest proves lane-exact results
  // flow into identical DynInstr records either way.
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t CellsChecked = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    driver::CompileResult PR = driver::compileLoop(*W.F);
    Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      DigestSink RefSink;
      core::RunOutcome Ref =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &RefSink,
                                pinned(emu::SimdBackend::Scalar));
      ASSERT_TRUE(Ref.Ok) << W.Name;
      std::string Where = cellName(W.Name, V);
      DigestSink Sink;
      core::RunOutcome Out =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Sink,
                                pinned(emu::SimdBackend::Auto));
      ASSERT_TRUE(Out.Ok) << Where;
      EXPECT_EQ(RefSink.D.Count, Sink.D.Count) << Where;
      EXPECT_EQ(RefSink.D.H, Sink.D.H)
          << Where << ": backend delivered a different trace";
      ++CellsChecked;
    }
  }
  EXPECT_GE(CellsChecked, 18u * 2u);
}

// --- Fuzz envelopes, pinned seeds ----------------------------------------===//

void runFuzzEquivalence(const gen::Envelope &E, uint64_t Seed,
                        isa::VectorConfig Vec = isa::VectorConfig()) {
  gen::GeneratedLoop G = gen::generateLoop(Seed, E);
  driver::CompileResult PR = driver::compileLoop(*G.F, {.Vec = Vec});
  gen::InputPlan Plan;
  Plan.IndexMask = E.IndexMask;
  Plan.IndexBound = E.TableSize;
  Plan.ArraySlack = E.MaxAffineOffset + 4;
  Rng R(deriveStreamSeed(Seed, 0xd15b));
  mem::Memory Image;
  ir::Bindings B = ir::Bindings::forFunction(*G.F);
  gen::buildConventionInputs(*G.F, R, Plan, Image, B);
  std::vector<ir::Bindings> Invocations{B, B};
  for (unsigned V = 0; V < core::NumVariants; ++V) {
    const codegen::CompiledLoop *CL =
        core::selectVariant(PR, static_cast<core::VariantId>(V));
    if (!CL)
      continue;
    core::RunOutcome Ref =
        core::runProgramMulti(*G.F, *CL, Image, Invocations, nullptr,
                              pinned(emu::SimdBackend::Scalar));
    ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;
    std::string Where = "seed " + std::to_string(Seed) + " at " +
                        std::to_string(Vec.bits()) + " bits, variant " +
                        core::variantName(static_cast<core::VariantId>(V)) +
                        " vs " + autoName();
    core::RunOutcome Out = core::runProgramMulti(
        *G.F, *CL, Image, Invocations, nullptr, pinned(emu::SimdBackend::Auto));
    ASSERT_TRUE(Out.Ok) << Where << ": " << Out.Error;
    expectStatsEqual(Ref.Exec.Stats, Out.Exec.Stats, Where);
    EXPECT_EQ(Ref.MemFingerprint, Out.MemFingerprint) << Where;
    EXPECT_EQ(Ref.LiveOutHash, Out.LiveOutHash) << Where;
  }
}

TEST(SimdEquivalence, ClassicEnvelopeIdenticalAcrossBackends) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    runFuzzEquivalence(gen::Envelope::classic(), Seed);
}

TEST(SimdEquivalence, WidenedEnvelopeIdenticalAcrossBackends) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    runFuzzEquivalence(gen::Envelope::widened(), Seed);
}

// The same legs at a narrower and a wider width: the kernels see other
// lane counts, and the 2048-bit one fills all 64 mask bits.
TEST(SimdEquivalence, ClassicEnvelopeIdenticalAcrossBackendsAt256And2048) {
  for (unsigned Bits : {256u, 2048u})
    for (uint64_t Seed = 0; Seed < 12; ++Seed)
      runFuzzEquivalence(gen::Envelope::classic(), Seed,
                         isa::VectorConfig(Bits / 8));
}

TEST(SimdEquivalence, WidenedEnvelopeIdenticalAcrossBackendsAt256And2048) {
  for (unsigned Bits : {256u, 2048u})
    for (uint64_t Seed = 0; Seed < 12; ++Seed)
      runFuzzEquivalence(gen::Envelope::widened(), Seed,
                         isa::VectorConfig(Bits / 8));
}

// --- Fault storm ---------------------------------------------------------===//

TEST(SimdEquivalence, FaultStormIdenticalAcrossBackends) {
  // A seeded RTM conflict-abort storm under both backends: aborts must
  // land on the same operations, roll back the same lanes, and retry to
  // the same architectural outcome whether the handler bodies ran on
  // reference loops or host SIMD (gather/scatter addresses come from the
  // lane-kernel table inside transactions too; the storm proves it).
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t StormyCells = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    driver::CompileResult PR = driver::compileLoop(*W.F);
    Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      core::FaultPlan Plan;
      Plan.Tx.Seed = deriveStreamSeed(fnv1a64(W.Name), V);
      Plan.Tx.AbortProb = 0.5;

      Plan.Limits.Simd = emu::SimdBackend::Scalar;
      core::FaultedRun Ref = core::runProgramMultiWithFaults(
          *W.F, *CL, In.Image, In.Invocations, Plan);
      std::string Where = cellName(W.Name, V);
      Plan.Limits.Simd = emu::SimdBackend::Auto;
      core::FaultedRun Out = core::runProgramMultiWithFaults(
          *W.F, *CL, In.Image, In.Invocations, Plan);

      ASSERT_EQ(Ref.Outcome.Ok, Out.Outcome.Ok) << Where;
      expectStatsEqual(Ref.Outcome.Exec.Stats, Out.Outcome.Exec.Stats, Where);
      EXPECT_EQ(Ref.Outcome.MemFingerprint, Out.Outcome.MemFingerprint)
          << Where;
      EXPECT_EQ(Ref.Outcome.LiveOutHash, Out.Outcome.LiveOutHash) << Where;
      EXPECT_EQ(Ref.Injection.TxOpsSeen, Out.Injection.TxOpsSeen) << Where;
      EXPECT_EQ(Ref.Injection.TxAbortsInjected, Out.Injection.TxAbortsInjected)
          << Where;
      EXPECT_EQ(Ref.Outcome.Tx.Commits, Out.Outcome.Tx.Commits) << Where;
      EXPECT_EQ(Ref.Outcome.Tx.Aborts, Out.Outcome.Tx.Aborts) << Where;
      StormyCells += Ref.Injection.TxAbortsInjected > 0;
    }
  }
  EXPECT_GT(StormyCells, 0u);
}

// --- Direct kernel-table differential ------------------------------------===//

// Adversarial lane payloads: NaNs (quiet and signaling, both signs),
// infinities, signed zeros, subnormals, INT_MIN/INT_MAX boundaries, and
// dense pseudorandom bits. Every kernel in every compiled table must
// produce byte-identical destinations and identical mask words to the
// scalar reference table for every (operands, mask) combination here.
class KernelDifferential : public ::testing::Test {
protected:
  static constexpr size_t VecBytes = 64;
  alignas(64) uint8_t A[VecBytes];
  alignas(64) uint8_t B[VecBytes];
  alignas(64) uint8_t DstRef[VecBytes];
  alignas(64) uint8_t DstOut[VecBytes];

  Rng R{0x51AD};

  void fillPattern(uint8_t *P, unsigned Which) {
    // 16 lanes of 32-bit payloads; the same bytes reinterpret as 8
    // 64-bit lanes, so one table covers both widths.
    static const uint32_t Specials[] = {
        0x7fc00000u, // qNaN
        0xffc00000u, // -qNaN
        0x7fa00000u, // sNaN
        0xffa00000u, // -sNaN
        0x7f800000u, // +inf
        0xff800000u, // -inf
        0x00000000u, // +0
        0x80000000u, // -0
        0x00000001u, // min subnormal
        0x007fffffu, // max subnormal
        0x7f7fffffu, // FLT_MAX
        0x3f800000u, // 1.0f
        0x7fffffffu, // INT32_MAX
        0x80000000u, // INT32_MIN
        0xffffffffu, // -1
        0x00000080u, // small int
    };
    for (unsigned L = 0; L < 16; ++L) {
      uint32_t V;
      if (Which == 0)
        V = Specials[L];
      else if (Which == 1)
        V = Specials[15 - L];
      else
        V = static_cast<uint32_t>(R.next());
      std::memcpy(P + L * 4, &V, 4);
    }
  }

  // The masks that matter: none, all (both widths), alternating, one
  // lane, and random.
  std::vector<uint64_t> masks32() {
    return {0, 0xffff, 0x5555, 0xaaaa, 0x0001, 0x8000,
            R.next() & 0xffff, R.next() & 0xffff};
  }
  std::vector<uint64_t> masks64() {
    return {0, 0xff, 0x55, 0xaa, 0x01, 0x80, R.next() & 0xff,
            R.next() & 0xff};
  }

  void seedDst() {
    for (unsigned I = 0; I < VecBytes; ++I)
      DstRef[I] = DstOut[I] = static_cast<uint8_t>(0xC3 ^ I);
  }
};

TEST_F(KernelDifferential, AllKernelsMatchScalarReference) {
  const emu::simd::KernelTable &Ref = emu::simd::scalarKernels();
  if (emu::resolveSimdBackend(emu::SimdBackend::Auto) ==
      emu::SimdBackend::Scalar)
    GTEST_SKIP() << "host runs the scalar table; nothing to compare";
  // Past the skip, Auto runs the AVX2 table.
  const emu::simd::KernelTable &Out =
      emu::simd::kernelsFor(emu::SimdBackend::Auto);
  const std::string Name = autoName();

  for (unsigned Pat = 0; Pat < 6; ++Pat) {
    fillPattern(A, Pat % 3);
    fillPattern(B, (Pat + 1) % 3);
    auto check = [&](const std::string &What, unsigned Col, auto RefFn,
                     auto OutFn, uint64_t Mask) {
      seedDst();
      RefFn(DstRef);
      OutFn(DstOut);
      EXPECT_EQ(0, std::memcmp(DstRef, DstOut, VecBytes))
          << Name << " " << What << " col " << Col << " mask " << Mask
          << " pattern " << Pat;
    };
    for (unsigned Col = 0; Col < 4; ++Col) {
      const bool Wide = (Col == 1 || Col == 3);
      for (uint64_t Mask : Wide ? masks64() : masks32()) {
        for (unsigned S = 0; S < 8; ++S)
          check("IntBin slot " + std::to_string(S), Col,
                [&](uint8_t *D) { Ref.IntBin[S][Col](D, A, B, Mask); },
                [&](uint8_t *D) { Out.IntBin[S][Col](D, A, B, Mask); },
                Mask);
        for (unsigned S = 0; S < 3; ++S)
          for (int64_t Imm : {int64_t(0), int64_t(3), int64_t(-7),
                              int64_t(31), int64_t(63),
                              int64_t(INT64_MAX), int64_t(INT64_MIN)})
            check("IntImm", Col,
                  [&](uint8_t *D) { Ref.IntImm[S][Col](D, A, Imm, Mask); },
                  [&](uint8_t *D) { Out.IntImm[S][Col](D, A, Imm, Mask); },
                  Mask);
        check("Blend", Col,
              [&](uint8_t *D) { Ref.Blend[Col](D, A, B, Mask); },
              [&](uint8_t *D) { Out.Blend[Col](D, A, B, Mask); }, Mask);
        for (int64_t V : {int64_t(0), int64_t(-1), int64_t(0x7fc00000),
                          int64_t(INT64_MIN)})
          check("Broadcast", Col,
                [&](uint8_t *D) { Ref.Broadcast[Col](D, V, Mask); },
                [&](uint8_t *D) { Out.Broadcast[Col](D, V, Mask); },
                Mask);
        // Compares and conflict return mask words, not vectors.
        for (unsigned C = 0; C < 6; ++C) {
          EXPECT_EQ(Ref.CmpInt[C][Col](A, B, Mask),
                    Out.CmpInt[C][Col](A, B, Mask))
              << Name << " CmpInt cond " << C << " col " << Col
              << " mask " << Mask << " pattern " << Pat;
          for (int64_t Imm :
               {int64_t(0), int64_t(-1), int64_t(1) << 33,
                -(int64_t(1) << 33), int64_t(INT64_MAX), int64_t(128)})
            EXPECT_EQ(Ref.CmpImmInt[C][Col](A, Imm, Mask),
                      Out.CmpImmInt[C][Col](A, Imm, Mask))
                << Name << " CmpImmInt cond " << C << " col " << Col
                << " imm " << Imm;
        }
        EXPECT_EQ(Ref.Conflict[Col](A, B, Mask),
                  Out.Conflict[Col](A, B, Mask))
            << Name << " Conflict col " << Col << " mask " << Mask;
      }
      check("Index", Col, [&](uint8_t *D) { Ref.Index[Col](D, -17); },
            [&](uint8_t *D) { Out.Index[Col](D, -17); }, 0);
    }
    // FP families: columns are [F32, F64].
    for (unsigned Col = 0; Col < 2; ++Col) {
      for (uint64_t Mask : Col ? masks64() : masks32()) {
        for (unsigned S = 0; S < 6; ++S)
          check("FpBin slot " + std::to_string(S), Col,
                [&](uint8_t *D) { Ref.FpBin[S][Col](D, A, B, Mask); },
                [&](uint8_t *D) { Out.FpBin[S][Col](D, A, B, Mask); },
                Mask);
        for (unsigned C = 0; C < 6; ++C) {
          EXPECT_EQ(Ref.CmpFp[C][Col](A, B, Mask),
                    Out.CmpFp[C][Col](A, B, Mask))
              << Name << " CmpFp cond " << C << " col " << Col << " mask "
              << Mask << " pattern " << Pat;
          for (int64_t Imm : {int64_t(0), int64_t(-3), int64_t(1) << 40})
            EXPECT_EQ(Ref.CmpImmFp[C][Col](A, Imm, Mask),
                      Out.CmpImmFp[C][Col](A, Imm, Mask))
                << Name << " CmpImmFp cond " << C << " col " << Col
                << " imm " << Imm;
        }
      }
    }
    // Gather address generation: every scale the ISA can encode plus a
    // non-power-of-two and zero.
    for (unsigned Col = 0; Col < 4; ++Col)
      for (uint8_t Scale : {0, 1, 2, 4, 8, 3, 255}) {
        uint64_t RefAddrs[16], OutAddrs[16];
        std::memset(RefAddrs, 0xAB, sizeof(RefAddrs));
        std::memset(OutAddrs, 0xAB, sizeof(OutAddrs));
        Ref.GatherAddr[Col](RefAddrs, A, /*Base=*/0x40000,
                            /*Disp=*/-24, Scale);
        Out.GatherAddr[Col](OutAddrs, A, 0x40000, -24, Scale);
        EXPECT_EQ(0, std::memcmp(RefAddrs, OutAddrs, sizeof(RefAddrs)))
            << Name << " GatherAddr col " << Col << " scale "
            << unsigned(Scale) << " pattern " << Pat;
      }
  }
}

} // namespace
