//===- tests/TraceBatchTest.cpp - Batched trace delivery equivalence -------===//
//
// The trace-batching contract: for every Figure-8 workload x variant cell,
// onBatch delivers every retired record (except each invocation's Halt) in
// batches no larger than the ring, the delivered stream chains record to
// record across batch boundaries, and attaching a sink changes no
// architectural result (also checked against the no-sink fast path).
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace flexvec;

namespace {

uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Folds every observable field of a DynInstr record — including the
/// opcode behind the decoded-row pointer and the per-lane effective
/// addresses — into a running order-sensitive hash.
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

/// Consumes whole batches, folding every record into a digest.
class BatchSink : public emu::TraceSink {
public:
  RecordDigest D;
  uint64_t Batches = 0;
  size_t MaxBatch = 0;
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    ++Batches;
    MaxBatch = std::max(MaxBatch, N);
    for (size_t I = 0; I < N; ++I)
      D.fold(Batch[I]);
  }
};

/// A sink that copies every record (and its address list) into owned
/// storage, for field-by-field checks on small runs.
class RecordingSink : public emu::TraceSink {
public:
  struct Rec {
    uint32_t InstrIdx, NextIdx;
    std::vector<uint64_t> Addrs;
  };
  std::vector<Rec> Recs;

  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    for (size_t I = 0; I < N; ++I)
      Recs.push_back({Batch[I].InstrIdx, Batch[I].NextIdx,
                      std::vector<uint64_t>(Batch[I].MemAddrs,
                                            Batch[I].MemAddrs +
                                                Batch[I].NumMemAddrs)});
  }
};

TEST(TraceBatch, EveryFigure8CellDeliversEveryRecordInBatches) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t CellsChecked = 0, RecordsChecked = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    driver::CompileResult PR = driver::compileLoop(*W.F);
    Rng R(deriveStreamSeed(/*BaseSeed=*/1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      BatchSink Batched;
      core::RunOutcome A =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations);
      core::RunOutcome B =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Batched);
      ASSERT_TRUE(A.Ok) << W.Name << " variant " << V << ": " << A.Error;
      ASSERT_TRUE(B.Ok) << W.Name << " variant " << V << ": " << B.Error;

      // The runs themselves are oblivious to the sink.
      EXPECT_EQ(A.MemFingerprint, B.MemFingerprint);
      EXPECT_EQ(A.LiveOutHash, B.LiveOutHash);
      EXPECT_EQ(A.Exec.Stats.Instructions, B.Exec.Stats.Instructions);

      // Batch accounting: every record arrives in some batch, batches
      // never exceed the ring, and the stats counter matches delivery.
      EXPECT_GT(Batched.Batches, 0u);
      EXPECT_LE(Batched.MaxBatch, 64u);
      EXPECT_EQ(B.Exec.Stats.TraceBatches, Batched.Batches);
      EXPECT_EQ(Batched.D.Count,
                B.Exec.Stats.Instructions - In.Invocations.size())
          << W.Name << "/"
          << core::variantName(static_cast<core::VariantId>(V))
          << ": every retired instruction except the final Halt per "
             "invocation must be delivered";

      ++CellsChecked;
      RecordsChecked += Batched.D.Count;
    }
  }
  // The matrix must actually have been swept.
  EXPECT_GE(CellsChecked, 18u * 2u);
  EXPECT_GT(RecordsChecked, 0u);
}

TEST(TraceBatch, RecordedStreamChainsAcrossBatchBoundaries) {
  // One cell in full detail: each record's successor is the next record
  // delivered, across batch boundaries, except where an invocation ends
  // (its Halt is not delivered). A dropped, duplicated or reordered
  // record breaks the chain.
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  const core::SweepWorkload &W = Suite.Workloads.front();
  driver::CompileResult PR = driver::compileLoop(*W.F);
  const codegen::CompiledLoop *CL =
      core::selectVariant(PR, core::VariantId::FlexVec);
  ASSERT_NE(CL, nullptr);
  Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
  core::WorkloadInstance In = W.Gen(R);

  RecordingSink Sink;
  core::RunOutcome Out =
      core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Sink);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  ASSERT_GT(Sink.Recs.size(), 64u) << "the cell must span several batches";

  size_t Breaks = 0;
  bool SawAddrs = false;
  for (size_t I = 0; I < Sink.Recs.size(); ++I) {
    if (I + 1 < Sink.Recs.size() &&
        Sink.Recs[I].NextIdx != Sink.Recs[I + 1].InstrIdx)
      ++Breaks;
    SawAddrs |= !Sink.Recs[I].Addrs.empty();
  }
  EXPECT_EQ(Breaks, In.Invocations.size() - 1)
      << "the successor chain may break only between invocations";
  EXPECT_TRUE(SawAddrs) << "the cell must exercise the address pool";
}

TEST(TraceBatch, NoSinkRunStillCountsAccessesButNoBatches) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  const core::SweepWorkload &W = Suite.Workloads.front();
  driver::CompileResult PR = driver::compileLoop(*W.F);
  Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
  core::WorkloadInstance In = W.Gen(R);

  BatchSink Sink;
  core::RunOutcome WithSink =
      core::runProgramMulti(*W.F, PR.Scalar, In.Image, In.Invocations, &Sink);
  core::RunOutcome NoSink =
      core::runProgramMulti(*W.F, PR.Scalar, In.Image, In.Invocations);
  ASSERT_TRUE(WithSink.Ok && NoSink.Ok);

  // Skipping address collection must not change any architectural stat.
  EXPECT_EQ(NoSink.Exec.Stats.Instructions, WithSink.Exec.Stats.Instructions);
  EXPECT_EQ(NoSink.Exec.Stats.MemoryAccesses,
            WithSink.Exec.Stats.MemoryAccesses);
  EXPECT_EQ(NoSink.MemFingerprint, WithSink.MemFingerprint);
  EXPECT_EQ(NoSink.LiveOutHash, WithSink.LiveOutHash);
  EXPECT_EQ(NoSink.Exec.Stats.TraceBatches, 0u)
      << "no sink, no batch deliveries";
  EXPECT_GT(WithSink.Exec.Stats.TraceBatches, 0u);
}

} // namespace
