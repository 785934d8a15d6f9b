//===- tests/ParallelEvaluatorTest.cpp - Engine determinism tests ----------===//
//
// The acceptance contract of the parallel evaluation engine:
//
//   * ThreadPool collects results in job order, independent of the worker
//     count, and propagates job exceptions to the caller.
//   * CompileCache is content-addressed (hits on a renamed copy of the same
//     loop, misses on a different RTM tile) and single-flight.
//   * A Figure 8 sweep with --jobs=1 and --jobs=8 produces byte-identical
//     deterministic JSON payloads and identical per-cell numbers across
//     several seeds; only wall-time fields may differ.
//   * Multi-trip sweeps reuse the cache: the miss count stays at the
//     unique-key count no matter how many times the matrix repeats.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"
#include "core/ParallelEvaluator.h"
#include "ir/Parser.h"
#include "obs/Metrics.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>

using namespace flexvec;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, MapResultsAreOrderedByJobIndex) {
  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Workers);
    std::vector<int> Out =
        Pool.map<int>(257, [](size_t I) { return static_cast<int>(I * 3); });
    ASSERT_EQ(Out.size(), 257u);
    for (size_t I = 0; I < Out.size(); ++I)
      EXPECT_EQ(Out[I], static_cast<int>(I * 3)) << "workers=" << Workers;
  }
}

TEST(ThreadPool, EveryJobRunsExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "job " << I;
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  auto Throwing = [&](size_t I) {
    Ran.fetch_add(1);
    if (I == 7)
      throw std::runtime_error("job 7 failed");
  };
  EXPECT_THROW(Pool.parallelFor(16, Throwing), std::runtime_error);
  EXPECT_EQ(Ran.load(), 16) << "remaining jobs must still run";

  // The pool is reusable after a failed batch.
  Ran = 0;
  Pool.parallelFor(8, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 8);
}

TEST(ThreadPool, BackToBackTinyBatchesNeverSkipOrDoubleRunJobs) {
  // Regression test for the stale-worker race: with far more workers than
  // jobs per batch, most workers sleep through entire batches and wake only
  // after the caller has already published the next one. A late worker must
  // never claim a ticket from, or read the torn-down state of, a batch it
  // did not observe — each job of each batch runs exactly once.
  ThreadPool Pool(8);
  for (int Round = 0; Round < 2000; ++Round) {
    size_t N = 1 + static_cast<size_t>(Round % 3);
    std::vector<std::atomic<int>> Hits(N);
    Pool.parallelFor(N, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "round " << Round << " job " << I;
  }
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(4, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
}

TEST(ThreadPool, ZeroRequestsHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.workerCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Hash / PRNG stream derivation
//===----------------------------------------------------------------------===//

TEST(Hash, StreamSeedsAreStableAndLabelDependent) {
  uint64_t A = deriveStreamSeed(1, fnv1a64("456.hmmer"));
  EXPECT_EQ(A, deriveStreamSeed(1, fnv1a64("456.hmmer")));
  EXPECT_NE(A, deriveStreamSeed(1, fnv1a64("458.sjeng")));
  EXPECT_NE(A, deriveStreamSeed(2, fnv1a64("456.hmmer")));
}

//===----------------------------------------------------------------------===//
// CompileCache
//===----------------------------------------------------------------------===//

const char *ArgminDsl = R"(
loop argmin(i64 n trip, i32 min_val liveout, i32 min_idx liveout,
            i32 key[] readonly) {
  if (key[i] < min_val) {
    min_val = key[i];
    min_idx = i;
  }
}
)";

// The same loop structure under a different name.
const char *ArgminRenamedDsl = R"(
loop totally_different_name(i64 n trip, i32 min_val liveout,
                            i32 min_idx liveout, i32 key[] readonly) {
  if (key[i] < min_val) {
    min_val = key[i];
    min_idx = i;
  }
}
)";

TEST(CompileCache, SecondRequestIsAHit) {
  ir::ParseResult P = ir::parseLoop(ArgminDsl);
  ASSERT_TRUE(P) << P.Error;
  core::CompileCache Cache;
  bool Hit = true;
  auto First = Cache.getOrCompile(*P.F, 64, &Hit);
  EXPECT_FALSE(Hit);
  auto Second = Cache.getOrCompile(*P.F, 64, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(First.get(), Second.get()) << "hit must return the same object";
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(CompileCache, KeyIgnoresLoopName) {
  ir::ParseResult A = ir::parseLoop(ArgminDsl);
  ir::ParseResult B = ir::parseLoop(ArgminRenamedDsl);
  ASSERT_TRUE(A) << A.Error;
  ASSERT_TRUE(B) << B.Error;
  EXPECT_EQ(core::CompileCache::keyFor(*A.F, 64),
            core::CompileCache::keyFor(*B.F, 64));

  core::CompileCache Cache;
  bool Hit = true;
  Cache.getOrCompile(*A.F, 64, &Hit);
  EXPECT_FALSE(Hit);
  Cache.getOrCompile(*B.F, 64, &Hit);
  EXPECT_TRUE(Hit) << "renamed copy of the same loop must be a cache hit";
}

// The key hashes the exact DSL text: a float constant that differs only
// past the sixth significant digit must not be served another loop's
// program (the 6-digit display form used to collide).
TEST(CompileCache, KeyDistinguishesFloatConstantsPastSixDigits) {
  ir::ParseResult A = ir::parseLoop(
      "loop a(i64 n trip, f64 s liveout, f64 x[] readonly) {\n"
      "  s = s + x[i] * 1.0;\n}\n");
  ir::ParseResult B = ir::parseLoop(
      "loop a(i64 n trip, f64 s liveout, f64 x[] readonly) {\n"
      "  s = s + x[i] * 1.0000001;\n}\n");
  ASSERT_TRUE(A) << A.Error;
  ASSERT_TRUE(B) << B.Error;
  EXPECT_NE(core::CompileCache::keyFor(*A.F, 64),
            core::CompileCache::keyFor(*B.F, 64));

  core::CompileCache Cache;
  bool Hit = true;
  Cache.getOrCompile(*A.F, 64, &Hit);
  EXPECT_FALSE(Hit);
  auto R = Cache.getOrCompile(*B.F, 64, &Hit);
  EXPECT_FALSE(Hit) << "a different constant must compile separately";

  double C = 1.0000001;
  int64_t Bits;
  std::memcpy(&Bits, &C, sizeof(Bits));
  bool HasConstant = false;
  for (const isa::Instruction &I : R->Scalar.Prog.instructions())
    HasConstant |= I.Op == isa::Opcode::FMovImm && I.Imm == Bits;
  EXPECT_TRUE(HasConstant) << "scalar program must load 1.0000001 exactly";
}

TEST(CompileCache, KeyDependsOnRtmTile) {
  ir::ParseResult P = ir::parseLoop(ArgminDsl);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_NE(core::CompileCache::keyFor(*P.F, 64),
            core::CompileCache::keyFor(*P.F, 128));

  core::CompileCache Cache;
  bool Hit = true;
  Cache.getOrCompile(*P.F, 64, &Hit);
  EXPECT_FALSE(Hit);
  Cache.getOrCompile(*P.F, 128, &Hit);
  EXPECT_FALSE(Hit) << "different RTM tile must compile separately";
  EXPECT_EQ(Cache.size(), 2u);
}

// Since pipeline version 5 the vector width and the predicated-lowering
// flag are part of the key: one cache must serve a mixed-width sweep
// (the bench's 512-vs-VL comparison axis) without collisions.
TEST(CompileCache, KeyDependsOnVectorConfigAndPredication) {
  ir::ParseResult P = ir::parseLoop(ArgminDsl);
  ASSERT_TRUE(P) << P.Error;
  const isa::VectorConfig At512, At256(32);
  EXPECT_NE(core::CompileCache::keyFor(*P.F, 64, At512),
            core::CompileCache::keyFor(*P.F, 64, At256));
  EXPECT_NE(core::CompileCache::keyFor(*P.F, 64, At512, false),
            core::CompileCache::keyFor(*P.F, 64, At512, true));

  core::CompileCache Cache;
  bool Hit = true;
  Cache.getOrCompile(*P.F, 64, &Hit, At512);
  EXPECT_FALSE(Hit);
  Cache.getOrCompile(*P.F, 64, &Hit, At256);
  EXPECT_FALSE(Hit) << "different vector width must compile separately";
  Cache.getOrCompile(*P.F, 64, &Hit, At256, /*Predicated=*/true);
  EXPECT_FALSE(Hit) << "predicated lowering must compile separately";
  Cache.getOrCompile(*P.F, 64, &Hit, At256);
  EXPECT_TRUE(Hit) << "same (tile, width, mode) must hit";
  EXPECT_EQ(Cache.size(), 3u);

  // The compiled vector program actually carries the requested width.
  auto PR = Cache.getOrCompile(*P.F, 64, &Hit, At256);
  ASSERT_TRUE(PR->FlexVec.has_value());
  EXPECT_EQ(PR->FlexVec->Prog.vectorBytes(), 32u);
}

TEST(CompileCache, ConcurrentRequestsCompileOnce) {
  ir::ParseResult P = ir::parseLoop(ArgminDsl);
  ASSERT_TRUE(P) << P.Error;
  core::CompileCache Cache;
  ThreadPool Pool(8);
  Pool.parallelFor(32, [&](size_t) { Cache.getOrCompile(*P.F, 64); });
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 31u);
}

//===----------------------------------------------------------------------===//
// Sweep determinism across worker counts
//===----------------------------------------------------------------------===//

core::SweepOptions sweepOpts(unsigned Jobs, uint64_t Seed) {
  core::SweepOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Seed = Seed;
  Opts.Scale = 0.02; // Small inputs: this is a determinism test, not a bench.
  return Opts;
}

void expectCellsIdentical(const core::SweepResult &A,
                          const core::SweepResult &B) {
  ASSERT_EQ(A.Cells.size(), B.Cells.size());
  for (size_t I = 0; I < A.Cells.size(); ++I) {
    const core::CellResult &X = A.Cells[I], &Y = B.Cells[I];
    EXPECT_EQ(X.Benchmark, Y.Benchmark) << "cell " << I;
    EXPECT_EQ(X.Variant, Y.Variant) << "cell " << I;
    EXPECT_EQ(X.Generated, Y.Generated) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Correct, Y.Correct) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Cycles, Y.Cycles) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Instructions, Y.Instructions)
        << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Uops, Y.Uops) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.HotSpeedup, Y.HotSpeedup) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Overall, Y.Overall) << X.Benchmark << "/" << X.Variant;
    // Per-cell metrics are pure event counts: they must render
    // byte-identically regardless of the worker schedule.
    EXPECT_EQ(X.Metrics.toJson().dump(), Y.Metrics.toJson().dump())
        << X.Benchmark << "/" << X.Variant;
    // StageTimes are wall-clock and deliberately not compared.
  }
}

TEST(SweepDeterminism, JobCountDoesNotChangeResults) {
  for (uint64_t Seed : {1u, 7u, 42u}) {
    core::SweepResult Serial =
        workloads::runFigure8Sweep(sweepOpts(/*Jobs=*/1, Seed));
    core::SweepResult Parallel =
        workloads::runFigure8Sweep(sweepOpts(/*Jobs=*/8, Seed));

    expectCellsIdentical(Serial, Parallel);
    EXPECT_EQ(Serial.SpecGeomean, Parallel.SpecGeomean) << "seed " << Seed;
    EXPECT_EQ(Serial.AppsGeomean, Parallel.AppsGeomean) << "seed " << Seed;
    EXPECT_EQ(Serial.CacheHits, Parallel.CacheHits) << "seed " << Seed;
    EXPECT_EQ(Serial.CacheMisses, Parallel.CacheMisses) << "seed " << Seed;

    // The rendered deterministic payloads must be byte-identical.
    std::string A = core::benchJson(Serial, /*Deterministic=*/true).dump();
    std::string B = core::benchJson(Parallel, /*Deterministic=*/true).dump();
    EXPECT_EQ(A, B) << "seed " << Seed
                    << ": deterministic JSON differs across --jobs";
  }
}

// The imported kernel-family rows ride the same determinism contract: the
// sweep carries POLY and IRREG rows, their cells are byte-stable across
// worker counts, and they fan into their own group geomeans without
// touching the SPEC/APPS aggregates.
TEST(SweepDeterminism, ImportedFamilyRowsAreJobCountInvariant) {
  core::SweepResult Serial = workloads::runFigure8Sweep(sweepOpts(1, 11));
  core::SweepResult Parallel = workloads::runFigure8Sweep(sweepOpts(8, 11));

  size_t FamilyCells = 0;
  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  for (size_t I = 0; I < Serial.Cells.size(); ++I) {
    const core::CellResult &X = Serial.Cells[I], &Y = Parallel.Cells[I];
    if (X.Group != "POLY" && X.Group != "IRREG")
      continue;
    ++FamilyCells;
    EXPECT_EQ(X.Benchmark, Y.Benchmark) << "cell " << I;
    EXPECT_EQ(X.Generated, Y.Generated) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Correct, Y.Correct) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.Cycles, Y.Cycles) << X.Benchmark << "/" << X.Variant;
    EXPECT_EQ(X.HotSpeedup, Y.HotSpeedup) << X.Benchmark << "/" << X.Variant;
    if (X.Generated) {
      EXPECT_TRUE(X.Correct) << X.Benchmark << "/" << X.Variant;
    }
  }
  EXPECT_GE(FamilyCells, 6u * core::NumVariants)
      << "the sweep must carry at least six imported family rows";

  // Family groups surface as their own geomeans, identically across jobs.
  auto geoFor = [](const core::SweepResult &R, const char *G) {
    for (const auto &E : R.GroupGeomeans)
      if (E.first == G)
        return E.second;
    return -1.0;
  };
  for (const char *G : {"POLY", "IRREG"}) {
    EXPECT_GT(geoFor(Serial, G), 0.0) << G;
    EXPECT_EQ(geoFor(Serial, G), geoFor(Parallel, G)) << G;
  }
  // And the rendered payload carries the new keys while staying
  // byte-identical across worker counts (covered again in full above).
  std::string Det = core::benchJson(Serial, /*Deterministic=*/true).dump();
  EXPECT_NE(Det.find("\"poly\""), std::string::npos);
  EXPECT_NE(Det.find("\"irreg\""), std::string::npos);
}

TEST(SweepDeterminism, DifferentSeedsChangeInputsNotStructure) {
  core::SweepResult A = workloads::runFigure8Sweep(sweepOpts(1, 1));
  core::SweepResult B = workloads::runFigure8Sweep(sweepOpts(1, 2));
  ASSERT_EQ(A.Cells.size(), B.Cells.size());
  // Every generated cell stays correct under a different input seed.
  for (const core::CellResult &C : B.Cells) {
    if (C.Generated) {
      EXPECT_TRUE(C.Correct) << C.Benchmark << "/" << C.Variant;
    }
  }
  // And at least some measured cycle counts actually move with the inputs.
  bool AnyDiffer = false;
  for (size_t I = 0; I < A.Cells.size(); ++I)
    if (A.Cells[I].Cycles != B.Cells[I].Cycles)
      AnyDiffer = true;
  EXPECT_TRUE(AnyDiffer) << "seed is not reaching the input generators";
}

TEST(SweepDeterminism, MultiTripReusesTheCache) {
  // Two sweeps sharing one cache: the second compiles nothing.
  core::SweepOptions Opts = sweepOpts(2, 1);
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(Opts.Scale);
  core::CompileCache Cache;
  core::SweepResult R1 = core::runSweep(Suite.Workloads, Opts, &Cache);
  core::SweepResult R2 = core::runSweep(Suite.Workloads, Opts, &Cache);

  EXPECT_GT(R1.CacheMisses, 0u);
  EXPECT_EQ(R2.CacheMisses, 0u);
  EXPECT_EQ(R2.CacheHits, R1.CacheHits + R1.CacheMisses);
  expectCellsIdentical(R1, R2);
}

TEST(SweepDeterminism, DeterministicJsonOmitsWallClockFields) {
  core::SweepResult R = workloads::runFigure8Sweep(sweepOpts(2, 1));
  std::string Det = core::benchJson(R, /*Deterministic=*/true).dump();
  std::string Full = core::benchJson(R, /*Deterministic=*/false).dump();
  EXPECT_EQ(Det.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(Det.find("stage_ms"), std::string::npos);
  EXPECT_EQ(Det.find("\"jobs\""), std::string::npos);
  // Pipeline-observability fields are schedule-dependent: full payload
  // only.
  EXPECT_EQ(Det.find("single_flight_waits"), std::string::npos);
  EXPECT_EQ(Det.find("peak_in_flight"), std::string::npos);
  EXPECT_NE(Full.find("wall_seconds"), std::string::npos);
  EXPECT_NE(Full.find("stage_ms"), std::string::npos);
  EXPECT_NE(Full.find("single_flight_waits"), std::string::npos);
  EXPECT_NE(Full.find("peak_in_flight"), std::string::npos);
  for (const char *Key :
       {"\"schema\"", "\"geomean_overall_speedup\"", "\"cells\"",
        "\"cache\"", "\"seed\"", "\"metrics\""})
    EXPECT_NE(Det.find(Key), std::string::npos) << Key;
}

TEST(SweepDeterminism, CellMetricsCoverEveryLayer) {
  core::SweepResult R = workloads::runFigure8Sweep(sweepOpts(2, 1));
  // The schema v2 contract: every generated cell carries the emu/rtm/sim
  // metric families, and the sweep-level aggregate sums them.
  std::string Det = core::benchJson(R, /*Deterministic=*/true).dump();
  for (const char *Key :
       {"\"emu.instructions\"", "\"emu.vpl.steps\"", "\"emu.mask_density\"",
        "\"rtm.begins\"", "\"sim.cycles\"", "\"sim.mem.accesses\"",
        "\"sim.ipc\""})
    EXPECT_NE(Det.find(Key), std::string::npos) << Key;

  uint64_t AggInstr = 0, CellInstrSum = 0;
  for (const core::CellResult &Cell : R.Cells)
    if (const obs::Counter *C = Cell.Metrics.findCounter("emu.instructions"))
      CellInstrSum += C->value();
  obs::Registry Totals;
  for (const core::CellResult &Cell : R.Cells)
    Totals.merge(Cell.Metrics);
  ASSERT_NE(Totals.findCounter("emu.instructions"), nullptr);
  AggInstr = Totals.findCounter("emu.instructions")->value();
  EXPECT_EQ(AggInstr, CellInstrSum);
  EXPECT_GT(AggInstr, 0u);
}

} // namespace
