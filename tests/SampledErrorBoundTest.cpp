//===- tests/SampledErrorBoundTest.cpp - Sampled-simulation accuracy -------===//
//
// The accuracy contract of --sim-mode=sampled (sim/Sampled.h): under the
// default regimen, every Figure-8 group's geomean of sampled-vs-full cycle
// ratios stays within a documented 2% bound, and individual rows stay
// within a (looser) 25% per-row bound, over the full-scale sweep.
//
// Also pins the exact-degradation and determinism guarantees: a regimen
// with no skip phase reproduces full-fidelity cycles bit for bit, and the
// estimate is a pure function of (trace, config).
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/ParallelEvaluator.h"
#include "core/Pipeline.h"
#include "sim/OooCore.h"
#include "sim/Sampled.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

using namespace flexvec;

namespace {

TEST(SampledErrorBound, GroupGeomeansWithinBoundOnEveryRow) {
  const double Bound = 0.02;    // group geomean
  const double RowBound = 0.25; // per cell
  const double Scale = 1.0;

  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(Scale);
  ASSERT_GE(Suite.Workloads.size(), 25u)
      << "the sweep must cover all imported rows";

  core::SweepOptions Opts;
  Opts.Jobs = 1;
  Opts.Scale = Scale;
  // The documented error bound is calibrated on the 512-bit cycle
  // streams; pin the width so a FLEXVEC_VL override doesn't shift the
  // regimen out of its calibration.
  Opts.Vec = isa::VectorConfig();
  core::CompileCache Cache;
  core::SweepResult Full = core::runSweep(Suite.Workloads, Opts, &Cache);

  Opts.Sim = core::SimMode::Sampled; // Default regimen (25000/10000/3000/1).
  core::SweepResult Sampled = core::runSweep(Suite.Workloads, Opts, &Cache);

  ASSERT_EQ(Full.Cells.size(), Sampled.Cells.size());
  EXPECT_EQ(Sampled.Sim, core::SimMode::Sampled);

  // Per-group log-accumulated ratios; per-cell bound along the way.
  std::map<std::string, std::pair<double, unsigned>> Groups;
  uint64_t CellsCompared = 0, CellsExtrapolated = 0;
  for (size_t I = 0; I < Full.Cells.size(); ++I) {
    const core::CellResult &F = Full.Cells[I];
    const core::CellResult &S = Sampled.Cells[I];
    ASSERT_EQ(F.Benchmark, S.Benchmark);
    ASSERT_EQ(F.Variant, S.Variant);
    if (!F.Generated)
      continue;
    // Sampling must never compromise correctness: the functional emulator
    // runs the full stream either way.
    EXPECT_TRUE(S.Correct) << F.Benchmark << "/" << F.Variant;
    ASSERT_GT(F.Cycles, 0u);
    ASSERT_GT(S.Cycles, 0u);
    // The functional stream is identical; only the timing is estimated.
    EXPECT_EQ(F.EmuInstructions, S.EmuInstructions)
        << F.Benchmark << "/" << F.Variant;
    double Ratio = static_cast<double>(S.Cycles) / F.Cycles;
    EXPECT_LE(std::abs(Ratio - 1.0), RowBound)
        << F.Benchmark << "/" << F.Variant << ": sampled " << S.Cycles
        << " vs full " << F.Cycles;
    auto &G = Groups[F.Group];
    G.first += std::log(Ratio);
    G.second += 1;
    CellsCompared += 1;
    CellsExtrapolated += F.Cycles != S.Cycles;
  }
  ASSERT_GT(CellsCompared, 0u);
  // At the default scale the big rows run far past one interval, so the
  // estimator must actually have extrapolated somewhere — otherwise this
  // test silently degenerated to full-vs-full.
  EXPECT_GT(CellsExtrapolated, 0u);

  for (const auto &G : Groups) {
    ASSERT_GT(G.second.second, 0u);
    double Geo = std::exp(G.second.first / G.second.second);
    EXPECT_LE(std::abs(Geo - 1.0), Bound)
        << "group " << G.first << ": sampled/full cycle geomean " << Geo
        << " breaches the documented error bound";
  }
}

TEST(SampledErrorBound, NoSkipRegimenDegradesToExactCycles) {
  // Interval == window means the stream never skips, so the estimate must
  // be the full-fidelity cycle count bit for bit (Sampled.h's degradation
  // guarantee), not merely close to it.
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  const core::SweepWorkload &W = Suite.Workloads.front();
  core::PipelineResult PR = core::compileLoop(*W.F);
  Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
  core::WorkloadInstance In = W.Gen(R);

  sim::OooCore Reference;
  core::RunOutcome A = core::runProgramMulti(*W.F, PR.Scalar, In.Image,
                                             In.Invocations, &Reference);

  sim::SampleConfig Cfg;
  Cfg.IntervalInstrs = 1; // Sanitized up to Warmup + Detail: back-to-back.
  sim::OooCore Inner;
  sim::SampledCore Sampler(Inner, Cfg);
  core::RunOutcome B = core::runProgramMulti(*W.F, PR.Scalar, In.Image,
                                             In.Invocations, &Sampler);
  ASSERT_TRUE(A.Ok && B.Ok);

  sim::SampledStats SS = Sampler.stats();
  EXPECT_EQ(SS.EstimatedCycles, Reference.stats().Cycles);
  EXPECT_EQ(SS.Instructions, SS.DetailedInstructions)
      << "a no-skip regimen must feed every instruction to the model";
}

TEST(SampledErrorBound, EstimateIsDeterministic) {
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(/*IterationScale=*/0.1);
  const core::SweepWorkload &W = Suite.Workloads.front();
  core::PipelineResult PR = core::compileLoop(*W.F);

  auto RunOnce = [&](uint64_t SampleSeed) {
    Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    sim::SampleConfig Cfg;
    Cfg.IntervalInstrs = 4000; // Small enough to skip at this scale.
    Cfg.DetailInstrs = 1000;
    Cfg.WarmupInstrs = 300;
    Cfg.Seed = SampleSeed;
    sim::OooCore Inner;
    sim::SampledCore Sampler(Inner, Cfg);
    core::RunOutcome Out = core::runProgramMulti(*W.F, PR.Scalar, In.Image,
                                                 In.Invocations, &Sampler);
    EXPECT_TRUE(Out.Ok) << Out.Error;
    return Sampler.stats();
  };

  sim::SampledStats S1 = RunOnce(7);
  sim::SampledStats S2 = RunOnce(7);
  EXPECT_EQ(S1.EstimatedCycles, S2.EstimatedCycles);
  EXPECT_EQ(S1.Windows, S2.Windows);
  EXPECT_EQ(S1.DetailedInstructions, S2.DetailedInstructions);
  EXPECT_GT(S1.Windows, 1u) << "the regimen must produce multiple windows";
  EXPECT_LT(S1.DetailedInstructions, S1.Instructions)
      << "the regimen must actually skip";
}

} // namespace
