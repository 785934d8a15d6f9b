//===- workloads/Figure8.cpp ----------------------------------------------===//

#include "workloads/Figure8.h"

#include "workloads/KernelFamilies.h"

using namespace flexvec;
using namespace flexvec::workloads;

Figure8Suite workloads::buildFigure8Suite(double IterationScale) {
  Figure8Suite Suite;
  Suite.Benchmarks = buildAllBenchmarks(IterationScale);
  // The imported kernel-family rows (POLY + IRREG) ride after the 18
  // Table 2 rows so existing row indices and per-cell seeds are untouched.
  for (Benchmark &B : buildFamilyBenchmarks(IterationScale))
    Suite.Benchmarks.push_back(std::move(B));
  Suite.Workloads.reserve(Suite.Benchmarks.size());
  for (const Benchmark &B : Suite.Benchmarks) {
    core::SweepWorkload W;
    W.Name = B.Name;
    W.Group = B.Group;
    W.Coverage = B.Coverage;
    W.PaperSpeedup = B.PaperSpeedup;
    W.F = B.F.get();
    // &B points into Suite.Benchmarks' heap buffer, which stays put when
    // the suite itself is moved.
    W.Gen = [Bench = &B](Rng &R) { return Bench->Gen(R); };
    Suite.Workloads.push_back(std::move(W));
  }
  return Suite;
}

core::SweepResult
workloads::runFigure8Sweep(const core::SweepOptions &Opts,
                           core::CompileCache *Cache) {
  Figure8Suite Suite = buildFigure8Suite(Opts.Scale);
  return core::runSweep(Suite.Workloads, Opts, Cache);
}
