//===- workloads/Figure8.h - Table 2 matrix on the parallel engine -*- C++ -*-===//
//
// Adapts the 18 Table 2 benchmarks and the 7 kernel-family rows onto
// core::runSweep: builds the benchmark set at a given iteration scale and
// exposes it as the engine's SweepWorkload views, plus the one-call wrapper
// every driver (flexvec-bench, the perf benchmark, the determinism tests)
// goes through so they all measure exactly the same matrix.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_WORKLOADS_FIGURE8_H
#define FLEXVEC_WORKLOADS_FIGURE8_H

#include "core/ParallelEvaluator.h"
#include "workloads/Benchmarks.h"

namespace flexvec {
namespace workloads {

/// The 25 benchmark rows plus the engine views into them. Views hold pointers
/// into Benchmarks, so keep the suite alive for the duration of the sweep.
struct Figure8Suite {
  std::vector<Benchmark> Benchmarks;
  std::vector<core::SweepWorkload> Workloads;
};

Figure8Suite buildFigure8Suite(double IterationScale = 1.0);

/// Runs the full 25 x 6 Figure 8 / Table 2 sweep with \p Opts (Opts.Scale
/// sizes the workloads). \p Cache optionally persists compiled loops
/// across sweeps.
core::SweepResult runFigure8Sweep(const core::SweepOptions &Opts,
                                  core::CompileCache *Cache = nullptr);

} // namespace workloads
} // namespace flexvec

#endif // FLEXVEC_WORKLOADS_FIGURE8_H
