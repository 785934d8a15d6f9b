//===- perfbench/src/Workload.h - Benchmark workload interface --*- C++ -*-===//
//
// A workload owns one seeded input stream and runs it two ways:
//
//  * runPass(): the untraced pass, through the product's one-call entry
//    points (core::runSweep, gen::checkLoop). End-to-end metrics come from
//    these passes only.
//  * runTracedPass(): the same work, replayed call by call through the
//    layers' public functions with a span around each call. Per-layer
//    metrics come from these passes. The replay is checked against the most
//    recent untraced pass (same verdicts, same cycles and instruction
//    counts), so the ledger is known to describe the work it claims to.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_PERFBENCH_WORKLOAD_H
#define FLEXVEC_PERFBENCH_WORKLOAD_H

#include "Spans.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace flexvec {
namespace core {
struct RunOutcome;
} // namespace core
namespace driver {
struct CompileResult;
} // namespace driver
} // namespace flexvec

namespace perfbench {

/// Named per-pass values: per-layer event counts, or end-to-end figures.
using Metrics = std::map<std::string, double>;

/// Adds one compilation's static output to \p C: driver.program_instrs
/// (instructions over every generated variant) and
/// driver.variants_generated / driver.variants_declined.
void countProgram(const flexvec::driver::CompileResult &PR, Metrics &C);

/// Adds one program run's emulator, memory and RTM counters to \p C; its
/// instructions count as emu.traced_instrs when \p Traced, else as
/// emu.sinkless_instrs.
void countRun(const flexvec::core::RunOutcome &Out, bool Traced, Metrics &C);

struct PassResult {
  double WallS = 0;
  std::vector<double> TaskMs; ///< Untraced passes: one entry per task.
  uint64_t Attempted = 0;     ///< Tasks run.
  uint64_t Failed = 0;        ///< Tasks that failed or diverged.
  /// Deterministic output of the pass; must repeat exactly across passes.
  std::string Payload;
  double SpeedupSpec = 0; ///< Matrix geomeans, when the pass simulates.
  double SpeedupApps = 0;
  Metrics Counts; ///< Traced passes: per-layer event counts.
};

class Workload {
public:
  virtual ~Workload() = default;
  /// (Re)builds the workload's inputs from its seed.
  virtual void setUp() = 0;
  /// Runs an untimed slice of a pass so lazy set-up and caches are warm.
  virtual void warmUp() = 0;
  virtual PassResult runPass() = 0;
  /// Requires a prior runPass() to check the replay against.
  virtual PassResult runTracedPass(SpanRecorder &Rec) = 0;
};

/// "table2-full" (Storm = false) and "table2-storm" (Storm = true).
std::unique_ptr<Workload> makeTable2(uint64_t Seed, bool Storm);
/// "fuzz-compile".
std::unique_ptr<Workload> makeFuzz(uint64_t Seed);

/// The canonical sweep (seed 1, scale 0.1, deterministic payload) diffed
/// against the checked-in baseline with obs::diffBench.
struct CanonicalCheck {
  bool Ok = false;
  std::string Detail;
  double SpeedupSpec = 0;
  double SpeedupApps = 0;
};
CanonicalCheck runCanonicalCheck(const std::string &BaselinePath);

} // namespace perfbench

#endif // FLEXVEC_PERFBENCH_WORKLOAD_H
