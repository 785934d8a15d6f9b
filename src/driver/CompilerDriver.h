//===- driver/CompilerDriver.h - The FlexVec compiler driver ----*- C++ -*-===//
//
// Public entry point of the compiler: runs one loop through the named pass
// pipeline
//
//   ir-normalize → pdg-build → pattern-analysis → plan-legalize →
//   lower → peephole → program-verify
//
// and returns every program variant the evaluation compares plus the full
// remark stream. compileLoop(F, DriverOptions) is the only way to compile a
// loop.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_COMPILERDRIVER_H
#define FLEXVEC_DRIVER_COMPILERDRIVER_H

#include "analysis/CostModel.h"
#include "analysis/Patterns.h"
#include "codegen/Compiled.h"
#include "codegen/Peephole.h"
#include "driver/AdaptiveStrategy.h"
#include "driver/Pass.h"
#include "driver/Remarks.h"

#include <optional>
#include <string>
#include <vector>

namespace flexvec {
namespace codegen {

/// Default RTM strip-mining tile, in scalar iterations (the paper found
/// 128-256 within 1-2% of first-faulting codegen).
inline constexpr unsigned DefaultRtmTile = 192;

} // namespace codegen

namespace driver {

/// Driver configuration. Every field has a default member initializer, so
/// a designated initializer such as `{.RtmTile = 64}` compiles without a
/// missing-initializer warning.
struct DriverOptions {
  unsigned RtmTile = codegen::DefaultRtmTile;
  /// Vector width every variant is compiled for (512-bit by default).
  isa::VectorConfig Vec = isa::VectorConfig();
  /// SVE-style predicated loop control: chunk heads compute k_loop with
  /// KWHILELT instead of the vindex/broadcast/vcmp triple.
  bool Predicated = false;
  /// Thresholds compiled into the flexvec-adaptive dispatch prologue.
  AdaptiveConfig Adaptive = AdaptiveConfig();
};

/// Everything the pipeline produces for one loop.
struct CompileResult {
  analysis::VectorizationPlan Plan;
  analysis::LoopShape Shape;
  codegen::CompiledLoop Scalar;
  std::optional<codegen::CompiledLoop> Traditional;
  std::optional<codegen::CompiledLoop> Speculative;
  std::optional<codegen::CompiledLoop> FlexVec;
  std::optional<codegen::CompiledLoop> Rtm;
  /// Multi-versioned program: speculative + demoted variant behind the
  /// runtime dispatch guard (see driver/AdaptiveStrategy.h).
  std::optional<codegen::CompiledLoop> Adaptive;
  /// FlexVec program after the downstream peephole passes (Section 3.7's
  /// "down-stream passes of the compiler"); kept separate so the ablation
  /// benchmark can compare.
  std::optional<codegen::CompiledLoop> FlexVecOpt;
  codegen::PeepholeStats OptStats;
  std::string PdgDump;
  /// Structured remarks from every pass: what was recognized, what was
  /// generated, and why each variant that is absent was declined.
  RemarkStream Remarks;

  /// The program the baseline (ICC/AVX-512 -fast) would execute: the
  /// traditional vector code when legal, otherwise scalar.
  const codegen::CompiledLoop &baseline() const {
    return Traditional ? *Traditional : Scalar;
  }

  /// The best FlexVec program (first-faulting variant).
  const codegen::CompiledLoop &flexvec() const {
    return FlexVec ? *FlexVec : baseline();
  }
};

/// Builds the standard seven-pass pipeline.
PassManager buildPipeline();

/// Runs the full pipeline over \p F. The program-verify pass runs when
/// verificationEnabled() says so (see driver/Verifier.h).
CompileResult compileLoop(const ir::LoopFunction &F,
                          const DriverOptions &Opts = {});

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_COMPILERDRIVER_H
