//===- driver/CompilerDriver.h - The FlexVec compiler driver ----*- C++ -*-===//
//
// Public entry point of the compiler: runs one loop through the six passes
//
//   ir-normalize → pdg-build → pattern-analysis → plan-legalize →
//   lower → program-verify
//
// and returns the six program variants the evaluation compares plus the
// full remark stream. pattern-analysis decides vector legality by lowering
// flexvec-rtm, the widest emission, and keeps that program; lower emits
// the other five. compileLoop(F, DriverOptions) is the only way to compile
// a loop.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_COMPILERDRIVER_H
#define FLEXVEC_DRIVER_COMPILERDRIVER_H

#include "analysis/CostModel.h"
#include "analysis/Patterns.h"
#include "codegen/Compiled.h"
#include "driver/Remarks.h"

#include <optional>
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

/// Runs the six passes over \p F. program-verify checks the programs only
/// when verificationEnabled() says so (see driver/Verifier.h).
CompileResult compileLoop(const ir::LoopFunction &F,
                          const DriverOptions &Opts = {});

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_COMPILERDRIVER_H
