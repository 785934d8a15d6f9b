//===- gen/Differential.h - Six-variant differential check ------*- C++ -*-===//
//
// One call that runs a loop through everything the differential harness
// enforces: DSL round-trip (so the reproducer we would print is usable),
// plan legality, the no-silent-decline remark invariant, the reference-
// interpreter cross-check over every generated variant — including
// flexvec-adaptive through the multi-invocation path that drives its
// dispatch cell — and, optionally, an RTM conflict storm through the
// fault harness for the transactional variants.
//
// The result is a (class, variant) pair rather than a bool so the shrinker
// can minimize while preserving the *same* failure, not just any failure.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_GEN_DIFFERENTIAL_H
#define FLEXVEC_GEN_DIFFERENTIAL_H

#include "gen/Gen.h"

#include <cstdint>
#include <string>

namespace flexvec {
namespace gen {

/// What went wrong, coarsest-first. None means every check passed.
enum class FailureClass : uint8_t {
  None = 0,
  RoundTrip,        ///< printLoopDsl -> parse -> re-print not byte-equal.
  NotVectorizable,  ///< The plan declined a loop the envelope promises.
  SilentDecline,    ///< Variant absent without a lower-pass missed remark.
  MissingApplied,   ///< Variant present without a lower-pass applied remark.
  RunError,         ///< A generated program failed to run to completion.
  Mismatch,         ///< A generated program diverged from the reference.
  StormDivergence,  ///< Scalar/vector outcomes split under the RTM storm.
};

const char *failureClassName(FailureClass C);

struct CheckOptions {
  unsigned RtmTile = 64;
  /// Vector width every variant compiles and runs at (width sweeps rerun
  /// the same loop/seed at several configs). 512-bit by default.
  isa::VectorConfig Vec;
  /// SVE-style predicated loop control for the compiled variants.
  bool Predicated = false;
  int Rounds = 2;          ///< Random-input rounds per loop.
  int64_t MinTrip = 1;
  int64_t MaxTrip = 400;
  InputPlan Inputs;        ///< Trip is overwritten per round.
  /// 0 disables the storm pass; otherwise flexvec-rtm and flexvec-adaptive
  /// also run a multi-invocation differential under a seeded conflict
  /// storm.
  uint64_t StormSeed = 0;
};

struct CheckResult {
  FailureClass Class = FailureClass::None;
  std::string Variant; ///< Failing column ("flexvec-rtm", ...), or empty.
  std::string Detail;  ///< Human-readable context incl. DSL reproducer.
  /// Folds every run checkLoop made, up to a failure if there was one:
  /// live-out hash, memory fingerprint and the scalar counters of
  /// ExecStats, TxStats and MemoryStats. The histograms and the two Simd*
  /// counters (which host path ran, not what the program did) stay out.
  uint64_t Digest = 0;

  bool ok() const { return Class == FailureClass::None; }
  /// Same divergence class: what the shrinker preserves.
  bool sameFailure(const CheckResult &O) const {
    return Class == O.Class && Variant == O.Variant;
  }
};

/// Builds one input round for \p F the way checkLoop() does: a trip drawn
/// from [MinTrip, MaxTrip], then convention-built arrays and scalars, all
/// from the stream \p Stream of \p InputSeed. Returns the trip.
int64_t buildRoundInputs(const ir::LoopFunction &F, uint64_t InputSeed,
                         uint64_t Stream, const CheckOptions &Opts,
                         mem::Memory &M, ir::Bindings &B);

/// Runs every check on \p F. Inputs derive deterministically from
/// \p InputSeed, so a (loop, seed, options) triple always yields the same
/// verdict and digest.
CheckResult checkLoop(const ir::LoopFunction &F, uint64_t InputSeed,
                      const CheckOptions &Opts = {});

} // namespace gen
} // namespace flexvec

#endif // FLEXVEC_GEN_DIFFERENTIAL_H
