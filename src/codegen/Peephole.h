//===- codegen/Peephole.h - Downstream program optimizations ----*- C++ -*-===//
//
// Section 3.7 of the paper argues that the concise FlexVec intrinsics make
// the generated partial vector code easy for "the down-stream passes of
// the compiler to manipulate and optimize", and Section 4.2 applies a
// mask-aware redundant code elimination to the VPL (Figure 6(f)). This
// module provides those downstream passes over finalized programs:
//
//  * loop-invariant code motion — hoists re-materialized constants and
//    invariant broadcasts out of the vector loop (and out of VPLs),
//  * block-local common subexpression elimination — removes the duplicate
//    re-computations if-conversion leaves behind,
//  * dead code elimination — drops instructions whose results are never
//    read (conservatively; memory, control, and mask-writing side effects
//    are kept). Every scalar register is observable after Halt (live-outs
//    are returned in scalar registers); vector and mask registers are dead
//    at exit.
//
// All passes preserve program semantics; the ablation benchmark
// (bench/bench_peephole) measures their cycle contribution. The compiler
// pipeline does not run them: Figure 8 measures the raw FlexVec program,
// and optimizeLoop() builds the "flexvec-opt" program on request.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CODEGEN_PEEPHOLE_H
#define FLEXVEC_CODEGEN_PEEPHOLE_H

#include "codegen/Compiled.h"
#include "isa/Program.h"

#include <string>

namespace flexvec {
namespace codegen {

/// What the passes did.
struct PeepholeStats {
  unsigned Hoisted = 0;
  unsigned CseRemoved = 0;
  unsigned DeadRemoved = 0;

  unsigned total() const { return Hoisted + CseRemoved + DeadRemoved; }
  std::string describe() const;
};

/// Runs CSE and LICM to a fixed point (bounded), then DCE, and returns the
/// optimized program. Branch targets are remapped across deletions and
/// insertions.
isa::Program optimizeProgram(const isa::Program &P,
                             PeepholeStats *Stats = nullptr);

/// The "flexvec-opt" program: a copy of \p C with its program optimized
/// and "; peephole: <stats>" appended to its notes.
CompiledLoop optimizeLoop(const CompiledLoop &C,
                          PeepholeStats *Stats = nullptr);

} // namespace codegen
} // namespace flexvec

#endif // FLEXVEC_CODEGEN_PEEPHOLE_H
