//===- codegen/Compiled.h - Compiled loop artifacts -------------*- C++ -*-===//
//
// Register conventions shared by every code generator, so one evaluator can
// set up inputs and read back live-outs for scalar, traditional-vector,
// speculative, FlexVec, and RTM programs alike.
//
//  r2 + ScalarId   initial value / live-out of each scalar parameter
//  r14 + ArrayId   base address of each array parameter
//  r24             loop induction variable
//  r25..r31        scalar scratch
//  v0              induction lane vector (v_i)
//  v2 + ScalarId   vector image of each scalar variable
//  v16..v31        vector scratch
//  k1              k_loop;  k2/k3 if-conversion stack;  k4 k_todo;
//  k5              k_stop;  k6 k_safe;  k7 scratch (k_rem / FF checks)
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CODEGEN_COMPILED_H
#define FLEXVEC_CODEGEN_COMPILED_H

#include "analysis/Patterns.h"
#include "ir/IR.h"
#include "isa/Program.h"

#include <string>

namespace flexvec {
namespace codegen {

inline isa::Reg scalarParamReg(int ScalarId) {
  return isa::Reg::scalar(2 + static_cast<unsigned>(ScalarId));
}

inline isa::Reg arrayBaseReg(int ArrayId) {
  return isa::Reg::scalar(14 + static_cast<unsigned>(ArrayId));
}

inline isa::Reg inductionReg() { return isa::Reg::scalar(24); }

/// Which generator produced a program; also the six code variants of the
/// evaluation matrix, in column order.
enum class CodeGenKind : uint8_t {
  Scalar,       ///< Strict scalar reference code (the "branchy" baseline).
  Traditional,  ///< Classic AVX-512-style vectorization (no FlexVec).
  Speculative,  ///< PACT'13-style all-or-nothing speculative vectorization.
  FlexVec,      ///< Partial vector code with VPLs and FlexVec instructions.
  FlexVecRtm,   ///< FlexVec with RTM speculation instead of FF loads.
  FlexVecAdaptive, ///< Speculative + traditional behind a runtime dispatch
                   ///< guard with abort-rate-driven demotion.
};

inline constexpr unsigned NumVariants = 6;

/// The variant's name: its evaluation-matrix column and remark tag.
const char *variantName(CodeGenKind K);

/// A generated program plus its metadata.
struct CompiledLoop {
  CodeGenKind Kind = CodeGenKind::Scalar;
  isa::Program Prog;
  std::string Notes; ///< Generator commentary (chosen VL, tile size, ...).
};

} // namespace codegen
} // namespace flexvec

#endif // FLEXVEC_CODEGEN_COMPILED_H
