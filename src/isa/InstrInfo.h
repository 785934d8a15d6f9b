//===- isa/InstrInfo.h - Per-opcode timing and structural info -*- C++ -*-===//
//
// Static description of each opcode used by the out-of-order timing model:
// execution latency, reciprocal throughput, issue port class, and micro-op
// expansion, read from the timing columns of isa/Opcodes.def. The FlexVec
// instruction rows reproduce Table 1 (bottom) of the paper:
//
//   KFTM.INC/KFTM.EXC   latency 2, throughput 1
//   VPSLCTLAST          latency 3, throughput 1
//   VPGATHERFF/VMOVFF   1-cycle AGU latency, 2 loads per cycle
//   VPCONFLICTM         latency 20, throughput 2 (micro-op sequence)
//
// Remaining entries use conservative AVX-512-class numbers in the spirit of
// Fog's instruction tables, which is what the paper says it did for the
// baseline ISA.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_INSTRINFO_H
#define FLEXVEC_ISA_INSTRINFO_H

#include "isa/Instruction.h"

namespace flexvec {
namespace isa {

/// Returns the timing record for \p Op.
inline const InstrTiming &instrTiming(Opcode Op) {
  return opcodeInfo(Op).Timing;
}

/// Total micro-op count for \p I (memory lane expansion included),
/// given \p ActiveLanes lanes enabled by the write mask.
inline unsigned uopCount(const Instruction &I, unsigned ActiveLanes) {
  const InstrTiming &T = instrTiming(I.Op);
  if (T.LanesPerMemUop == 0)
    return T.FixedUops;
  // Gather/scatter-style expansion: address-generation uop(s) plus one
  // memory uop per LanesPerMemUop active lanes (at least one).
  unsigned MemUops =
      (ActiveLanes + T.LanesPerMemUop - 1) / T.LanesPerMemUop;
  if (MemUops == 0)
    MemUops = 1;
  return T.FixedUops + MemUops;
}

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_INSTRINFO_H
