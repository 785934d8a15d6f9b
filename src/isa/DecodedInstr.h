//===- isa/DecodedInstr.h - The decoded form of an instruction --*- C++ -*-===//
//
// How an instruction decodes, written once. isa::Instruction is built for
// tooling (symbolic register records, a comment string); the emulator's
// dispatch loop and the timing model instead read one dense row per static
// instruction, built by decode() from the instruction, its Opcodes.def
// row and the program's vector width. Program builds its table once, in
// its constructor (Program::decoded()); the trace hands the timing model
// a pointer to the row, so nothing downstream decodes again.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_DECODEDINSTR_H
#define FLEXVEC_ISA_DECODEDINSTR_H

#include "isa/Instruction.h"

#include <cstdint>

namespace flexvec {
namespace isa {

/// DecodedInstr::EffMask value meaning "all lanes" (k0 or no mask).
inline constexpr uint8_t NoEffMask = 0xff;
/// DecodedInstr::DstId / FFMaskId value meaning "writes no such register".
inline constexpr uint8_t NoFlatReg = 0xff;

/// Decoded-only bits of DecodedInstr::Flags, above the opflag bits the
/// row copies from Opcodes.def.
namespace dflag {
enum : uint16_t {
  Src2 = 1 << 12,    ///< Src2 is present (a memory operand's index).
  Untimed = 1 << 13, ///< No port and not a branch (nop, halt): no uops.
};
} // namespace dflag

/// One decoded static instruction: one 64-byte row, so a dispatch touches
/// one cache line.
struct alignas(64) DecodedInstr {
  // --- Emulator dispatch ---
  Opcode Op;
  ElemType Type;
  CmpKind Cond;
  uint8_t ES;    ///< Element size in bytes.
  uint8_t Lanes; ///< Lanes of Type at the program's vector width.
  uint8_t Dst, Src1, Src2, Src3; ///< Register indices within their class.
  uint8_t EffMask;               ///< Write-mask register, or NoEffMask.
  uint8_t Scale;

  // --- Timing model ---
  PortKind Port;
  uint8_t LanesPerMemUop; ///< Gather/scatter lanes per memory uop, or 0.
  /// Micro-ops of a non-memory instruction: the row's count, times the
  /// number of 512-bit slices a wider vector-ALU op occupies.
  uint8_t Uops;
  uint8_t NumWaits;
  uint8_t WaitIds[5]; ///< Flat ids (Reg::flatId) the first uop waits on.
  uint8_t DstId;      ///< Flat id written, or NoFlatReg.
  uint8_t FFMaskId;   ///< First-faulting ops also write their mask.
  uint16_t Latency;

  /// The opcode's opflag bits plus the dflag bits above them.
  uint16_t Flags;
  int32_t Target;
  uint64_t AllMask; ///< lowBitMask(Lanes).
  int64_t Imm;
  int64_t Disp;
};
static_assert(sizeof(DecodedInstr) == 64, "one decoded row per cache line");

/// Decodes \p I for a program of \p VecBytes-wide vectors. Accepts any
/// instruction, including ones the verifier rejects; only a verified one
/// may run.
DecodedInstr decode(const Instruction &I, unsigned VecBytes);

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_DECODEDINSTR_H
