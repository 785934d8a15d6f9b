//===- isa/Instruction.h - Machine instruction representation --*- C++ -*-===//
//
// A single fixed-shape instruction record. All instructions share one
// struct; which fields are meaningful depends on the opcode (see
// isa/Opcode.h). Branch targets are symbolic label ids until
// ProgramBuilder::finalize resolves them to instruction indices.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_INSTRUCTION_H
#define FLEXVEC_ISA_INSTRUCTION_H

#include "isa/Opcode.h"
#include "isa/Reg.h"

#include <cstdint>
#include <string>

namespace flexvec {
namespace isa {

/// Sentinel for "no branch target".
inline constexpr int32_t NoTarget = -1;

/// One machine instruction.
///
/// Memory-operand addressing follows x86: effective address =
/// Src1 (base register) + Src2 (index, scalar or vector) * Scale + Disp.
struct Instruction {
  Opcode Op = Opcode::Nop;
  ElemType Type = ElemType::I64; ///< Element/operand type.
  CmpKind Cond = CmpKind::EQ;    ///< Predicate for compare opcodes.

  Reg Dst;         ///< Destination register (scalar, vector, or mask).
  Reg Src1;        ///< First source (base register for memory ops).
  Reg Src2;        ///< Second source (index register for memory ops).
  Reg Src3;        ///< Third source (stored value for Store/VStore/VScatter).
  Reg MaskReg;     ///< Write mask (vector ops); invalid means k0 (all lanes).
  int64_t Imm = 0; ///< Immediate operand.
  uint8_t Scale = 1;  ///< Memory index scale (1, 2, 4, or 8).
  int64_t Disp = 0;   ///< Memory displacement.
  int32_t Target = NoTarget; ///< Branch target (label id, then instr index).

  /// Optional annotation carried through to the disassembly, used by the
  /// code generators to tie emitted instructions back to source statements
  /// ("S7: d_arr[coord] = s").
  std::string Comment;

  /// True when the opcode's table row has any of the opflag bits \p Flags.
  bool has(uint16_t Flags) const { return opcodeInfo(Op).Flags & Flags; }
  bool isBranch() const { return has(opflag::Br); }
  bool isConditionalBranch() const { return has(opflag::CBr); }
  bool isLoad() const { return has(opflag::Ld); }
  bool isStore() const { return has(opflag::St); }
  bool isMemory() const { return has(opflag::Ld | opflag::St); }
  bool isFirstFaulting() const { return has(opflag::FF); }
  bool isVector() const { return has(opflag::Vec); }

  /// Renders the instruction as assembly text.
  std::string str() const;
};

/// True when \p R satisfies operand class \p W.
inline bool operandClassMatches(OperandClass W, const Reg &R) {
  switch (W) {
  case OperandClass::No:
    return !R.isValid();
  case OperandClass::S:
    return R.isScalar();
  case OperandClass::V:
    return R.isVector();
  case OperandClass::K:
    return R.isMask();
  case OperandClass::OptS:
    return !R.isValid() || R.isScalar();
  case OperandClass::OptK:
    return !R.isValid() || R.isMask();
  }
  return false;
}

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_INSTRUCTION_H
