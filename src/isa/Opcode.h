//===- isa/Opcode.h - Opcodes, the opcode table, compare kinds --*- C++ -*-===//
//
// The instruction set: an AVX-512-like predicated vector ISA plus the
// FlexVec extensions from the paper (Section 3). Every opcode is one row of
// isa/Opcodes.def, expanded here into the Opcode enum and the OpcodeTable
// (mnemonic, class flags, operand contract, Table 1 timing). The
// extensions:
//
//   KFtmExc / KFtmInc  - partial mask generation (KFTM.EXC / KFTM.INC)
//   VSlctLast          - select-last broadcast (VPSLCTLAST)
//   VConflictM         - memory conflict detection (VPCONFLICTM.D/Q)
//   VMovFF / VGatherFF - first-faulting load / gather (VMOVFF, VPGATHERFF)
//   XBegin/XEnd/XAbort - restricted transactional memory (RTM alternative)
//   KWhileLT           - SVE-style whilelt loop-control predicate (the
//                        predicated lowering mode's chunk mask generator)
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_OPCODE_H
#define FLEXVEC_ISA_OPCODE_H

#include <cstdint>
#include <iterator>

namespace flexvec {
namespace isa {

/// The opcodes, in isa/Opcodes.def row order.
enum class Opcode : uint8_t {
#define OPCODE(Name, ...) Name,
#include "isa/Opcodes.def"
#undef OPCODE
};

/// Functional unit classes used for issue-port arbitration in the simulator.
enum class PortKind : uint8_t {
  ALU,    ///< Scalar integer ALU (also resolves branches).
  Mul,    ///< Scalar multiply/divide pipe (shares an ALU port).
  FP,     ///< Scalar floating point (executes on a vector port).
  Vec,    ///< Vector integer/fp/mask execution.
  Load,   ///< Load ports (2 units per Table 1).
  Store,  ///< Store port (1 unit per Table 1).
  Branch, ///< Direct jumps.
  None,   ///< Consumes no execution port (nop, halt).
};

/// Static per-opcode timing description, read by the timing model through
/// the decoded row (isa/DecodedInstr.h).
struct InstrTiming {
  unsigned Latency = 1; ///< Result latency in cycles.
  PortKind Port = PortKind::ALU;
  unsigned FixedUops = 1; ///< Uops, before per-lane memory expansion.
  /// For gathers/scatters: number of lanes serviced per memory uop (the
  /// paper's first-faulting gather sustains 2 loads per cycle on 2 ports,
  /// i.e. one lane per uop, one uop per load port per cycle).
  unsigned LanesPerMemUop = 0;
};

/// The register class an operand slot wants. The Opt classes also accept
/// Reg::none(); an absent write mask reads as k0 (all lanes).
enum class OperandClass : uint8_t {
  No,   ///< Must be absent.
  S,    ///< Scalar register.
  V,    ///< Vector register.
  K,    ///< Mask register.
  OptS, ///< Scalar register or absent.
  OptK, ///< Mask register or absent.
};

/// Operand contract of one opcode: the wanted class of each slot.
struct OperandContract {
  OperandClass Dst, Src1, Src2, Src3, Mask;
};

/// Class flags of an opcode (OpcodeInfo::Flags); Opcodes.def has the legend.
namespace opflag {
enum : uint16_t {
  Vec = 1 << 0,  ///< Vector-unit instruction.
  Ld = 1 << 1,   ///< Reads memory.
  St = 1 << 2,   ///< Writes memory.
  Br = 1 << 3,   ///< Branch.
  CBr = 1 << 4,  ///< Conditional branch.
  FF = 1 << 5,   ///< First-faulting; the write mask is in/out.
  Cc = 1 << 6,   ///< Prints its compare kind.
  Imm = 1 << 7,  ///< Prints its immediate.
  Ty = 1 << 8,   ///< Prints its element type.
  Tgt = 1 << 9,  ///< Carries a branch target.
  Fx = 1 << 10,  ///< Side effect: never moved or removed by the peephole.
  Ser = 1 << 11, ///< Waits for every older uop to retire.
};
} // namespace opflag

/// One row of the opcode table.
struct OpcodeInfo {
  const char *Mnemonic; ///< "vpgatherff", "kftm.exc", ...
  uint16_t Flags;       ///< opflag bits.
  OperandContract Operands;
  InstrTiming Timing;
};

namespace detail {
using namespace opflag;
inline constexpr OpcodeInfo OpcodeTable[] = {
#define OPCODE(Name, Mnemonic, Flags, Dst, Src1, Src2, Src3, Mask, Lat,      \
               Port, Uops, Lanes)                                             \
  {Mnemonic,                                                                  \
   static_cast<uint16_t>(Flags),                                              \
   {OperandClass::Dst, OperandClass::Src1, OperandClass::Src2,                \
    OperandClass::Src3, OperandClass::Mask},                                  \
   {Lat, PortKind::Port, Uops, Lanes}},
#include "isa/Opcodes.def"
#undef OPCODE
};
} // namespace detail

inline constexpr unsigned NumOpcodes = std::size(detail::OpcodeTable);

/// The table row for \p Op.
constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return detail::OpcodeTable[static_cast<unsigned>(Op)];
}

/// Comparison predicates (shared by scalar and vector compares).
enum class CmpKind : uint8_t { EQ, NE, LT, LE, GT, GE };

/// Mnemonic for an opcode ("vpgatherff", "kftm.exc", ...).
inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Mnemonic; }

/// Textual form of a predicate ("lt", "ge", ...).
const char *cmpKindName(CmpKind K);

/// Evaluates \p K over signed integers.
bool evalCmp(CmpKind K, int64_t A, int64_t B);

/// Evaluates \p K over doubles (covers both F32 and F64 lane compares).
bool evalCmp(CmpKind K, double A, double B);

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_OPCODE_H
