//===- isa/Program.h - Instruction sequences and assembly ------*- C++ -*-===//
//
// A Program is a finalized, branch-resolved instruction sequence starting
// at index 0. ProgramBuilder is the assembler-like construction API used
// by all code generators: it provides typed emit helpers and symbolic
// labels that finalize() resolves into instruction indices.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_PROGRAM_H
#define FLEXVEC_ISA_PROGRAM_H

#include "isa/DecodedInstr.h"
#include "isa/Instruction.h"

#include <string>
#include <vector>

namespace flexvec {
namespace isa {

/// A finalized instruction sequence. Immutable once built: the constructor
/// decodes every instruction at the program's width, so a copy carries a
/// table that cannot go stale, and concurrent runs only read it.
class Program {
public:
  Program() = default;
  explicit Program(std::vector<Instruction> Instrs,
                   unsigned VecBytes = VectorBytes);

  /// Vector-register width (bytes) this program was compiled for; lane
  /// counts and all-lanes masks in decoded() are resolved at it.
  unsigned vectorBytes() const { return VecBytes; }

  size_t size() const { return Instrs.size(); }
  bool empty() const { return Instrs.empty(); }
  const Instruction &operator[](size_t I) const { return Instrs[I]; }

  const std::vector<Instruction> &instructions() const { return Instrs; }

  /// The decoded table, one row per instruction at the same index; what
  /// the emulator dispatches on and the trace hands the timing model.
  const std::vector<DecodedInstr> &decoded() const { return Decoded; }

  /// Counts instructions for which \p Pred holds.
  template <typename PredT> unsigned countIf(PredT Pred) const {
    unsigned N = 0;
    for (const Instruction &I : Instrs)
      if (Pred(I))
        ++N;
    return N;
  }

  /// True if any instruction uses \p Op.
  bool usesOpcode(Opcode Op) const {
    return countIf([Op](const Instruction &I) { return I.Op == Op; }) != 0;
  }

  /// Renders the whole program as assembly text with instruction indices.
  std::string disassemble() const;

private:
  std::vector<Instruction> Instrs;
  std::vector<DecodedInstr> Decoded;
  unsigned VecBytes = VectorBytes;
};

/// Assembler-style builder with symbolic labels.
class ProgramBuilder {
public:
  using Label = int32_t;

  /// Creates a fresh unbound label.
  Label createLabel();

  /// Binds \p L to the next emitted instruction.
  void bind(Label L);

  /// Emits a raw instruction; returns a reference valid until the next emit.
  Instruction &emit(Instruction I);

  /// Number of instructions emitted so far.
  size_t size() const { return Instrs.size(); }

  // --- Control ---
  Instruction &halt();
  Instruction &nop();
  Instruction &jmp(Label L);
  Instruction &brZero(Reg Cond, Label L);
  Instruction &brNonZero(Reg Cond, Label L);

  // --- Scalar ---
  Instruction &movImm(Reg D, int64_t V);
  Instruction &mov(Reg D, Reg S);
  Instruction &binOp(Opcode Op, Reg D, Reg A, Reg B);
  Instruction &binOpImm(Opcode Op, Reg D, Reg A, int64_t Imm);
  Instruction &cmp(Reg D, CmpKind K, Reg A, Reg B);
  Instruction &cmpImm(Reg D, CmpKind K, Reg A, int64_t Imm);
  Instruction &fcmp(Reg D, CmpKind K, ElemType Ty, Reg A, Reg B);
  Instruction &fbinOp(Opcode Op, ElemType Ty, Reg D, Reg A, Reg B);
  Instruction &fmovImm(Reg D, ElemType Ty, double V);
  Instruction &select(Reg D, Reg Cond, Reg IfTrue, Reg IfFalse);
  Instruction &load(Reg D, ElemType Ty, Reg Base, Reg Index, uint8_t Scale,
                    int64_t Disp);
  Instruction &store(ElemType Ty, Reg Base, Reg Index, uint8_t Scale,
                     int64_t Disp, Reg Value);

  // --- Vector ---
  Instruction &vbroadcast(Reg D, ElemType Ty, Reg S, Reg Mask = Reg::none());
  Instruction &vbroadcastImm(Reg D, ElemType Ty, int64_t Imm,
                             Reg Mask = Reg::none());
  Instruction &vindex(Reg D, ElemType Ty, Reg Base);
  Instruction &vbinOp(Opcode Op, ElemType Ty, Reg D, Reg A, Reg B,
                      Reg Mask = Reg::none());
  Instruction &vbinOpImm(Opcode Op, ElemType Ty, Reg D, Reg A, int64_t Imm,
                         Reg Mask = Reg::none());
  Instruction &vcmp(Reg KD, CmpKind K, ElemType Ty, Reg A, Reg B,
                    Reg Mask = Reg::none());
  Instruction &vcmpImm(Reg KD, CmpKind K, ElemType Ty, Reg A, int64_t Imm,
                       Reg Mask = Reg::none());
  Instruction &vblend(Reg D, ElemType Ty, Reg Mask, Reg IfTrue, Reg IfFalse);
  Instruction &vextractLast(Reg D, ElemType Ty, Reg Mask, Reg S);
  Instruction &vreduce(Opcode Op, ElemType Ty, Reg D, Reg Mask, Reg S,
                       Reg Identity);
  Instruction &vload(Reg D, ElemType Ty, Reg Mask, Reg Base, Reg Index,
                     uint8_t Scale, int64_t Disp);
  Instruction &vstore(ElemType Ty, Reg Mask, Reg Base, Reg Index,
                      uint8_t Scale, int64_t Disp, Reg Value);
  Instruction &vgather(Reg D, ElemType Ty, Reg Mask, Reg Base, Reg VIndex,
                       uint8_t Scale, int64_t Disp);
  Instruction &vscatter(ElemType Ty, Reg Mask, Reg Base, Reg VIndex,
                        uint8_t Scale, int64_t Disp, Reg Value);

  // --- FlexVec extensions ---
  Instruction &vmovff(Reg D, ElemType Ty, Reg MaskInOut, Reg Base, Reg Index,
                      uint8_t Scale, int64_t Disp);
  Instruction &vgatherff(Reg D, ElemType Ty, Reg MaskInOut, Reg Base,
                         Reg VIndex, uint8_t Scale, int64_t Disp);
  Instruction &vslctlast(Reg D, ElemType Ty, Reg Mask, Reg S);
  Instruction &vconflictm(Reg KD, ElemType Ty, Reg WriteEnable, Reg V1,
                          Reg V2);
  Instruction &kftmExc(Reg KD, ElemType Ty, Reg WriteEnable, Reg KStop);
  Instruction &kftmInc(Reg KD, ElemType Ty, Reg WriteEnable, Reg KStop);
  /// SVE-style loop-control predicate: KD[l] = (I + l < Bound) for the
  /// lanes of Ty at the builder's vector width.
  Instruction &kwhilelt(Reg KD, ElemType Ty, Reg I, Reg Bound);

  // --- Masks ---
  Instruction &kmov(Reg D, Reg S);
  Instruction &kset(Reg D, uint64_t Imm);
  Instruction &kbinOp(Opcode Op, Reg D, Reg A, Reg B);
  Instruction &knot(Reg D, ElemType Ty, Reg S);
  Instruction &ktest(Reg D, Reg K);
  Instruction &kpopcnt(Reg D, Reg K);

  // --- RTM ---
  Instruction &xbegin(Label AbortTarget);
  Instruction &xend();
  Instruction &xabort();

  /// Vector width (bytes) stamped onto the finalized Program. Defaults to
  /// the 512-bit architecture default; the lowering pipeline sets it from
  /// the compilation's VectorConfig.
  void setVectorBytes(unsigned Bytes) { VecBytes = Bytes; }
  unsigned vectorBytes() const { return VecBytes; }

  /// Resolves all labels and produces the program. Every created label must
  /// have been bound.
  Program finalize();

private:
  std::vector<Instruction> Instrs;
  std::vector<int32_t> LabelOffsets; ///< -1 while unbound.
  unsigned VecBytes = VectorBytes;
};

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_PROGRAM_H
