//===- isa/Program.cpp ----------------------------------------------------===//

#include "isa/Program.h"

#include "support/Error.h"

#include <cassert>
#include <cstdio>

using namespace flexvec;
using namespace flexvec::isa;

Program::Program(std::vector<Instruction> Instrs, unsigned VecBytes)
    : Instrs(std::move(Instrs)), VecBytes(VecBytes) {
  assert(VectorConfig::isValidBytes(VecBytes) &&
         "program built for an unsupported vector width");
  Decoded.reserve(this->Instrs.size());
  for (const Instruction &I : this->Instrs)
    Decoded.push_back(decode(I, VecBytes));
}

std::string Program::disassemble() const {
  std::string Out;
  for (size_t I = 0; I < Instrs.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%4zu:  ", I);
    Out += Buf;
    Out += Instrs[I].str();
    Out += '\n';
  }
  return Out;
}

ProgramBuilder::Label ProgramBuilder::createLabel() {
  LabelOffsets.push_back(-1);
  return static_cast<Label>(LabelOffsets.size() - 1);
}

void ProgramBuilder::bind(Label L) {
  assert(L >= 0 && static_cast<size_t>(L) < LabelOffsets.size() &&
         "unknown label");
  assert(LabelOffsets[L] == -1 && "label bound twice");
  LabelOffsets[L] = static_cast<int32_t>(Instrs.size());
}

/// True when every operand slot of \p I holds the register class its opcode's
/// row in isa/Opcodes.def wants, and a first-faulting mask is writable.
[[maybe_unused]] static bool satisfiesContract(const Instruction &I) {
  const OperandContract &W = opcodeInfo(I.Op).Operands;
  return operandClassMatches(W.Dst, I.Dst) &&
         operandClassMatches(W.Src1, I.Src1) &&
         operandClassMatches(W.Src2, I.Src2) &&
         operandClassMatches(W.Src3, I.Src3) &&
         operandClassMatches(W.Mask, I.MaskReg) &&
         !(I.isFirstFaulting() && I.MaskReg.Index == 0);
}

Instruction &ProgramBuilder::emit(Instruction I) {
  assert(satisfiesContract(I) && "operands break the opcode's contract");
  Instrs.push_back(std::move(I));
  return Instrs.back();
}

Program ProgramBuilder::finalize() {
  for (size_t L = 0; L < LabelOffsets.size(); ++L)
    if (LabelOffsets[L] == -1)
      fatalError("unbound label in program");
  std::vector<Instruction> Resolved = Instrs;
  for (Instruction &I : Resolved) {
    if (I.Target == NoTarget)
      continue;
    assert(I.Target >= 0 &&
           static_cast<size_t>(I.Target) < LabelOffsets.size() &&
           "branch to unknown label");
    I.Target = LabelOffsets[I.Target];
  }
  return Program(std::move(Resolved), VecBytes);
}

// --- Control -----------------------------------------------------------===//

Instruction &ProgramBuilder::halt() {
  Instruction I;
  I.Op = Opcode::Halt;
  return emit(I);
}

Instruction &ProgramBuilder::nop() {
  Instruction I;
  I.Op = Opcode::Nop;
  return emit(I);
}

Instruction &ProgramBuilder::jmp(Label L) {
  Instruction I;
  I.Op = Opcode::Jmp;
  I.Target = L;
  return emit(I);
}

Instruction &ProgramBuilder::brZero(Reg Cond, Label L) {
  Instruction I;
  I.Op = Opcode::BrZero;
  I.Src1 = Cond;
  I.Target = L;
  return emit(I);
}

Instruction &ProgramBuilder::brNonZero(Reg Cond, Label L) {
  Instruction I;
  I.Op = Opcode::BrNonZero;
  I.Src1 = Cond;
  I.Target = L;
  return emit(I);
}

// --- Scalar ------------------------------------------------------------===//

Instruction &ProgramBuilder::movImm(Reg D, int64_t V) {
  Instruction I;
  I.Op = Opcode::MovImm;
  I.Dst = D;
  I.Imm = V;
  return emit(I);
}

Instruction &ProgramBuilder::mov(Reg D, Reg S) {
  Instruction I;
  I.Op = Opcode::Mov;
  I.Dst = D;
  I.Src1 = S;
  return emit(I);
}

Instruction &ProgramBuilder::binOp(Opcode Op, Reg D, Reg A, Reg B) {
  Instruction I;
  I.Op = Op;
  I.Dst = D;
  I.Src1 = A;
  I.Src2 = B;
  return emit(I);
}

Instruction &ProgramBuilder::binOpImm(Opcode Op, Reg D, Reg A, int64_t Imm) {
  Instruction I;
  I.Op = Op;
  I.Dst = D;
  I.Src1 = A;
  I.Imm = Imm;
  return emit(I);
}

Instruction &ProgramBuilder::cmp(Reg D, CmpKind K, Reg A, Reg B) {
  Instruction &I = binOp(Opcode::Cmp, D, A, B);
  I.Cond = K;
  return I;
}

Instruction &ProgramBuilder::cmpImm(Reg D, CmpKind K, Reg A, int64_t Imm) {
  Instruction &I = binOpImm(Opcode::CmpImm, D, A, Imm);
  I.Cond = K;
  return I;
}

Instruction &ProgramBuilder::fcmp(Reg D, CmpKind K, ElemType Ty, Reg A,
                                  Reg B) {
  assert(isFloatType(Ty) && "fcmp requires a float type");
  Instruction &I = binOp(Opcode::FCmp, D, A, B);
  I.Cond = K;
  I.Type = Ty;
  return I;
}

Instruction &ProgramBuilder::fbinOp(Opcode Op, ElemType Ty, Reg D, Reg A,
                                    Reg B) {
  assert(isFloatType(Ty) && "scalar fp op requires a float type");
  Instruction &I = binOp(Op, D, A, B);
  I.Type = Ty;
  return I;
}

Instruction &ProgramBuilder::fmovImm(Reg D, ElemType Ty, double V) {
  assert(isFloatType(Ty) && "fmovimm requires a float type");
  Instruction I;
  I.Op = Opcode::FMovImm;
  I.Dst = D;
  I.Type = Ty;
  if (Ty == ElemType::F32) {
    float F = static_cast<float>(V);
    uint32_t Bits;
    __builtin_memcpy(&Bits, &F, 4);
    I.Imm = Bits;
  } else {
    uint64_t Bits;
    __builtin_memcpy(&Bits, &V, 8);
    I.Imm = static_cast<int64_t>(Bits);
  }
  return emit(I);
}

Instruction &ProgramBuilder::select(Reg D, Reg Cond, Reg IfTrue, Reg IfFalse) {
  Instruction I;
  I.Op = Opcode::Select;
  I.Dst = D;
  I.Src1 = Cond;
  I.Src2 = IfTrue;
  I.Src3 = IfFalse;
  return emit(I);
}

Instruction &ProgramBuilder::load(Reg D, ElemType Ty, Reg Base, Reg Index,
                                  uint8_t Scale, int64_t Disp) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  I.Src2 = Index;
  I.Scale = Scale;
  I.Disp = Disp;
  return emit(I);
}

Instruction &ProgramBuilder::store(ElemType Ty, Reg Base, Reg Index,
                                   uint8_t Scale, int64_t Disp, Reg Value) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Type = Ty;
  I.Src1 = Base;
  I.Src2 = Index;
  I.Src3 = Value;
  I.Scale = Scale;
  I.Disp = Disp;
  return emit(I);
}

// --- Vector ------------------------------------------------------------===//

Instruction &ProgramBuilder::vbroadcast(Reg D, ElemType Ty, Reg S, Reg Mask) {
  Instruction I;
  I.Op = Opcode::VBroadcast;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = S;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vbroadcastImm(Reg D, ElemType Ty, int64_t Imm,
                                           Reg Mask) {
  Instruction I;
  I.Op = Opcode::VBroadcastImm;
  I.Type = Ty;
  I.Dst = D;
  I.Imm = Imm;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vindex(Reg D, ElemType Ty, Reg Base) {
  Instruction I;
  I.Op = Opcode::VIndex;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  return emit(I);
}

Instruction &ProgramBuilder::vbinOp(Opcode Op, ElemType Ty, Reg D, Reg A,
                                    Reg B, Reg Mask) {
  Instruction I;
  I.Op = Op;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = A;
  I.Src2 = B;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vbinOpImm(Opcode Op, ElemType Ty, Reg D, Reg A,
                                       int64_t Imm, Reg Mask) {
  Instruction I;
  I.Op = Op;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = A;
  I.Imm = Imm;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vcmp(Reg KD, CmpKind K, ElemType Ty, Reg A,
                                  Reg B, Reg Mask) {
  Instruction I;
  I.Op = Opcode::VCmp;
  I.Cond = K;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = A;
  I.Src2 = B;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vcmpImm(Reg KD, CmpKind K, ElemType Ty, Reg A,
                                     int64_t Imm, Reg Mask) {
  Instruction I;
  I.Op = Opcode::VCmpImm;
  I.Cond = K;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = A;
  I.Imm = Imm;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vblend(Reg D, ElemType Ty, Reg Mask, Reg IfTrue,
                                    Reg IfFalse) {
  Instruction I;
  I.Op = Opcode::VBlend;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = IfTrue;
  I.Src2 = IfFalse;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vextractLast(Reg D, ElemType Ty, Reg Mask,
                                          Reg S) {
  Instruction I;
  I.Op = Opcode::VExtractLast;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = S;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vreduce(Opcode Op, ElemType Ty, Reg D, Reg Mask,
                                     Reg S, Reg Identity) {
  Instruction I;
  I.Op = Op;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = S;
  I.Src2 = Identity;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vload(Reg D, ElemType Ty, Reg Mask, Reg Base,
                                   Reg Index, uint8_t Scale, int64_t Disp) {
  Instruction I;
  I.Op = Opcode::VLoad;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  I.Src2 = Index;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vstore(ElemType Ty, Reg Mask, Reg Base,
                                    Reg Index, uint8_t Scale, int64_t Disp,
                                    Reg Value) {
  Instruction I;
  I.Op = Opcode::VStore;
  I.Type = Ty;
  I.Src1 = Base;
  I.Src2 = Index;
  I.Src3 = Value;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vgather(Reg D, ElemType Ty, Reg Mask, Reg Base,
                                     Reg VIndex, uint8_t Scale, int64_t Disp) {
  Instruction I;
  I.Op = Opcode::VGather;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  I.Src2 = VIndex;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vscatter(ElemType Ty, Reg Mask, Reg Base,
                                      Reg VIndex, uint8_t Scale, int64_t Disp,
                                      Reg Value) {
  Instruction I;
  I.Op = Opcode::VScatter;
  I.Type = Ty;
  I.Src1 = Base;
  I.Src2 = VIndex;
  I.Src3 = Value;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = Mask;
  return emit(I);
}

// --- FlexVec extensions -------------------------------------------------===//

Instruction &ProgramBuilder::vmovff(Reg D, ElemType Ty, Reg MaskInOut,
                                    Reg Base, Reg Index, uint8_t Scale,
                                    int64_t Disp) {
  Instruction I;
  I.Op = Opcode::VMovFF;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  I.Src2 = Index;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = MaskInOut;
  return emit(I);
}

Instruction &ProgramBuilder::vgatherff(Reg D, ElemType Ty, Reg MaskInOut,
                                       Reg Base, Reg VIndex, uint8_t Scale,
                                       int64_t Disp) {
  Instruction I;
  I.Op = Opcode::VGatherFF;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = Base;
  I.Src2 = VIndex;
  I.Scale = Scale;
  I.Disp = Disp;
  I.MaskReg = MaskInOut;
  return emit(I);
}

Instruction &ProgramBuilder::vslctlast(Reg D, ElemType Ty, Reg Mask, Reg S) {
  Instruction I;
  I.Op = Opcode::VSlctLast;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = S;
  I.MaskReg = Mask;
  return emit(I);
}

Instruction &ProgramBuilder::vconflictm(Reg KD, ElemType Ty, Reg WriteEnable,
                                        Reg V1, Reg V2) {
  Instruction I;
  I.Op = Opcode::VConflictM;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = V1;
  I.Src2 = V2;
  I.MaskReg = WriteEnable;
  return emit(I);
}

Instruction &ProgramBuilder::kftmExc(Reg KD, ElemType Ty, Reg WriteEnable,
                                     Reg KStop) {
  Instruction I;
  I.Op = Opcode::KFtmExc;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = KStop;
  I.MaskReg = WriteEnable;
  return emit(I);
}

Instruction &ProgramBuilder::kftmInc(Reg KD, ElemType Ty, Reg WriteEnable,
                                     Reg KStop) {
  Instruction I;
  I.Op = Opcode::KFtmInc;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = KStop;
  I.MaskReg = WriteEnable;
  return emit(I);
}

Instruction &ProgramBuilder::kwhilelt(Reg KD, ElemType Ty, Reg I_, Reg Bound) {
  Instruction I;
  I.Op = Opcode::KWhileLT;
  I.Type = Ty;
  I.Dst = KD;
  I.Src1 = I_;
  I.Src2 = Bound;
  return emit(I);
}

// --- Masks --------------------------------------------------------------===//

Instruction &ProgramBuilder::kmov(Reg D, Reg S) {
  Instruction I;
  I.Op = Opcode::KMov;
  I.Dst = D;
  I.Src1 = S;
  return emit(I);
}

Instruction &ProgramBuilder::kset(Reg D, uint64_t Imm) {
  Instruction I;
  I.Op = Opcode::KSet;
  I.Dst = D;
  I.Imm = static_cast<int64_t>(Imm);
  return emit(I);
}

Instruction &ProgramBuilder::kbinOp(Opcode Op, Reg D, Reg A, Reg B) {
  Instruction I;
  I.Op = Op;
  I.Dst = D;
  I.Src1 = A;
  I.Src2 = B;
  return emit(I);
}

Instruction &ProgramBuilder::knot(Reg D, ElemType Ty, Reg S) {
  Instruction I;
  I.Op = Opcode::KNot;
  I.Type = Ty;
  I.Dst = D;
  I.Src1 = S;
  return emit(I);
}

Instruction &ProgramBuilder::ktest(Reg D, Reg K) {
  Instruction I;
  I.Op = Opcode::KTest;
  I.Dst = D;
  I.Src1 = K;
  return emit(I);
}

Instruction &ProgramBuilder::kpopcnt(Reg D, Reg K) {
  Instruction I;
  I.Op = Opcode::KPopcnt;
  I.Dst = D;
  I.Src1 = K;
  return emit(I);
}

// --- RTM ----------------------------------------------------------------===//

Instruction &ProgramBuilder::xbegin(Label AbortTarget) {
  Instruction I;
  I.Op = Opcode::XBegin;
  I.Target = AbortTarget;
  return emit(I);
}

Instruction &ProgramBuilder::xend() {
  Instruction I;
  I.Op = Opcode::XEnd;
  return emit(I);
}

Instruction &ProgramBuilder::xabort() {
  Instruction I;
  I.Op = Opcode::XAbort;
  return emit(I);
}
