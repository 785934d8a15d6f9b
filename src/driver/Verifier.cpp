//===- driver/Verifier.cpp ------------------------------------------------===//

#include "driver/Verifier.h"

#include <cstdlib>
#include <string>

using namespace flexvec;
using namespace flexvec::driver;
using namespace flexvec::isa;

namespace {

const char *className(OperandClass W) {
  switch (W) {
  case OperandClass::No:
    return "no register";
  case OperandClass::S:
  case OperandClass::OptS:
    return "a scalar register";
  case OperandClass::V:
    return "a vector register";
  case OperandClass::K:
  case OperandClass::OptK:
    return "a mask register";
  }
  return "?";
}

bool indexInRange(const Reg &R) {
  switch (R.Class) {
  case RegClass::None:
    return true;
  case RegClass::Scalar:
    return R.Index < NumScalarRegs;
  case RegClass::Vector:
    return R.Index < NumVectorRegs;
  case RegClass::Mask:
    return R.Index < NumMaskRegs;
  }
  return false;
}

} // namespace

bool driver::verificationEnabled() {
#ifndef NDEBUG
  return true;
#else
  const char *Env = std::getenv("FLEXVEC_VERIFY");
  return Env && Env[0] != '\0' && !(Env[0] == '0' && Env[1] == '\0');
#endif
}

std::vector<std::string> driver::verifyProgram(const Program &Prog) {
  std::vector<std::string> Errors;
  auto Fail = [&](size_t Idx, const Instruction &I, std::string Why) {
    Errors.push_back("instr " + std::to_string(Idx) + " `" + I.str() +
                     "`: " + std::move(Why));
  };

  if (Prog.empty()) {
    Errors.push_back("program is empty");
    return Errors;
  }

  bool SawHalt = false;
  for (size_t Idx = 0; Idx < Prog.size(); ++Idx) {
    const Instruction &I = Prog[Idx];
    const OperandContract &Want = opcodeInfo(I.Op).Operands;

    struct Slot {
      const char *Name;
      const Reg &R;
      OperandClass W;
    } Slots[] = {
        {"Dst", I.Dst, Want.Dst},         {"Src1", I.Src1, Want.Src1},
        {"Src2", I.Src2, Want.Src2},      {"Src3", I.Src3, Want.Src3},
        {"MaskReg", I.MaskReg, Want.Mask},
    };
    for (const Slot &S : Slots) {
      if (!operandClassMatches(S.W, S.R))
        Fail(Idx, I,
             std::string(S.Name) + " must be " + className(S.W) + ", got " +
                 (S.R.isValid() ? S.R.str() : std::string("none")));
      if (!indexInRange(S.R))
        Fail(Idx, I, std::string(S.Name) + " register index out of range");
    }

    // k0 reads as all-ones but is not writable — a mask-producing op
    // targeting it silently loses its result.
    if (I.Dst.isMask() && I.Dst.Index == 0)
      Fail(Idx, I, "writes k0, which is hard-wired to all-ones");
    if (I.isFirstFaulting() && I.MaskReg.isMask() && I.MaskReg.Index == 0)
      Fail(Idx, I, "first-faulting mask operand is in/out and cannot be k0");

    if (I.has(opflag::Tgt)) {
      if (I.Target < 0 || static_cast<size_t>(I.Target) >= Prog.size())
        Fail(Idx, I, "branch target " + std::to_string(I.Target) +
                         " is outside the program");
    } else if (I.Target != NoTarget) {
      Fail(Idx, I, "non-branch carries a branch target");
    }

    if (I.isMemory() && I.Scale != 1 && I.Scale != 2 && I.Scale != 4 &&
        I.Scale != 8)
      Fail(Idx, I, "memory scale must be 1, 2, 4, or 8");

    SawHalt |= I.Op == Opcode::Halt;
  }

  if (!SawHalt)
    Errors.push_back("program has no Halt");
  const Instruction &Last = Prog[Prog.size() - 1];
  if (Last.Op != Opcode::Halt && Last.Op != Opcode::Jmp)
    Errors.push_back("program can fall off the end (last instruction is `" +
                     Last.str() + "`)");
  return Errors;
}
