//===- isa/Instruction.cpp ------------------------------------------------===//

#include "isa/Instruction.h"

#include <cstdio>

using namespace flexvec;
using namespace flexvec::isa;

const char *isa::elemTypeName(ElemType Ty) {
  switch (Ty) {
  case ElemType::I32:
    return "i32";
  case ElemType::I64:
    return "i64";
  case ElemType::F32:
    return "f32";
  case ElemType::F64:
    return "f64";
  }
  return "?";
}

std::string Reg::str() const {
  char Buf[8];
  switch (Class) {
  case RegClass::None:
    return "<none>";
  case RegClass::Scalar:
    std::snprintf(Buf, sizeof(Buf), "r%u", Index);
    return Buf;
  case RegClass::Vector:
    std::snprintf(Buf, sizeof(Buf), "v%u", Index);
    return Buf;
  case RegClass::Mask:
    std::snprintf(Buf, sizeof(Buf), "k%u", Index);
    return Buf;
  }
  return "<bad>";
}

std::string Instruction::str() const {
  std::string Out = opcodeName(Op);
  if (has(opflag::Cc)) {
    Out += '.';
    Out += cmpKindName(Cond);
  }
  if (has(opflag::Ty)) {
    Out += '.';
    Out += elemTypeName(Type);
  }

  bool FirstOperand = true;
  auto appendOperand = [&Out, &FirstOperand](const std::string &S) {
    Out += FirstOperand ? " " : ", ";
    FirstOperand = false;
    Out += S;
  };

  if (Dst.isValid())
    appendOperand(Dst.str());
  // std::string("{"), not "{": GCC 12 reports a false -Wrestrict on
  // `"literal" + std::string&&` (GCC bug 105329). Likewise below.
  if (MaskReg.isValid())
    appendOperand(std::string("{") + MaskReg.str() + "}");

  if (isMemory()) {
    std::string Mem = std::string("[") + Src1.str();
    if (Src2.isValid()) {
      Mem += " + " + Src2.str();
      if (Scale != 1) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "*%u", Scale);
        Mem += Buf;
      }
    }
    if (Disp != 0) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " + %lld", static_cast<long long>(Disp));
      Mem += Buf;
    }
    Mem += "]";
    appendOperand(Mem);
    if (Src3.isValid())
      appendOperand(Src3.str());
  } else {
    if (Src1.isValid())
      appendOperand(Src1.str());
    if (Src2.isValid())
      appendOperand(Src2.str());
    if (Src3.isValid())
      appendOperand(Src3.str());
  }

  if (has(opflag::Imm)) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Imm));
    appendOperand(Buf);
  }

  if (Target != NoTarget) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "@%d", Target);
    appendOperand(Buf);
  }

  if (!Comment.empty())
    Out += "    ; " + Comment;
  return Out;
}
