//===- isa/Opcode.cpp -----------------------------------------------------===//

#include "isa/Opcode.h"

#include "support/Error.h"

using namespace flexvec;
using namespace flexvec::isa;

const char *isa::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Halt:
    return "halt";
  case Opcode::Nop:
    return "nop";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::BrZero:
    return "brz";
  case Opcode::BrNonZero:
    return "brnz";
  case Opcode::MovImm:
    return "movimm";
  case Opcode::Mov:
    return "mov";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::AddImm:
    return "addi";
  case Opcode::MulImm:
    return "muli";
  case Opcode::AndImm:
    return "andi";
  case Opcode::ShlImm:
    return "shli";
  case Opcode::ShrImm:
    return "shri";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::Cmp:
    return "cmp";
  case Opcode::CmpImm:
    return "cmpi";
  case Opcode::Select:
    return "select";
  case Opcode::FMovImm:
    return "fmovimm";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FMin:
    return "fmin";
  case Opcode::FMax:
    return "fmax";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::VBroadcast:
    return "vbroadcast";
  case Opcode::VBroadcastImm:
    return "vbroadcasti";
  case Opcode::VIndex:
    return "vindex";
  case Opcode::VAdd:
    return "vadd";
  case Opcode::VSub:
    return "vsub";
  case Opcode::VMul:
    return "vmul";
  case Opcode::VAnd:
    return "vand";
  case Opcode::VOr:
    return "vor";
  case Opcode::VXor:
    return "vxor";
  case Opcode::VMin:
    return "vmin";
  case Opcode::VMax:
    return "vmax";
  case Opcode::VAddImm:
    return "vaddi";
  case Opcode::VMulImm:
    return "vmuli";
  case Opcode::VShlImm:
    return "vshli";
  case Opcode::VFAdd:
    return "vfadd";
  case Opcode::VFSub:
    return "vfsub";
  case Opcode::VFMul:
    return "vfmul";
  case Opcode::VFDiv:
    return "vfdiv";
  case Opcode::VFMin:
    return "vfmin";
  case Opcode::VFMax:
    return "vfmax";
  case Opcode::VCmp:
    return "vcmp";
  case Opcode::VCmpImm:
    return "vcmpi";
  case Opcode::VBlend:
    return "vblend";
  case Opcode::VExtractLast:
    return "vextractlast";
  case Opcode::VReduceAdd:
    return "vreduceadd";
  case Opcode::VReduceMin:
    return "vreducemin";
  case Opcode::VReduceMax:
    return "vreducemax";
  case Opcode::VLoad:
    return "vload";
  case Opcode::VStore:
    return "vstore";
  case Opcode::VGather:
    return "vpgather";
  case Opcode::VScatter:
    return "vpscatter";
  case Opcode::VMovFF:
    return "vmovff";
  case Opcode::VGatherFF:
    return "vpgatherff";
  case Opcode::VSlctLast:
    return "vpslctlast";
  case Opcode::VConflictM:
    return "vpconflictm";
  case Opcode::KFtmExc:
    return "kftm.exc";
  case Opcode::KFtmInc:
    return "kftm.inc";
  case Opcode::KMov:
    return "kmov";
  case Opcode::KSet:
    return "kset";
  case Opcode::KAnd:
    return "kand";
  case Opcode::KOr:
    return "kor";
  case Opcode::KXor:
    return "kxor";
  case Opcode::KAndN:
    return "kandn";
  case Opcode::KNot:
    return "knot";
  case Opcode::KTest:
    return "ktest";
  case Opcode::KPopcnt:
    return "kpopcnt";
  case Opcode::KWhileLT:
    return "kwhilelt";
  case Opcode::XBegin:
    return "xbegin";
  case Opcode::XEnd:
    return "xend";
  case Opcode::XAbort:
    return "xabort";
  }
  unreachable("unknown opcode");
}

const char *isa::cmpKindName(CmpKind K) {
  switch (K) {
  case CmpKind::EQ:
    return "eq";
  case CmpKind::NE:
    return "ne";
  case CmpKind::LT:
    return "lt";
  case CmpKind::LE:
    return "le";
  case CmpKind::GT:
    return "gt";
  case CmpKind::GE:
    return "ge";
  }
  unreachable("unknown compare kind");
}

bool isa::evalCmp(CmpKind K, int64_t A, int64_t B) {
  switch (K) {
  case CmpKind::EQ:
    return A == B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::LT:
    return A < B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::GE:
    return A >= B;
  }
  unreachable("unknown compare kind");
}

bool isa::evalCmp(CmpKind K, double A, double B) {
  switch (K) {
  case CmpKind::EQ:
    return A == B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::LT:
    return A < B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::GE:
    return A >= B;
  }
  unreachable("unknown compare kind");
}
