//===- isa/Opcode.cpp -----------------------------------------------------===//

#include "isa/Opcode.h"

#include "support/Error.h"

using namespace flexvec;
using namespace flexvec::isa;

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
