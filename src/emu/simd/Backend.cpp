//===- emu/simd/Backend.cpp - SIMD backend selection ----------------------===//
//
// Runtime backend resolution: the CPUID capability query and the clamp
// from a requested backend to one this build and host can execute.
//
// Also pins, at compile time, the opcode/enum layout the kernel-table slot
// constants (emu/Interp.inc, emu/simd/Kernels.h) silently rely on.
//
//===----------------------------------------------------------------------===//

#include "emu/Machine.h"
#include "emu/simd/Kernels.h"

using namespace flexvec;
using namespace flexvec::emu;

// Table slots are opcode offsets inside each family; freeze the enum
// intervals they assume.
#define FV_ASSERT_NEXT(A, B)                                                  \
  static_assert(static_cast<unsigned>(isa::Opcode::B) ==                      \
                    static_cast<unsigned>(isa::Opcode::A) + 1,                \
                "kernel table slot order relies on opcode adjacency")
FV_ASSERT_NEXT(VAdd, VSub);
FV_ASSERT_NEXT(VSub, VMul);
FV_ASSERT_NEXT(VMul, VAnd);
FV_ASSERT_NEXT(VAnd, VOr);
FV_ASSERT_NEXT(VOr, VXor);
FV_ASSERT_NEXT(VXor, VMin);
FV_ASSERT_NEXT(VMin, VMax);
FV_ASSERT_NEXT(VAddImm, VMulImm);
FV_ASSERT_NEXT(VMulImm, VShlImm);
FV_ASSERT_NEXT(VFAdd, VFSub);
FV_ASSERT_NEXT(VFSub, VFMul);
FV_ASSERT_NEXT(VFMul, VFDiv);
FV_ASSERT_NEXT(VFDiv, VFMin);
FV_ASSERT_NEXT(VFMin, VFMax);
#undef FV_ASSERT_NEXT

static_assert(static_cast<unsigned>(isa::Opcode::VMax) -
                      static_cast<unsigned>(isa::Opcode::VAdd) + 1 ==
                  simd::NumIntBinOps,
              "IntBin table dimension");
static_assert(static_cast<unsigned>(isa::Opcode::VShlImm) -
                      static_cast<unsigned>(isa::Opcode::VAddImm) + 1 ==
                  simd::NumIntImmOps,
              "IntImm table dimension");
static_assert(static_cast<unsigned>(isa::Opcode::VFMax) -
                      static_cast<unsigned>(isa::Opcode::VFAdd) + 1 ==
                  simd::NumFpBinOps,
              "FpBin table dimension");

static_assert(static_cast<unsigned>(isa::ElemType::I32) == 0 &&
                  static_cast<unsigned>(isa::ElemType::I64) == 1 &&
                  static_cast<unsigned>(isa::ElemType::F32) == 2 &&
                  static_cast<unsigned>(isa::ElemType::F64) == 3 &&
                  isa::NumElemTypes == 4,
              "kernel tables are built in ElemType declaration order");
static_assert(static_cast<unsigned>(isa::CmpKind::EQ) == 0 &&
                  static_cast<unsigned>(isa::CmpKind::GE) == 5 &&
                  isa::NumCmpKinds == 6,
              "compare tables are built in CmpKind declaration order");

bool simd::hostHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const char *emu::simdBackendName(SimdBackend B) {
  switch (B) {
  case SimdBackend::Auto:
    return "auto";
  case SimdBackend::Scalar:
    return "scalar";
  case SimdBackend::Avx2:
    return "avx2";
  }
  return "?";
}

SimdBackend emu::resolveSimdBackend(SimdBackend Requested) {
  if (Requested != SimdBackend::Scalar && simd::hostHasAvx2() &&
      simd::avx2Compiled())
    return SimdBackend::Avx2;
  return SimdBackend::Scalar;
}

namespace flexvec {
namespace emu {
namespace simd {

const KernelTable &kernelsFor(SimdBackend B) {
  return resolveSimdBackend(B) == SimdBackend::Avx2 ? avx2Kernels()
                                                     : scalarKernels();
}

} // namespace simd
} // namespace emu
} // namespace flexvec
