//===- emu/simd/SimdAvx2.cpp - AVX2 kernel table --------------------------===//
//
// Compiles the kernel bodies (KernelsImpl.inc) at -mavx2, set per-file by
// CMake when the compiler supports it; 64-byte guest registers are
// processed as pairs of 256-bit operations. If the flag is unavailable the
// table degrades to the scalar reference and avx2Compiled() reports it.
//
//===----------------------------------------------------------------------===//

#include "emu/simd/Kernels.h"

#if defined(__AVX2__)

#include "emu/simd/KernelsImpl.inc"

namespace flexvec {
namespace emu {
namespace simd {
const KernelTable &avx2Kernels() {
  static const KernelTable T = avx2impl::buildTable();
  return T;
}
bool avx2Compiled() { return true; }
} // namespace simd
} // namespace emu
} // namespace flexvec

#else // !__AVX2__

namespace flexvec {
namespace emu {
namespace simd {
const KernelTable &avx2Kernels() { return scalarKernels(); }
bool avx2Compiled() { return false; }
} // namespace simd
} // namespace emu
} // namespace flexvec

#endif
