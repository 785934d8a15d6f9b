//===- emu/simd/Kernels.h - Width-generic lane-kernel layer -----*- C++ -*-===//
//
// Host-SIMD execution of the hot vector handler bodies in emu/Interp.inc.
// A KernelTable is a flat table of function pointers, one slot per
// (operation family, element type) — plus per-CmpKind slots for the
// compare families — that the interpreter indexes per retired vector
// instruction. Two tables exist:
//
//   scalarKernels()  - reference lane loops, bit-for-bit the semantics the
//                      monolithic handlers executed (and still execute for
//                      the paths that stay un-kernelized: reductions,
//                      first-faulting loads, VPL mask ops).
//   avx2Kernels()    - the vector-extension implementation
//                      (KernelsImpl.inc) compiled for AVX2 (2x256-bit).
//
// CPUID picks AVX2 when this build compiled it; otherwise the scalar table
// runs (resolveSimdBackend in Backend.cpp).
//
// Exactness is the contract: the AVX2 table is observably identical to the
// scalar reference — same result bits, same mask bits, same lane
// extension rules (isa/LaneTraits.h) — which SimdEquivalenceTest enforces
// differentially and docs/PERFORMANCE.md argues analytically (no FMA
// contraction, no reassociation, double rounding innocuous for binary32
// +,-,*,/ computed via binary64).
//
// Kernel calling convention: raw 64-byte register blocks (VecReg::Bytes),
// a resolved 64-bit write mask, and plain integers — no header coupling
// back into the Machine. Kernels read all inputs before writing Dst, so
// Dst may alias either source. Masked-off lanes are preserved in Dst
// (except Blend, which by VBlend semantics writes every lane).
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_EMU_SIMD_KERNELS_H
#define FLEXVEC_EMU_SIMD_KERNELS_H

#include "isa/LaneTraits.h"
#include "isa/Opcode.h"

#include <cstdint>

namespace flexvec {
namespace emu {
namespace simd {

/// Dst[active] = A op B; inactive Dst lanes preserved.
using VecBinFn = void (*)(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                          uint64_t Mask);
/// Dst[active] = A op Imm (or Imm alone, for broadcasts).
using VecImmFn = void (*)(uint8_t *Dst, const uint8_t *A, int64_t Imm,
                          uint64_t Mask);
/// Returns the compare-result mask restricted to active lanes.
using VecCmpFn = uint64_t (*)(const uint8_t *A, const uint8_t *B,
                              uint64_t Mask);
using VecCmpImmFn = uint64_t (*)(const uint8_t *A, int64_t Imm, uint64_t Mask);
/// Every lane: Dst = Mask[lane] ? A : B (VBlend writes all lanes).
using VecBlendFn = void (*)(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                            uint64_t Mask);
/// Dst[active] = Value (truncated to the lane width).
using VecBcastFn = void (*)(uint8_t *Dst, int64_t Value, uint64_t Mask);
/// Dst[lane] = Base + lane for every lane (VIndex ignores the mask).
using VecIndexFn = void (*)(uint8_t *Dst, int64_t Base);
/// VConflictM windowed equality scan; returns the conflict mask.
using VecConflictFn = uint64_t (*)(const uint8_t *V1, const uint8_t *V2,
                                   uint64_t Enable);
/// Gather/scatter address generation: Addrs[lane] = Base +
/// laneInt(Idx)*Scale + Disp for every lane (callers use active ones).
using GatherAddrFn = void (*)(uint64_t *Addrs, const uint8_t *Idx,
                              uint64_t Base, int64_t Disp, uint8_t Scale);

/// Slot counts for the contiguous opcode families. A slot is the opcode's
/// offset inside its family; static_asserts in Backend.cpp pin the enum
/// layout that relies on.
inline constexpr unsigned NumIntBinOps = 8; ///< VAdd..VMax.
inline constexpr unsigned NumIntImmOps = 3; ///< VAddImm, VMulImm, VShlImm.
inline constexpr unsigned NumFpBinOps = 6;  ///< VFAdd..VFMax.

/// FP tables are indexed F32=0, F64=1.
inline unsigned fpTypeIdx(isa::ElemType Ty) {
  return Ty == isa::ElemType::F64 ? 1u : 0u;
}

struct KernelTable {
  /// Integer binary family, [opcode][ElemType]. The F32 column applies the
  /// zero-extension convention of laneInt (unsigned 32-bit min/max), the
  /// F64 column raw 64-bit — see isa/LaneTraits.h.
  VecBinFn IntBin[NumIntBinOps][isa::NumElemTypes];
  VecImmFn IntImm[NumIntImmOps][isa::NumElemTypes];
  /// FP binary family, [opcode][F32|F64].
  VecBinFn FpBin[NumFpBinOps][2];
  /// Compares, [CmpKind][type column]. Int columns follow laneInt
  /// extension; FP compares run in double exactly like evalCmp.
  VecCmpFn CmpInt[isa::NumCmpKinds][isa::NumElemTypes];
  VecCmpImmFn CmpImmInt[isa::NumCmpKinds][isa::NumElemTypes];
  VecCmpFn CmpFp[isa::NumCmpKinds][2];
  VecCmpImmFn CmpImmFp[isa::NumCmpKinds][2];
  VecBlendFn Blend[isa::NumElemTypes];
  VecBcastFn Broadcast[isa::NumElemTypes];
  VecIndexFn Index[isa::NumElemTypes];
  VecConflictFn Conflict[isa::NumElemTypes];
  GatherAddrFn GatherAddr[isa::NumElemTypes];
};

/// The reference table (lane loops). Always available.
const KernelTable &scalarKernels();
/// The AVX2 table; on builds where the compiler cannot target AVX2 this
/// returns the scalar table (and avx2Compiled() is false).
const KernelTable &avx2Kernels();
bool avx2Compiled();

/// Runtime CPUID support query (false off x86 or without the GNU builtin).
bool hostHasAvx2();

} // namespace simd
} // namespace emu
} // namespace flexvec

#endif // FLEXVEC_EMU_SIMD_KERNELS_H
