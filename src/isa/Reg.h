//===- isa/Reg.h - Register file model --------------------------*- C++ -*-===//
//
// Architectural register classes for the FlexVec target: 32 64-bit scalar
// registers, 32 512-bit vector registers, and 8 mask registers (k0..k7),
// mirroring the AVX-512 register file the paper builds on. k0 is hard-wired
// to all-ones when used as a write mask, matching AVX-512 semantics.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ISA_REG_H
#define FLEXVEC_ISA_REG_H

#include <cassert>
#include <cstdint>
#include <string>

namespace flexvec {
namespace isa {

/// Default width of a vector register in bytes (AVX-512: 512 bits). The
/// pipeline is width-generic — see VectorConfig below — and this is the
/// value every layer assumes when no configuration is threaded through.
inline constexpr unsigned VectorBytes = 64;

/// The supported vector-width range: 128-bit (SSE/NEON-class) through
/// 2048-bit (the SVE architectural maximum). Emulator register storage is
/// sized for the maximum so one Machine can run any configuration.
inline constexpr unsigned MinVectorBytes = 16;
inline constexpr unsigned MaxVectorBytes = 256;

inline constexpr unsigned NumScalarRegs = 32;
inline constexpr unsigned NumVectorRegs = 32;
inline constexpr unsigned NumMaskRegs = 8;
/// Size of the flat numbering over all three classes (Reg::flatId).
inline constexpr unsigned NumFlatRegs =
    NumScalarRegs + NumVectorRegs + NumMaskRegs;

/// Vector element types supported by the target.
enum class ElemType : uint8_t { I32, I64, F32, F64 };

/// Size of one element in bytes.
inline unsigned elemSize(ElemType Ty) {
  switch (Ty) {
  case ElemType::I32:
  case ElemType::F32:
    return 4;
  case ElemType::I64:
  case ElemType::F64:
    return 8;
  }
  assert(false && "covered switch");
  return 0;
}

/// THE lane-count definition: lanes a \p VecBytes-wide vector holds for
/// \p Ty. Every other lane-count helper (lanesFor, laneCount,
/// VectorConfig::lanes) is a thin wrapper over this one.
constexpr unsigned laneCountFor(unsigned VecBytes, ElemType Ty) {
  return VecBytes / ((Ty == ElemType::I32 || Ty == ElemType::F32) ? 4u : 8u);
}

/// Number of lanes a default-width (512-bit) vector holds for \p Ty.
inline unsigned lanesFor(ElemType Ty) {
  return laneCountFor(VectorBytes, Ty);
}

/// Per-compilation / per-run vector width. Valid widths are the powers of
/// two from MinVectorBytes to MaxVectorBytes (128 -> 2048 bits); masks
/// stay uint64_t because the widest configuration with the narrowest lane
/// (2048-bit / 4-byte lanes) is exactly 64 lanes.
struct VectorConfig {
  unsigned Bytes = VectorBytes;

  constexpr VectorConfig() = default;
  constexpr explicit VectorConfig(unsigned Bytes) : Bytes(Bytes) {}

  static constexpr bool isValidBytes(unsigned B) {
    return B >= MinVectorBytes && B <= MaxVectorBytes &&
           (B & (B - 1)) == 0;
  }
  static constexpr bool isValidBits(unsigned Bits) {
    return Bits % 8 == 0 && isValidBytes(Bits / 8);
  }

  constexpr unsigned bits() const { return Bytes * 8; }
  constexpr unsigned lanes(ElemType Ty) const {
    return laneCountFor(Bytes, Ty);
  }
  /// Most lanes any element type yields at this width (4-byte lanes).
  constexpr unsigned maxLanes() const { return Bytes / 4; }

  bool operator==(const VectorConfig &O) const { return Bytes == O.Bytes; }
  bool operator!=(const VectorConfig &O) const { return Bytes != O.Bytes; }
};

inline bool isFloatType(ElemType Ty) {
  return Ty == ElemType::F32 || Ty == ElemType::F64;
}

const char *elemTypeName(ElemType Ty);

/// Register classes.
enum class RegClass : uint8_t { None, Scalar, Vector, Mask };

/// A typed architectural register reference.
struct Reg {
  RegClass Class = RegClass::None;
  uint8_t Index = 0;

  constexpr Reg() = default;
  constexpr Reg(RegClass Class, uint8_t Index) : Class(Class), Index(Index) {}

  static constexpr Reg none() { return Reg(); }
  static Reg scalar(unsigned I) {
    assert(I < NumScalarRegs && "scalar register index out of range");
    return Reg(RegClass::Scalar, static_cast<uint8_t>(I));
  }
  static Reg vector(unsigned I) {
    assert(I < NumVectorRegs && "vector register index out of range");
    return Reg(RegClass::Vector, static_cast<uint8_t>(I));
  }
  static Reg mask(unsigned I) {
    assert(I < NumMaskRegs && "mask register index out of range");
    return Reg(RegClass::Mask, static_cast<uint8_t>(I));
  }

  bool isValid() const { return Class != RegClass::None; }
  bool isScalar() const { return Class == RegClass::Scalar; }
  bool isVector() const { return Class == RegClass::Vector; }
  bool isMask() const { return Class == RegClass::Mask; }

  bool operator==(const Reg &O) const {
    return Class == O.Class && Index == O.Index;
  }
  bool operator!=(const Reg &O) const { return !(*this == O); }

  /// One number per architectural register across the classes: scalar
  /// 0..31, vector 32..63, mask 64..71 (below NumFlatRegs).
  unsigned flatId() const {
    assert(isValid() && "an absent register has no flat id");
    switch (Class) {
    case RegClass::Vector:
      return NumScalarRegs + Index;
    case RegClass::Mask:
      return NumScalarRegs + NumVectorRegs + Index;
    default:
      return Index;
    }
  }

  /// Printable name: r0..r31, v0..v31, k0..k7.
  std::string str() const;
};

} // namespace isa
} // namespace flexvec

#endif // FLEXVEC_ISA_REG_H
