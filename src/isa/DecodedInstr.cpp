//===- isa/DecodedInstr.cpp -----------------------------------------------===//

#include "isa/DecodedInstr.h"

#include "support/Bits.h"

using namespace flexvec;
using namespace flexvec::isa;

static_assert((opflag::Ser << 1) <= dflag::Src2,
              "decoded flag bits sit above the opcode-table flags");

DecodedInstr isa::decode(const Instruction &I, unsigned VecBytes) {
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  const InstrTiming &T = Info.Timing;
  DecodedInstr D{};
  D.Op = I.Op;
  D.Type = I.Type;
  D.Cond = I.Cond;
  D.ES = static_cast<uint8_t>(elemSize(I.Type));
  D.Lanes = static_cast<uint8_t>(laneCountFor(VecBytes, I.Type));
  D.Dst = I.Dst.Index;
  D.Src1 = I.Src1.Index;
  D.Src2 = I.Src2.Index;
  D.Src3 = I.Src3.Index;
  // k0 (or no mask register) enables all lanes of the element type.
  D.EffMask = (!I.MaskReg.isValid() || I.MaskReg.Index == 0)
                  ? NoEffMask
                  : I.MaskReg.Index;
  D.Scale = I.Scale;
  D.AllMask = lowBitMask(D.Lanes);
  D.Imm = I.Imm;
  D.Disp = I.Disp;
  D.Target = I.Target;

  D.Flags = Info.Flags;
  if (I.Src2.isValid())
    D.Flags |= dflag::Src2;
  const bool IsMemory = Info.Flags & (opflag::Ld | opflag::St);
  if (T.Port == PortKind::None && !(Info.Flags & opflag::Br))
    D.Flags |= dflag::Untimed;

  D.Port = T.Port;
  D.Latency = static_cast<uint16_t>(T.Latency);
  D.LanesPerMemUop = static_cast<uint8_t>(T.LanesPerMemUop);
  // Vector-unit (non-memory) ops occupy the 512-bit datapath once per
  // native slice: a 1024-bit configuration double-pumps, 2048-bit
  // quad-pumps. Memory ops are expanded per address by the timing model.
  unsigned Uops = T.FixedUops;
  if (T.Port == PortKind::Vec && (Info.Flags & opflag::Vec) && !IsMemory &&
      VecBytes > 64)
    Uops *= VecBytes / 64;
  D.Uops = static_cast<uint8_t>(Uops);

  for (Reg R : {I.Src1, I.Src2, I.Src3, I.MaskReg})
    if (R.isValid())
      D.WaitIds[D.NumWaits++] = static_cast<uint8_t>(R.flatId());
  D.DstId = I.Dst.isValid() ? static_cast<uint8_t>(I.Dst.flatId())
                            : NoFlatReg;
  // Timing-model policy, not semantics: only genuinely merge-masked vector
  // writes wait on their old destination (VBLEND selects; masked ALU ops
  // merge). Loads and gathers are treated as zero-masking, which is how
  // baseline compilers break the false dependence, and full-width writes
  // (broadcast-class results, VSLCTLAST) replace every lane.
  bool ReadsDest = false;
  if (I.Dst.isVector()) {
    if (I.Op == Opcode::VBlend)
      ReadsDest = true;
    else if (I.MaskReg.isValid() && I.MaskReg.Index != 0 &&
             !(Info.Flags & opflag::Ld) && I.Op != Opcode::VSlctLast)
      ReadsDest = true;
  }
  if (ReadsDest)
    D.WaitIds[D.NumWaits++] = D.DstId;
  D.FFMaskId = (Info.Flags & opflag::FF) && I.MaskReg.isValid()
                   ? static_cast<uint8_t>(I.MaskReg.flatId())
                   : NoFlatReg;
  return D;
}
