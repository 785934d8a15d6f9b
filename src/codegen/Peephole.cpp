//===- codegen/Peephole.cpp -----------------------------------------------===//

#include "codegen/Peephole.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

using namespace flexvec;
using namespace flexvec::codegen;
using namespace flexvec::isa;

namespace {

/// True when the instruction's merge-masked (or selecting) semantics read
/// the previous destination value. This is the semantic question (may the
/// old value survive into the result?), so masked loads count; the timing
/// model's wait on the old destination (isa::decode) is a separate policy
/// that treats loads as zero-masking.
bool readsOwnDest(const Instruction &I) {
  if (!I.Dst.isValid() || !I.Dst.isVector())
    return false;
  if (I.Op == Opcode::VBlend)
    return true;
  if (I.Op == Opcode::VSlctLast || I.Op == Opcode::VIndex)
    return false;
  return I.MaskReg.isValid() && I.MaskReg.Index != 0;
}

/// Registers read by \p I (merge-masked destinations included).
void collectReads(const Instruction &I, std::vector<Reg> &Out) {
  for (Reg R : {I.Src1, I.Src2, I.Src3})
    if (R.isValid())
      Out.push_back(R);
  if (I.MaskReg.isValid())
    Out.push_back(I.MaskReg);
  if (readsOwnDest(I))
    Out.push_back(I.Dst);
}

/// Registers written by \p I.
void collectWrites(const Instruction &I, std::vector<Reg> &Out) {
  if (I.Dst.isValid())
    Out.push_back(I.Dst);
  if (I.isFirstFaulting() && I.MaskReg.isValid())
    Out.push_back(I.MaskReg);
}

/// Instructions that must never be moved or removed.
bool hasSideEffects(const Instruction &I) { return I.has(opflag::Fx); }

/// Rebuilds a program keeping instructions where Keep[i], remapping branch
/// targets to the next kept instruction at or after the old target.
Program rebuild(const std::vector<Instruction> &Instrs,
                const std::vector<bool> &Keep, unsigned VecBytes) {
  std::vector<int32_t> NewIndex(Instrs.size() + 1, 0);
  int32_t Next = 0;
  for (size_t I = 0; I < Instrs.size(); ++I) {
    NewIndex[I] = Next;
    if (Keep[I])
      ++Next;
  }
  NewIndex[Instrs.size()] = Next;

  std::vector<Instruction> Out;
  Out.reserve(static_cast<size_t>(Next));
  for (size_t I = 0; I < Instrs.size(); ++I) {
    if (!Keep[I])
      continue;
    Instruction Ins = Instrs[I];
    if (Ins.Target != NoTarget)
      Ins.Target = NewIndex[static_cast<size_t>(Ins.Target)];
    Out.push_back(std::move(Ins));
  }
  return Program(std::move(Out), VecBytes);
}

// --- Dead code elimination ------------------------------------------------===//

unsigned deadCodeElimination(Program &P) {
  const auto &Instrs = P.instructions();
  std::vector<bool> Live(Instrs.size(), false);

  // Roots: every scalar register (flat ids 0..31) is observable after Halt.
  std::vector<bool> RootRegs(NumFlatRegs, false);
  for (unsigned R = 0; R < NumScalarRegs; ++R)
    RootRegs[R] = true;

  // Flow-insensitive fixpoint: side-effecting instructions are live; an
  // instruction is live if a live instruction reads any register it
  // writes. (Conservative: ignores kill positions, so it never removes a
  // value that any retained instruction could observe.)
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<bool> ReadByLive = RootRegs;
    for (size_t I = 0; I < Instrs.size(); ++I) {
      if (!Live[I] && !hasSideEffects(Instrs[I]))
        continue;
      std::vector<Reg> Reads;
      collectReads(Instrs[I], Reads);
      for (Reg R : Reads)
        ReadByLive[R.flatId()] = true;
    }
    for (size_t I = 0; I < Instrs.size(); ++I) {
      if (Live[I])
        continue;
      if (hasSideEffects(Instrs[I])) {
        Live[I] = true;
        Changed = true;
        continue;
      }
      std::vector<Reg> Writes;
      collectWrites(Instrs[I], Writes);
      bool Needed = Writes.empty(); // Pure no-output (nop): drop below.
      for (Reg R : Writes)
        Needed |= ReadByLive[R.flatId()];
      if (Instrs[I].Op == Opcode::Nop)
        Needed = false;
      if (Needed && !Live[I]) {
        Live[I] = true;
        Changed = true;
      }
    }
  }

  unsigned Removed = 0;
  for (size_t I = 0; I < Instrs.size(); ++I)
    if (!Live[I])
      ++Removed;
  if (Removed)
    P = rebuild(Instrs, Live, P.vectorBytes());
  return Removed;
}

// --- Block-local CSE --------------------------------------------------------===//

/// Basic-block leader mask: entry, branch targets, fall-throughs after
/// branches.
std::vector<bool> blockLeaders(const Program &P) {
  const auto &Instrs = P.instructions();
  std::vector<bool> Leader(Instrs.size(), false);
  if (!Instrs.empty())
    Leader[0] = true;
  for (size_t I = 0; I < Instrs.size(); ++I) {
    const Instruction &Ins = Instrs[I];
    if (Ins.Target != NoTarget)
      Leader[static_cast<size_t>(Ins.Target)] = true;
    if (Ins.isBranch() && I + 1 < Instrs.size())
      Leader[I + 1] = true;
  }
  return Leader;
}

/// A structural identity key for pure instructions (comment excluded).
struct InstrKey {
  uint8_t Op, Type, Cond;
  unsigned Dst, Src1, Src2, Src3, Mask;
  int64_t Imm, Disp;
  uint8_t Scale;

  bool operator<(const InstrKey &O) const {
    return std::tie(Op, Type, Cond, Dst, Src1, Src2, Src3, Mask, Imm, Disp,
                    Scale) < std::tie(O.Op, O.Type, O.Cond, O.Dst, O.Src1,
                                      O.Src2, O.Src3, O.Mask, O.Imm, O.Disp,
                                      O.Scale);
  }
};

InstrKey keyOf(const Instruction &I) {
  auto K = [](Reg R) { return R.isValid() ? R.flatId() + 1 : 0u; };
  return InstrKey{static_cast<uint8_t>(I.Op), static_cast<uint8_t>(I.Type),
                  static_cast<uint8_t>(I.Cond), K(I.Dst), K(I.Src1),
                  K(I.Src2), K(I.Src3), K(I.MaskReg), I.Imm, I.Disp,
                  I.Scale};
}

/// True when running \p I twice in a row can leave a different value than
/// running it once: it reads a register it writes (x = x op y), and op is
/// not idempotent. Only the mask AND/OR are.
bool rewritesOwnInput(const Instruction &I) {
  if (I.Op == Opcode::KAnd || I.Op == Opcode::KOr)
    return false;
  std::vector<Reg> Reads, Writes;
  collectReads(I, Reads);
  collectWrites(I, Writes);
  for (Reg W : Writes)
    if (std::find(Reads.begin(), Reads.end(), W) != Reads.end())
      return true;
  return false;
}

unsigned localCse(Program &P) {
  const auto &Instrs = P.instructions();
  std::vector<bool> Leader = blockLeaders(P);
  std::vector<bool> Keep(Instrs.size(), true);
  unsigned Removed = 0;

  std::map<InstrKey, size_t> Available;
  for (size_t I = 0; I < Instrs.size(); ++I) {
    if (Leader[I])
      Available.clear();
    const Instruction &Ins = Instrs[I];

    // Memory reads are not CSE'd (a store may intervene between blocks and
    // tracking store aliasing is not worth it here); anything with side
    // effects or no destination invalidates nothing but is skipped.
    bool Pure = !hasSideEffects(Ins) && !Ins.isLoad() &&
                Ins.Dst.isValid() && Ins.Op != Opcode::Nop;

    if (Pure) {
      InstrKey Key = keyOf(Ins);
      auto It = Available.find(Key);
      if (It != Available.end()) {
        Keep[I] = false;
        ++Removed;
        continue; // Identical value already in the same register.
      }
      // x = x op y is not available after itself: repeating it would
      // apply op again.
      if (!rewritesOwnInput(Ins))
        Available[Key] = I;
    }

    // Invalidate available expressions whose inputs or outputs this
    // instruction overwrites.
    std::vector<Reg> Writes;
    collectWrites(Ins, Writes);
    if (!Writes.empty()) {
      for (auto It = Available.begin(); It != Available.end();) {
        const Instruction &Prev = Instrs[It->second];
        std::vector<Reg> Deps;
        collectReads(Prev, Deps);
        if (Prev.Dst.isValid())
          Deps.push_back(Prev.Dst);
        bool Clobbered = false;
        for (Reg W : Writes)
          for (Reg D : Deps)
            Clobbered |= W == D;
        // Do not invalidate the entry this very instruction installed.
        if (Clobbered && It->second != I)
          It = Available.erase(It);
        else
          ++It;
      }
    }
  }

  if (Removed)
    P = rebuild(Instrs, Keep, P.vectorBytes());
  return Removed;
}

// --- Loop-invariant code motion ---------------------------------------------===//

unsigned hoistOneLoop(Program &P) {
  const auto &Instrs = P.instructions();

  // Find the first innermost loop with hoistable instructions: a backward
  // branch [Head, Back] containing no smaller backward branch with work to
  // hoist is handled on a later fixpoint round anyway, so greedily take
  // the smallest candidate region first.
  struct Region {
    size_t Head, Back;
  };
  std::vector<Region> Regions;
  for (size_t I = 0; I < Instrs.size(); ++I)
    if (Instrs[I].isBranch() && Instrs[I].Target != NoTarget &&
        static_cast<size_t>(Instrs[I].Target) <= I)
      Regions.push_back(Region{static_cast<size_t>(Instrs[I].Target), I});
  std::sort(Regions.begin(), Regions.end(),
            [](const Region &A, const Region &B) {
              return (A.Back - A.Head) < (B.Back - B.Head);
            });

  for (const Region &R : Regions) {
    // Registers written anywhere in the region, with write counts per reg.
    std::vector<unsigned> WriteCount(NumFlatRegs, 0);
    for (size_t I = R.Head; I <= R.Back; ++I) {
      std::vector<Reg> Writes;
      collectWrites(Instrs[I], Writes);
      for (Reg W : Writes)
        ++WriteCount[W.flatId()];
    }
    // A branch from inside the region jumping *into* the middle from
    // outside would break preheader placement; targets of outside branches
    // must not land strictly inside the region.
    bool EntryClean = true;
    for (size_t I = 0; I < Instrs.size(); ++I) {
      if (I >= R.Head && I <= R.Back)
        continue;
      if (Instrs[I].Target != NoTarget &&
          static_cast<size_t>(Instrs[I].Target) > R.Head &&
          static_cast<size_t>(Instrs[I].Target) <= R.Back)
        EntryClean = false;
    }
    if (!EntryClean)
      continue;

    for (size_t I = R.Head; I <= R.Back; ++I) {
      const Instruction &Ins = Instrs[I];
      if (hasSideEffects(Ins) || Ins.isLoad() || Ins.Op == Opcode::Nop)
        continue;
      if (!Ins.Dst.isValid())
        continue;
      std::vector<Reg> Reads;
      collectReads(Ins, Reads);
      bool Invariant = true;
      for (Reg Src : Reads)
        Invariant &= WriteCount[Src.flatId()] == 0;
      std::vector<Reg> Writes;
      collectWrites(Ins, Writes);
      for (Reg W : Writes)
        Invariant &= WriteCount[W.flatId()] == 1; // Only this instruction.
      if (!Invariant)
        continue;
      // A read of the destination earlier in the region (a cross-iteration
      // use-before-def) would change meaning if the definition moved to
      // the preheader.
      bool UsedBeforeDef = false;
      for (size_t J = R.Head; J < I && !UsedBeforeDef; ++J) {
        std::vector<Reg> EarlierReads;
        collectReads(Instrs[J], EarlierReads);
        for (Reg Rd : EarlierReads)
          for (Reg W : Writes)
            UsedBeforeDef |= Rd == W;
      }
      if (UsedBeforeDef)
        continue;

      // Hoist: rebuild with the instruction moved to just before Head.
      std::vector<Instruction> Out;
      Out.reserve(Instrs.size());
      std::vector<int32_t> NewIndex(Instrs.size() + 1);
      for (size_t J = 0; J <= Instrs.size(); ++J) {
        int32_t N = static_cast<int32_t>(J);
        if (J >= R.Head && J <= I)
          N += 1; // Shifted down by the inserted preheader copy.
        if (J > I)
          N += 0; // Deleted original cancels the insertion.
        NewIndex[J] = N;
      }
      for (size_t J = 0; J < Instrs.size(); ++J) {
        if (J == R.Head)
          Out.push_back(Instrs[I]); // Preheader copy.
        if (J == I)
          continue; // Original removed.
        Instruction Copy = Instrs[J];
        if (Copy.Target != NoTarget)
          Copy.Target = NewIndex[static_cast<size_t>(Copy.Target)];
        Out.push_back(std::move(Copy));
      }
      // The hoisted copy itself cannot be a branch (checked above).
      P = Program(std::move(Out), P.vectorBytes());
      return 1;
    }
  }
  return 0;
}

} // namespace

std::string PeepholeStats::describe() const {
  return "hoisted " + std::to_string(Hoisted) + ", cse-removed " +
         std::to_string(CseRemoved) + ", dead-removed " +
         std::to_string(DeadRemoved);
}

Program codegen::optimizeProgram(const Program &In, PeepholeStats *Stats) {
  Program P = In;
  PeepholeStats S;
  // Bounded fixpoint: each LICM round moves one instruction; CSE and DCE
  // run between rounds.
  for (int Round = 0; Round < 256; ++Round) {
    unsigned Cse = localCse(P);
    unsigned Hoisted = hoistOneLoop(P);
    S.CseRemoved += Cse;
    S.Hoisted += Hoisted;
    if (Cse + Hoisted == 0)
      break;
  }
  S.DeadRemoved = deadCodeElimination(P);
  if (Stats)
    *Stats = S;
  return P;
}

CompiledLoop codegen::optimizeLoop(const CompiledLoop &C,
                                   PeepholeStats *Stats) {
  PeepholeStats S;
  CompiledLoop Opt = C;
  Opt.Prog = optimizeProgram(C.Prog, &S);
  Opt.Notes += "; peephole: " + S.describe();
  if (Stats)
    *Stats = S;
  return Opt;
}
