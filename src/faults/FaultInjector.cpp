//===- faults/FaultInjector.cpp -------------------------------------------===//

#include "faults/FaultInjector.h"

#include "support/Random.h"

#include <algorithm>
#include <cstdlib>

using namespace flexvec;
using namespace flexvec::faults;

namespace {

/// Uniform [0,1) value derived from (Seed, Key) alone.
double hashToUnit(uint64_t Seed, uint64_t Key) {
  SplitMix64 SM(Seed ^ (Key * 0x9e3779b97f4a7c15ULL));
  // Burn one expansion step so nearby keys decorrelate.
  SM.next();
  return static_cast<double>(SM.next() >> 11) * 0x1.0p-53;
}

} // namespace

// A side whose plan is disabled arms no hook: an installed memory hook,
// even one that never fires, sends every access down Memory's out-of-line
// path and switches the block copies off, with nothing else to show for it
// (see memory/Memory.h).
void FaultInjector::arm(mem::Memory &M, rtm::TransactionManager *T) {
  if (Mem.enabled()) {
    M.setFaultHook(this);
    ArmedMem = &M;
  }
  if (T && Tx.enabled()) {
    T->setFaultHook(this);
    ArmedTx = T;
  }
}

void FaultInjector::disarm() {
  if (ArmedMem)
    ArmedMem->setFaultHook(nullptr);
  if (ArmedTx)
    ArmedTx->setFaultHook(nullptr);
  ArmedMem = nullptr;
  ArmedTx = nullptr;
}

bool FaultInjector::lineIsFaulty(const RangeFault &R, uint64_t Line) const {
  if (R.Prob >= 1.0)
    return true;
  if (R.Prob <= 0.0)
    return false;
  return hashToUnit(Mem.Seed, Line) < R.Prob;
}

bool FaultInjector::shouldFault(uint64_t Addr, uint64_t Size, bool IsWrite,
                                uint64_t &FaultAddr) {
  (void)IsWrite;
  ++Stats.MemAccessesSeen;

  if (Mem.FailNthAccess != 0) {
    if (Stats.MemAccessesSeen == Mem.FailNthAccess) {
      ++Stats.MemFaultsInjected;
      FaultAddr = Addr;
      return true;
    }
  }

  if (Mem.Ranges.empty() || Size == 0)
    return false;
  uint64_t FirstLine = Addr / mem::LineBytes;
  uint64_t LastLine = (Addr + Size - 1) / mem::LineBytes;
  for (uint64_t L = FirstLine; L <= LastLine; ++L) {
    uint64_t LineLo = L * mem::LineBytes;
    uint64_t LineHi = LineLo + mem::LineBytes;
    for (const RangeFault &R : Mem.Ranges) {
      if (LineHi <= R.Lo || LineLo >= R.Hi)
        continue;
      if (!lineIsFaulty(R, L))
        continue;
      if (R.Duration == FaultDuration::Transient) {
        if (!HealedLines.insert(L).second)
          continue; // Already fired once; the line has healed.
      }
      ++Stats.MemFaultsInjected;
      FaultAddr = std::max({Addr, LineLo, R.Lo});
      return true;
    }
  }
  return false;
}

rtm::AbortReason FaultInjector::injectAbort(bool AtCommit) {
  (void)AtCommit;
  ++Stats.TxOpsSeen;
  if (Stats.TxAbortsInjected >= Tx.MaxInjected)
    return rtm::AbortReason::None;

  bool Hit = false;
  if (Tx.AbortNthOp != 0)
    Hit = Stats.TxOpsSeen == Tx.AbortNthOp;
  if (!Hit && Tx.AbortProb > 0.0)
    Hit = hashToUnit(Tx.Seed, Stats.TxOpsSeen) < Tx.AbortProb;
  if (!Hit)
    return rtm::AbortReason::None;
  ++Stats.TxAbortsInjected;
  return Tx.Reason;
}

std::string FaultInjector::describe() const {
  std::string S = "faults{seed=" + std::to_string(Mem.Seed);
  if (Mem.FailNthAccess != 0)
    S += ", mem.nth=" + std::to_string(Mem.FailNthAccess);
  for (const RangeFault &R : Mem.Ranges)
    S += ", mem.range=[" + std::to_string(R.Lo) + "," +
         std::to_string(R.Hi) + ")@" + std::to_string(R.Prob) +
         (R.Duration == FaultDuration::Transient ? " transient"
                                                 : " persistent");
  if (Tx.AbortNthOp != 0)
    S += ", tx.nth=" + std::to_string(Tx.AbortNthOp);
  if (Tx.AbortProb > 0.0)
    S += ", tx.prob=" + std::to_string(Tx.AbortProb);
  if (Tx.enabled())
    S += std::string(", tx.reason=") + rtm::abortReasonName(Tx.Reason);
  S += "}";
  return S;
}

bool faults::parseRangeFault(const std::string &Spec, RangeFault &Out,
                             std::string &Error) {
  // LO:HI:PROB[:transient|persistent]
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= Spec.size()) {
    size_t Colon = Spec.find(':', Start);
    if (Colon == std::string::npos) {
      Parts.push_back(Spec.substr(Start));
      break;
    }
    Parts.push_back(Spec.substr(Start, Colon - Start));
    Start = Colon + 1;
  }
  if (Parts.size() < 3 || Parts.size() > 4) {
    Error = "expected LO:HI:PROB[:transient|persistent]";
    return false;
  }
  Out.Lo = std::strtoull(Parts[0].c_str(), nullptr, 0);
  Out.Hi = std::strtoull(Parts[1].c_str(), nullptr, 0);
  Out.Prob = std::atof(Parts[2].c_str());
  Out.Duration = FaultDuration::Persistent;
  if (Parts.size() == 4) {
    if (Parts[3] == "transient")
      Out.Duration = FaultDuration::Transient;
    else if (Parts[3] != "persistent") {
      Error = "duration must be 'transient' or 'persistent'";
      return false;
    }
  }
  if (Out.Hi <= Out.Lo) {
    Error = "empty address range";
    return false;
  }
  if (Out.Prob < 0.0 || Out.Prob > 1.0) {
    Error = "probability must be in [0, 1]";
    return false;
  }
  return true;
}
