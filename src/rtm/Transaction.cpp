//===- rtm/Transaction.cpp ------------------------------------------------===//

#include "rtm/Transaction.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <bit>
#include <cassert>

using namespace flexvec;
using namespace flexvec::rtm;

TxFaultHook::~TxFaultHook() = default;

const char *rtm::abortReasonName(AbortReason R) {
  switch (R) {
  case AbortReason::None:
    return "none";
  case AbortReason::Explicit:
    return "explicit";
  case AbortReason::Fault:
    return "fault";
  case AbortReason::Capacity:
    return "capacity";
  case AbortReason::Conflict:
    return "conflict";
  case AbortReason::Spurious:
    return "spurious";
  case AbortReason::Nested:
    return "nested";
  }
  unreachable("unknown abort reason");
}

bool TransactionManager::begin() {
  if (Active) {
    // A nested XBEGIN is an architectural abort of the running
    // transaction (Intel RTM aborts on unsupported nesting depth), not a
    // process-fatal condition: roll back and let the machine redirect to
    // the abort handler.
    abort(AbortReason::Nested);
    return false;
  }
  Active = true;
  UndoLog.clear();
  UndoBytes.clear();
  clearFootprint();
  ++Stats.Begins;
  return true;
}

bool TransactionManager::commit() {
  assert(Active && "commit outside a transaction");
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/true);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      abort(Injected);
      return false;
    }
  }
  Active = false;
  UndoLog.clear();
  UndoBytes.clear();
  clearFootprint();
  ++Stats.Commits;
  return true;
}

void TransactionManager::abort(AbortReason Reason) {
  assert(Active && "abort outside a transaction");
  assert(Reason != AbortReason::None && "abort requires a reason");
  // Undo tentative writes in reverse order. The rollback uses the debug
  // write path: undo targets were mapped and writable when logged, and an
  // armed fault injector must not be able to corrupt a rollback (real
  // hardware discards the speculative cache lines unconditionally).
  for (auto It = UndoLog.rbegin(); It != UndoLog.rend(); ++It) {
    for (uint64_t End = It->Size; End != 0; End -= It->Grain) {
      const uint64_t Piece = End - It->Grain;
      mem::AccessResult R = M.poke(It->Addr + Piece,
                                   UndoBytes.data() + It->Offset + Piece,
                                   It->Grain);
      if (!R.Ok)
        fatalError("rollback write faulted; undo log is corrupt");
    }
  }
  Active = false;
  UndoLog.clear();
  UndoBytes.clear();
  clearFootprint();
  ++Stats.Aborts;
  LastAbort = Reason;
  switch (Reason) {
  case AbortReason::Explicit:
    ++Stats.AbortsExplicit;
    break;
  case AbortReason::Fault:
    ++Stats.AbortsByFault;
    break;
  case AbortReason::Capacity:
    ++Stats.AbortsByCapacity;
    break;
  case AbortReason::Conflict:
    ++Stats.AbortsByConflict;
    break;
  case AbortReason::Spurious:
    ++Stats.AbortsSpurious;
    break;
  case AbortReason::Nested:
    ++Stats.AbortsNested;
    break;
  case AbortReason::None:
    break;
  }
}

// --- Footprint: epoch-tagged open-addressed line table ------------------===//

namespace {
/// Initial line-table size: 1 KiB, enough for a short transaction. The
/// table doubles on demand; at full capacity (MaxReadSetLines +
/// MaxWriteSetLines + 2 live lines) it reaches 16 Ki slots.
constexpr size_t InitialLineSlots = 64;

uint64_t firstLine(uint64_t Addr) { return Addr / mem::LineBytes; }
uint64_t lastLine(uint64_t Addr, uint64_t Size) {
  return Size ? (Addr + Size - 1) / mem::LineBytes : firstLine(Addr);
}
/// Fibonacci hashing: the top log2(table size) bits of Line * 2^64/phi.
size_t homeSlot(uint64_t Line, unsigned Shift) {
  return static_cast<size_t>((Line * 0x9E3779B97F4A7C15ULL) >> Shift);
}
} // namespace

void TransactionManager::clearFootprint() {
  LinesUsed = ReadSetLines = WriteSetLines = 0;
  if (++Epoch == 0) {
    // The tag wrapped: slots from 2^32 epochs ago would read as live.
    for (LineSlot &S : LineTable)
      S.Epoch = 0;
    Epoch = 1;
  }
}

void TransactionManager::growLineTable() {
  std::vector<LineSlot> Old = std::move(LineTable);
  const size_t N = Old.empty() ? InitialLineSlots : 2 * Old.size();
  LineTable.assign(N, LineSlot());
  LineShift = 64 - static_cast<unsigned>(std::countr_zero(N));
  for (const LineSlot &S : Old) {
    if (S.Epoch != Epoch)
      continue;
    size_t I = homeSlot(S.Line, LineShift);
    while (LineTable[I].Epoch == Epoch)
      I = (I + 1) & (N - 1);
    LineTable[I] = S;
  }
}

void TransactionManager::addLine(uint64_t Line, uint8_t Set) {
  if (2 * (LinesUsed + 1) > LineTable.size())
    growLineTable();
  const size_t Mask = LineTable.size() - 1;
  for (size_t I = homeSlot(Line, LineShift);; I = (I + 1) & Mask) {
    LineSlot &S = LineTable[I];
    if (S.Epoch != Epoch) {
      S.Line = Line;
      S.Epoch = Epoch;
      S.Sets = 0;
      ++LinesUsed;
    } else if (S.Line != Line) {
      continue;
    }
    if (!(S.Sets & Set)) {
      S.Sets |= Set;
      ++(Set == InWriteSet ? WriteSetLines : ReadSetLines);
    }
    return;
  }
}

bool TransactionManager::trackFootprint(uint64_t Addr, uint64_t Size,
                                        bool IsWrite) {
  const uint64_t Last = lastLine(Addr, Size);
  for (uint64_t L = firstLine(Addr); L <= Last; ++L)
    addLine(L, IsWrite ? InWriteSet : InReadSet);
  return WriteSetLines <= MaxWriteSetLines && ReadSetLines <= MaxReadSetLines;
}

bool TransactionManager::blockFits(uint64_t Addr, uint64_t Size,
                                   bool IsWrite) const {
  const uint64_t Span = lastLine(Addr, Size) - firstLine(Addr) + 1;
  return IsWrite ? WriteSetLines + Span <= MaxWriteSetLines
                 : ReadSetLines + Span <= MaxReadSetLines;
}

bool TransactionManager::read(uint64_t Addr, void *Out, uint64_t Size) {
  assert(Active && "transactional read outside a transaction");
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      abort(Injected);
      return false;
    }
  }
  if (!M.read(Addr, Out, Size).Ok) {
    abort(AbortReason::Fault);
    return false;
  }
  if (!trackFootprint(Addr, Size, /*IsWrite=*/false)) {
    abort(AbortReason::Capacity);
    return false;
  }
  return true;
}

bool TransactionManager::write(uint64_t Addr, const void *Data,
                               uint64_t Size) {
  assert(Active && "transactional write outside a transaction");
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      abort(Injected);
      return false;
    }
  }
  // Log old contents before modifying; a failed read of the old contents is
  // a fault on the write address range. A record is appended only once the
  // write has landed, so abort() never replays the bytes of a failed one.
  const uint64_t Offset = UndoBytes.size();
  UndoBytes.resize(Offset + Size);
  if (!M.read(Addr, UndoBytes.data() + Offset, Size).Ok ||
      !M.write(Addr, Data, Size).Ok) {
    abort(AbortReason::Fault);
    return false;
  }
  Stats.BytesLogged += Size;
  UndoLog.push_back({Addr, Offset, static_cast<uint32_t>(Size),
                     static_cast<uint32_t>(Size)});
  if (!trackFootprint(Addr, Size, /*IsWrite=*/true)) {
    abort(AbortReason::Capacity);
    return false;
  }
  return true;
}

const uint8_t *TransactionManager::spanForRead(uint64_t Addr, uint64_t Size,
                                               uint64_t ElemBytes) {
  assert(Active && "transactional span outside a transaction");
  if (Hook || !blockFits(Addr, Size, /*IsWrite=*/false))
    return nullptr;
  const uint8_t *Src = M.spanForRead(Addr, Size, Size / ElemBytes);
  if (Src)
    trackFootprint(Addr, Size, /*IsWrite=*/false); // blockFits: no overflow
  return Src;
}

uint8_t *TransactionManager::spanForWrite(uint64_t Addr, uint64_t Size,
                                          uint64_t ElemBytes) {
  assert(Active && "transactional span outside a transaction");
  if (Hook || !blockFits(Addr, Size, /*IsWrite=*/true))
    return nullptr;
  // Each element's write() reads its undo bytes, then writes: two TLB
  // accesses per element, and the page must be readable too.
  uint8_t *Dst = M.spanForWrite(Addr, Size, 2 * (Size / ElemBytes),
                                mem::PermReadWrite);
  if (!Dst)
    return nullptr;
  const uint64_t Offset = UndoBytes.size();
  UndoBytes.insert(UndoBytes.end(), Dst, Dst + Size);
  UndoLog.push_back({Addr, Offset, static_cast<uint32_t>(Size),
                     static_cast<uint32_t>(ElemBytes)});
  Stats.BytesLogged += Size;
  trackFootprint(Addr, Size, /*IsWrite=*/true); // blockFits: no overflow
  return Dst;
}

// --- Metrics export ------------------------------------------------------===//

void rtm::recordMetrics(const TxStats &S, obs::Registry &R) {
  R.counter("rtm.begins").inc(S.Begins);
  R.counter("rtm.commits").inc(S.Commits);
  R.counter("rtm.aborts").inc(S.Aborts);
  R.counter("rtm.aborts.fault").inc(S.AbortsByFault);
  R.counter("rtm.aborts.capacity").inc(S.AbortsByCapacity);
  R.counter("rtm.aborts.explicit").inc(S.AbortsExplicit);
  R.counter("rtm.aborts.conflict").inc(S.AbortsByConflict);
  R.counter("rtm.aborts.spurious").inc(S.AbortsSpurious);
  R.counter("rtm.aborts.nested").inc(S.AbortsNested);
  R.counter("rtm.injected_aborts").inc(S.InjectedAborts);
  R.counter("rtm.bytes_logged").inc(S.BytesLogged);
  if (S.Begins)
    R.gauge("rtm.commit_rate")
        .set(static_cast<double>(S.Commits) / static_cast<double>(S.Begins));
}
