//===- rtm/Transaction.cpp ------------------------------------------------===//

#include "rtm/Transaction.h"

#include "obs/Metrics.h"
#include "support/Error.h"

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
  ReadSetLines.clear();
  WriteSetLines.clear();
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
  ReadSetLines.clear();
  WriteSetLines.clear();
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
    mem::AccessResult R = M.poke(It->Addr, It->OldBytes.data(),
                                 It->OldBytes.size());
    if (!R.Ok)
      fatalError("rollback write faulted; undo log is corrupt");
  }
  Active = false;
  UndoLog.clear();
  ReadSetLines.clear();
  WriteSetLines.clear();
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

bool TransactionManager::trackFootprint(uint64_t Addr, uint64_t Size,
                                        bool IsWrite) {
  uint64_t First = Addr / mem::LineBytes;
  uint64_t Last = Size ? (Addr + Size - 1) / mem::LineBytes : First;
  for (uint64_t L = First; L <= Last; ++L) {
    if (IsWrite)
      WriteSetLines.insert(L);
    else
      ReadSetLines.insert(L);
  }
  return WriteSetLines.size() <= MaxWriteSetLines &&
         ReadSetLines.size() <= MaxReadSetLines;
}

bool TransactionManager::read(uint64_t Addr, void *Out, uint64_t Size,
                              AbortReason &Reason) {
  Reason = AbortReason::None;
  if (Active && Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      Reason = Injected;
      abort(Reason);
      return false;
    }
  }
  mem::AccessResult R = M.read(Addr, Out, Size);
  if (!Active)
    return R.Ok; // Non-transactional: fault surfaces to the machine.
  if (!R.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  if (!trackFootprint(Addr, Size, /*IsWrite=*/false)) {
    Reason = AbortReason::Capacity;
    abort(Reason);
    return false;
  }
  return true;
}

bool TransactionManager::write(uint64_t Addr, const void *Data, uint64_t Size,
                               AbortReason &Reason) {
  Reason = AbortReason::None;
  if (!Active) {
    mem::AccessResult R = M.write(Addr, Data, Size);
    return R.Ok;
  }
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      Reason = Injected;
      abort(Reason);
      return false;
    }
  }
  // Log old contents before modifying; a failed read of the old contents is
  // a fault on the write address range.
  UndoRecord Rec;
  Rec.Addr = Addr;
  Rec.OldBytes.resize(Size);
  mem::AccessResult Old = M.read(Addr, Rec.OldBytes.data(), Size);
  if (!Old.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  mem::AccessResult W = M.write(Addr, Data, Size);
  if (!W.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  Stats.BytesLogged += Size;
  UndoLog.push_back(std::move(Rec));
  if (!trackFootprint(Addr, Size, /*IsWrite=*/true)) {
    Reason = AbortReason::Capacity;
    abort(Reason);
    return false;
  }
  return true;
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
