//===- emu/Machine.cpp ----------------------------------------------------===//

#include "emu/Machine.h"

#include "emu/simd/Kernels.h"
#include "obs/Metrics.h"
#include "support/Bits.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace flexvec;
using namespace flexvec::emu;
using namespace flexvec::isa;

TraceSink::~TraceSink() = default;

const char *emu::stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::Halted:
    return "halted";
  case StopReason::Fault:
    return "fault";
  case StopReason::BudgetExceeded:
    return "budget-exceeded";
  case StopReason::DivideError:
    return "divide-error";
  }
  unreachable("unknown stop reason");
}

void ExecStats::merge(const ExecStats &O) {
  Instructions += O.Instructions;
  Branches += O.Branches;
  TakenBranches += O.TakenBranches;
  MemoryAccesses += O.MemoryAccesses;
  VectorOps += O.VectorOps;
  RtmRetries += O.RtmRetries;
  RtmFallbacks += O.RtmFallbacks;
  RtmBudgetExhausted += O.RtmBudgetExhausted;
  BackoffCycles += O.BackoffCycles;
  TraceBatches += O.TraceBatches;
  VplSteps += O.VplSteps;
  VplPartitions += O.VplPartitions;
  FFClips += O.FFClips;
  FFSuppressedLanes += O.FFSuppressedLanes;
  ConflictChecks += O.ConflictChecks;
  ConflictHits += O.ConflictHits;
  SimdUnitStrideHits += O.SimdUnitStrideHits;
  SimdMaskShortcircuits += O.SimdMaskShortcircuits;
  MaskDensityUsed = std::max(MaskDensityUsed, O.MaskDensityUsed);
  for (size_t I = 0; I < MaskDensity.size(); ++I)
    MaskDensity[I] += O.MaskDensity[I];
  for (size_t I = 0; I < RtmRetryDepth.size(); ++I)
    RtmRetryDepth[I] += O.RtmRetryDepth[I];
  for (size_t I = 0; I < OpcodeCounts.size(); ++I)
    OpcodeCounts[I] += O.OpcodeCounts[I];
}

std::string ExecResult::describe() const {
  std::string S = stopReasonName(Reason);
  if (Reason != StopReason::Halted) {
    S += " at pc=" + std::to_string(FaultPC) + " (" +
         isa::opcodeName(FaultOp) + ")";
    if (Reason == StopReason::Fault || FaultAddr != 0)
      S += ", fault addr=" + std::to_string(FaultAddr);
  }
  if (!AbortHistory.empty()) {
    S += ", aborts=[";
    for (size_t I = 0; I < AbortHistory.size(); ++I) {
      if (I)
        S += " ";
      S += rtm::abortReasonName(AbortHistory[I]);
    }
    S += "]";
  }
  if (Stats.RtmRetries || Stats.RtmFallbacks)
    S += ", rtm retries=" + std::to_string(Stats.RtmRetries) +
         " fallbacks=" + std::to_string(Stats.RtmFallbacks);
  return S;
}

// --- VecReg lane accessors ----------------------------------------------===//

int64_t VecReg::laneInt(ElemType Ty, unsigned Lane) const {
  assert(Lane < laneCountFor(MaxVectorBytes, Ty) && "lane out of range");
  switch (Ty) {
  case ElemType::I32: {
    int32_t V;
    std::memcpy(&V, Bytes.data() + Lane * 4, 4);
    return V;
  }
  case ElemType::I64: {
    int64_t V;
    std::memcpy(&V, Bytes.data() + Lane * 8, 8);
    return V;
  }
  case ElemType::F32: {
    uint32_t V;
    std::memcpy(&V, Bytes.data() + Lane * 4, 4);
    return static_cast<int64_t>(V);
  }
  case ElemType::F64: {
    uint64_t V;
    std::memcpy(&V, Bytes.data() + Lane * 8, 8);
    return static_cast<int64_t>(V);
  }
  }
  unreachable("covered switch");
}

void VecReg::setLaneInt(ElemType Ty, unsigned Lane, int64_t Value) {
  assert(Lane < laneCountFor(MaxVectorBytes, Ty) && "lane out of range");
  switch (Ty) {
  case ElemType::I32:
  case ElemType::F32: {
    uint32_t V = static_cast<uint32_t>(Value);
    std::memcpy(Bytes.data() + Lane * 4, &V, 4);
    return;
  }
  case ElemType::I64:
  case ElemType::F64: {
    std::memcpy(Bytes.data() + Lane * 8, &Value, 8);
    return;
  }
  }
  unreachable("covered switch");
}

double VecReg::laneFloat(ElemType Ty, unsigned Lane) const {
  assert(Lane < laneCountFor(MaxVectorBytes, Ty) && "lane out of range");
  if (Ty == ElemType::F32) {
    float V;
    std::memcpy(&V, Bytes.data() + Lane * 4, 4);
    return V;
  }
  assert(Ty == ElemType::F64 && "float lane access on integer type");
  double V;
  std::memcpy(&V, Bytes.data() + Lane * 8, 8);
  return V;
}

void VecReg::setLaneFloat(ElemType Ty, unsigned Lane, double Value) {
  assert(Lane < laneCountFor(MaxVectorBytes, Ty) && "lane out of range");
  if (Ty == ElemType::F32) {
    float V = static_cast<float>(Value);
    std::memcpy(Bytes.data() + Lane * 4, &V, 4);
    return;
  }
  assert(Ty == ElemType::F64 && "float lane access on integer type");
  std::memcpy(Bytes.data() + Lane * 8, &Value, 8);
}

// --- Machine scalar FP helpers ------------------------------------------===//

double Machine::getScalarF64(unsigned I) const {
  double V;
  int64_t Bits = R[I];
  std::memcpy(&V, &Bits, 8);
  return V;
}

void Machine::setScalarF64(unsigned I, double V) {
  int64_t Bits;
  std::memcpy(&Bits, &V, 8);
  R[I] = Bits;
}

float Machine::getScalarF32(unsigned I) const {
  float V;
  uint32_t Bits = static_cast<uint32_t>(R[I]);
  std::memcpy(&V, &Bits, 4);
  return V;
}

void Machine::setScalarF32(unsigned I, float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, 4);
  R[I] = static_cast<int64_t>(static_cast<uint64_t>(Bits));
}

void Machine::resetRegisters() {
  R.fill(0);
  for (VecReg &Reg : V)
    Reg.Bytes.fill(0);
  K.fill(0);
  TxAborted = false;
  Faulted = false;
}

void Machine::flushBatch(TraceSink *Sink, ExecStats &Stats) {
  if (BatchLen == 0)
    return;
  // Fix up the address-pool pointers now: the pool may have reallocated
  // while the batch filled, so offsets were recorded instead.
  for (size_t I = 0; I < BatchLen; ++I)
    Batch[I].MemAddrs =
        Batch[I].NumMemAddrs ? AddrPool.data() + BatchAddrOff[I] : nullptr;
  Sink->onBatch(Batch.data(), BatchLen);
  ++Stats.TraceBatches;
  BatchLen = 0;
  AddrPool.clear();
}

bool Machine::memRead(uint64_t Addr, void *Out, uint64_t Size) {
  if (Tx.isActive()) {
    if (!Tx.read(Addr, Out, Size)) {
      TxAborted = true;
      return false;
    }
    return true;
  }
  mem::AccessResult Res = M.read(Addr, Out, Size);
  if (!Res.Ok) {
    Faulted = true;
    FaultAddr = Res.FaultAddr;
    return false;
  }
  return true;
}

bool Machine::memWrite(uint64_t Addr, const void *Data, uint64_t Size) {
  if (Tx.isActive()) {
    if (!Tx.write(Addr, Data, Size)) {
      TxAborted = true;
      return false;
    }
    return true;
  }
  mem::AccessResult Res = M.write(Addr, Data, Size);
  if (!Res.Ok) {
    Faulted = true;
    FaultAddr = Res.FaultAddr;
    return false;
  }
  return true;
}

// --- Main interpreter ----------------------------------------------------===//

namespace {

double applyScalarFpOp(Opcode Op, double A, double B) {
  switch (Op) {
  case Opcode::FAdd:
    return A + B;
  case Opcode::FSub:
    return A - B;
  case Opcode::FMul:
    return A * B;
  case Opcode::FDiv:
    return A / B;
  case Opcode::FMin:
    return std::min(A, B);
  case Opcode::FMax:
    return std::max(A, B);
  default:
    unreachable("not a scalar fp binary opcode");
  }
}

} // namespace

ExecResult Machine::run(const Program &P, RunLimits Limits, TraceSink *Sink) {
  if (P.empty())
    return ExecResult();

  // Bind the lane-kernel table for this run. Resolution clamps to what
  // the build and host support, so the dispatch loop can index the table
  // unconditionally.
  SimdKern = &simd::kernelsFor(Limits.Simd);
  return interpret(P, Limits, Sink);
}

#include "emu/Interp.inc"

// --- Metrics export ------------------------------------------------------===//

void emu::recordMetrics(const ExecStats &S, obs::Registry &R) {
  R.counter("emu.instructions").inc(S.Instructions);
  R.counter("emu.branches").inc(S.Branches);
  R.counter("emu.taken_branches").inc(S.TakenBranches);
  R.counter("emu.memory_accesses").inc(S.MemoryAccesses);
  R.counter("emu.vector_ops").inc(S.VectorOps);
  R.counter("emu.vpl.steps").inc(S.VplSteps);
  R.counter("emu.vpl.partitions").inc(S.VplPartitions);
  R.counter("emu.ff.clips").inc(S.FFClips);
  R.counter("emu.ff.suppressed_lanes").inc(S.FFSuppressedLanes);
  R.counter("emu.conflict.checks").inc(S.ConflictChecks);
  R.counter("emu.conflict.hits").inc(S.ConflictHits);
  R.counter("emu.simd.fastpath.unit_stride_hits").inc(S.SimdUnitStrideHits);
  R.counter("emu.simd.fastpath.mask_shortcircuits")
      .inc(S.SimdMaskShortcircuits);
  R.counter("emu.rtm.retries").inc(S.RtmRetries);
  R.counter("emu.rtm.fallbacks").inc(S.RtmFallbacks);
  R.counter("emu.rtm.budget_exhausted").inc(S.RtmBudgetExhausted);
  R.counter("emu.rtm.backoff_cycles").inc(S.BackoffCycles);
  R.counter("emu.trace.batches").inc(S.TraceBatches);
  // Bucket count tracks the producing run's vector width (17 at the
  // 512-bit default) so rendered payloads are unchanged there.
  obs::Histogram &MD = R.histogram("emu.mask_density", S.MaskDensityUsed);
  for (unsigned B = 0; B < S.MaskDensityUsed; ++B)
    if (S.MaskDensity[B])
      MD.addToBucket(B, S.MaskDensity[B]);
  obs::Histogram &RD =
      R.histogram("emu.rtm.retry_depth", ExecStats::RtmRetryDepthBuckets);
  for (unsigned B = 0; B < ExecStats::RtmRetryDepthBuckets; ++B)
    if (S.RtmRetryDepth[B])
      RD.addToBucket(B, S.RtmRetryDepth[B]);
}
