//===- perfbench/src/Spans.cpp --------------------------------------------===//

#include "Spans.h"

#include <cstdio>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Pass:
    return "pass";
  case Layer::Task:
    return "task";
  case Layer::WorkloadsInputs:
    return "workloads.inputs";
  case Layer::GenGenerate:
    return "gen.generate";
  case Layer::GenInputs:
    return "gen.inputs";
  case Layer::IrRoundtrip:
    return "ir.roundtrip";
  case Layer::IrInterp:
    return "ir.interp";
  case Layer::DriverCompile:
    return "driver.compile";
  case Layer::CoreCheck:
    return "core.check";
  case Layer::EmuSinkless:
    return "emu.sinkless";
  case Layer::EmuTraced:
    return "emu.traced";
  }
  return "?";
}

size_t SpanRecorder::open(Layer L, uint32_t Task) {
  Span S;
  S.L = L;
  S.Task = Task;
  S.Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
  Spans.push_back(S);
  size_t Id = Spans.size() - 1;
  Open.push_back(Id);
  // Read the clock last so the bookkeeping above is charged to the parent.
  Spans[Id].StartNs = nowNs();
  return Id;
}

void SpanRecorder::close(size_t Id) {
  Spans[Id].EndNs = nowNs();
  Open.pop_back();
}

std::string perfbench::computeSelfTimes(const std::vector<Span> &Spans,
                                        SelfTimes &Out) {
  Out = SelfTimes();
  if (Spans.empty())
    return "no spans recorded";
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  std::vector<int64_t> LastChildEnd(Spans.size(), INT64_MIN);
  size_t Roots = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < S.StartNs)
      return "span " + std::to_string(I) + " (" + layerName(S.L) +
             ") was never closed";
    if (S.ModelNs && S.L != Layer::EmuTraced)
      return "model time charged to a " + std::string(layerName(S.L)) +
             " span";
    if (S.Parent < 0) {
      ++Roots;
      Out.RootNs = S.EndNs - S.StartNs;
      continue;
    }
    size_t P = static_cast<size_t>(S.Parent);
    if (P >= I)
      return "span " + std::to_string(I) + " opened before its parent";
    const Span &PS = Spans[P];
    if (S.StartNs < PS.StartNs || S.EndNs > PS.EndNs)
      return "span " + std::to_string(I) + " (" + layerName(S.L) +
             ") lies outside its parent";
    if (S.StartNs < LastChildEnd[P])
      return "span " + std::to_string(I) + " overlaps a sibling";
    LastChildEnd[P] = S.EndNs;
    ChildNs[P] += S.EndNs - S.StartNs;
  }
  if (Roots != 1)
    return std::to_string(Roots) + " root spans (expected 1)";
  int64_t Sum = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Self = S.EndNs - S.StartNs - ChildNs[I] - S.ModelNs;
    if (Self < 0)
      return "span " + std::to_string(I) + " (" + layerName(S.L) +
             ") has negative self time";
    Out.SelfNs[static_cast<size_t>(S.L)] += Self;
    Out.ModelNs += S.ModelNs;
    Out.ModelBatches += S.Batches;
    Sum += Self + S.ModelNs;
  }
  if (Sum != Out.RootNs)
    return "self times sum to " + std::to_string(Sum) + " ns, root span is " +
           std::to_string(Out.RootNs) + " ns";
  return "";
}

bool perfbench::writeSpansCsv(const std::vector<Span> &Spans,
                              const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id,layer,task,parent,start_ns,end_ns,model_ns,batches\n");
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu,%s,%u,%d,%lld,%lld,%lld,%llu\n", I, layerName(S.L),
                 S.Task, S.Parent, static_cast<long long>(S.StartNs - Base),
                 static_cast<long long>(S.EndNs - Base),
                 static_cast<long long>(S.ModelNs),
                 static_cast<unsigned long long>(S.Batches));
  }
  return std::fclose(F) == 0;
}
