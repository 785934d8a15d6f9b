//===- perfbench/src/main.cpp - flexvec-perfbench driver ------------------===//
//
// Measures one workload for a fixed time and prints one JSON line:
//
//   flexvec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --baseline PATH [--spans PATH]
//
//   {"ok": bool, "attempted": N, "failed": N, "errors": [...],
//    "metrics": {name: value, ...}}
//
// Set-up (input building, SIMD backend resolution, a warm-up slice) runs
// before every pass; setup_s is its median. With --trace 0 the run repeats
// untraced passes and reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced passes and reports the per-layer ledger;
// trace.overhead_frac compares the two. Either way the run ends
// with the canonical seed-1, scale-0.1 sweep diffed against the baseline.
// perfbench/run.py builds this program and attaches units.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workload.h"

#include "emu/Machine.h"
#include "support/ArgParse.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace flexvec;
using namespace perfbench;

namespace {

constexpr size_t MinPasses = 3;
constexpr size_t MinTracedPasses = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Baseline;
  std::string Spans;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    uint64_t U = 0;
    double D = 0;
    if (Key == "--workload") {
      A.Workload = Val;
    } else if (Key == "--seed" && parseUInt(Val, U)) {
      A.Seed = U;
    } else if (Key == "--seconds" && parseDouble(Val, D) && D > 0) {
      A.Seconds = D;
    } else if (Key == "--trace" && (Val == "0" || Val == "1")) {
      A.Trace = Val == "1";
    } else if (Key == "--baseline") {
      A.Baseline = Val;
    } else if (Key == "--spans") {
      A.Spans = Val;
    } else {
      std::fprintf(stderr, "error: bad option '%s %s'\n", Key.c_str(),
                   Val.c_str());
      return false;
    }
  }
  return Argc % 2 == 1 && !A.Workload.empty() && !A.Baseline.empty();
}

/// Linear-interpolated quantile of \p V (0 for an empty vector).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Metric that owns each layer's self time. The benchmark's own frames
/// (pass, task) are core.self_ms: the matrix/check bookkeeping between
/// layer calls.
const char *const SelfTimeMetric[NumLayers] = {
    "core.self_ms",    "core.self_ms",      "workloads.inputs_ms",
    "gen.generate_ms", "gen.inputs_ms",     "ir.roundtrip_ms",
    "ir.interp_ms",    "driver.compile_ms", "core.check_ms",
    "emu.sinkless_ms", "emu.traced_ms"};

/// Every per-layer metric, in report order. Host timings and the rates
/// derived from them vary run to run; the rest are exact-repeat counts.
const char *const LayerMetricNames[] = {
    "workloads.inputs_ms", "workloads.inputs_calls",
    "gen.generate_ms", "gen.inputs_ms", "gen.loops",
    "ir.roundtrip_ms", "ir.interp_ms", "ir.interp_runs",
    "driver.compile_ms", "driver.compiles", "driver.compile_us_per_loop",
    "driver.program_instrs", "driver.variants_generated",
    "driver.variants_declined",
    "core.cache.hits", "core.cache.misses", "core.cache.hit_ratio",
    "core.check_ms", "core.self_ms",
    "emu.sinkless_ms", "emu.sinkless_instrs", "emu.sinkless_minstr_per_s",
    "emu.traced_ms", "emu.traced_instrs", "emu.traced_minstr_per_s",
    "emu.trace_batches",
    "emu.fastpath.unit_stride_hits", "emu.fastpath.mask_shortcircuits",
    "sim.model_ms", "sim.model_instrs", "sim.uops", "sim.model_minstr_per_s",
    "sim.ns_per_uop",
    "mem.tlb_hit_ratio", "mem.cow_page_copies",
    "rtm.begins", "rtm.commit_ratio", "rtm.fallbacks",
};

bool isHostTiming(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  return EndsWith("_ms") || EndsWith("_per_s") || EndsWith("_per_loop") ||
         EndsWith("_per_uop");
}

/// The ledger of one traced pass: self times per layer plus the counts the
/// pass collected, and the rates derived from both.
Metrics layerMetrics(const SelfTimes &ST, const Metrics &Counts) {
  Metrics M;
  for (const char *Name : LayerMetricNames)
    M[Name] = 0;
  for (size_t L = 0; L < NumLayers; ++L)
    M[SelfTimeMetric[L]] += static_cast<double>(ST.SelfNs[L]) * 1e-6;
  M["sim.model_ms"] = static_cast<double>(ST.ModelNs) * 1e-6;
  for (const auto &[Name, Value] : Counts)
    if (M.count(Name))
      M[Name] = Value;
  auto Get = [&](const char *Name) {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0.0 : It->second;
  };
  M["driver.compile_us_per_loop"] =
      ratio(M["driver.compile_ms"] * 1e3, M["driver.compiles"]);
  M["core.cache.hit_ratio"] =
      ratio(M["core.cache.hits"], M["core.cache.hits"] + M["core.cache.misses"]);
  M["emu.sinkless_minstr_per_s"] =
      ratio(M["emu.sinkless_instrs"], M["emu.sinkless_ms"] * 1e3);
  M["emu.traced_minstr_per_s"] =
      ratio(M["emu.traced_instrs"], M["emu.traced_ms"] * 1e3);
  M["sim.model_minstr_per_s"] =
      ratio(M["sim.model_instrs"], M["sim.model_ms"] * 1e3);
  M["sim.ns_per_uop"] = ratio(M["sim.model_ms"] * 1e6, M["sim.uops"]);
  M["mem.tlb_hit_ratio"] = ratio(
      Get("mem.tlb_hits"), Get("mem.tlb_hits") + Get("mem.tlb_misses"));
  M["rtm.commit_ratio"] = ratio(Get("rtm.commits"), Get("rtm.begins"));
  return M;
}

/// Peak resident memory of this program image (VmHWM). getrusage's
/// ru_maxrss would also count the parent's footprint from before exec.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: flexvec-perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --baseline PATH [--spans PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> W;
  if (A.Workload == "table2-full" || A.Workload == "table2-storm")
    W = makeTable2(A.Seed, A.Workload == "table2-storm");
  else if (A.Workload == "fuzz-compile")
    W = makeFuzz(A.Seed);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }

  std::vector<std::string> Errors;
  uint64_t Attempted = 0, Failed = 0;
  std::string FirstPayload;
  double PassSpec = 0, PassApps = 0;
  // Untraced passes: the deterministic payload and the matrix geomeans
  // must repeat exactly.
  auto recordPass = [&](const PassResult &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    if (FirstPayload.empty()) {
      FirstPayload = R.Payload;
      PassSpec = R.SpeedupSpec;
      PassApps = R.SpeedupApps;
    } else if (R.Payload != FirstPayload || R.SpeedupSpec != PassSpec ||
               R.SpeedupApps != PassApps) {
      Errors.push_back("deterministic payload differs between passes");
    }
  };

  // Set-up runs before every pass, so its median samples the whole run.
  std::vector<double> SetUpS;
  auto setUp = [&] {
    int64_t T0 = nowNs();
    W->setUp();
    emu::resolveSimdBackend(emu::SimdBackend::Auto);
    W->warmUp();
    SetUpS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  };

  Metrics Out;
  int64_t Start = nowNs();
  auto elapsed = [&] { return static_cast<double>(nowNs() - Start) * 1e-9; };
  if (!A.Trace) {
    // Host interference on a shared machine comes in bursts of a few
    // seconds and only ever adds time, so each task is counted at its
    // fastest over the run's passes. wall_s adds the median of the time a
    // pass spends outside its tasks.
    std::vector<double> Walls, Untasked, BestTaskMs;
    do {
      setUp();
      PassResult R = W->runPass();
      recordPass(R);
      Walls.push_back(R.WallS);
      double TaskS = 0;
      for (double Ms : R.TaskMs)
        TaskS += Ms * 1e-3;
      Untasked.push_back(R.WallS - TaskS);
      if (BestTaskMs.empty())
        BestTaskMs = R.TaskMs;
      for (size_t I = 0; I < BestTaskMs.size(); ++I)
        BestTaskMs[I] = std::min(BestTaskMs[I], R.TaskMs.at(I));
    } while (Walls.size() < MinPasses || elapsed() < A.Seconds);
    double BestTaskS = 0;
    for (double Ms : BestTaskMs)
      BestTaskS += Ms * 1e-3;
    Out["peak_rss_mb"] = peakRssMb();
    Out["setup_s"] = median(SetUpS);
    Out["wall_s"] = BestTaskS + median(Untasked);
    Out["wall_s_median_pass"] = median(Walls);
    Out["task_ms_p50"] = quantile(BestTaskMs, 0.5);
    Out["task_ms_p90"] = quantile(BestTaskMs, 0.9);
    Out["failed_frac"] = ratio(static_cast<double>(Failed),
                               static_cast<double>(Attempted));
    Out["ok_frac"] = 1.0 - Out["failed_frac"];
    Out["passes"] = static_cast<double>(Walls.size());
    Out["task_samples"] = static_cast<double>(BestTaskMs.size());
  } else {
    SpanRecorder Rec;
    std::vector<double> Walls, TracedWalls;
    std::vector<Metrics> Ledgers;
    Metrics FirstCounts;
    do {
      setUp();
      PassResult U = W->runPass();
      recordPass(U);
      Walls.push_back(U.WallS);

      Rec.clear();
      PassResult T = W->runTracedPass(Rec);
      Attempted += T.Attempted;
      Failed += T.Failed;
      TracedWalls.push_back(T.WallS);
      SelfTimes ST;
      std::string Bad = computeSelfTimes(Rec.spans(), ST);
      if (!Bad.empty())
        Errors.push_back("span tree: " + Bad);
      // The root span is the traced pass: it must cover the pass wall.
      double RootS = static_cast<double>(ST.RootNs) * 1e-9;
      if (RootS > T.WallS || T.WallS - RootS > 1e-3)
        Errors.push_back("root span does not cover the traced pass wall");
      auto Batches = T.Counts.find("emu.trace_batches");
      if (ST.ModelBatches !=
          (Batches == T.Counts.end() ? 0 : Batches->second))
        Errors.push_back("timed model batches differ from emu.trace_batches");
      Metrics L = layerMetrics(ST, T.Counts);
      // Self-test: layer self times plus core.self_ms sum to the pass.
      double SumMs = 0;
      for (const auto &[Name, Value] : L)
        if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0)
          SumMs += Value;
      if (std::abs(SumMs - RootS * 1e3) > 1e-6 * RootS * 1e3)
        Errors.push_back("per-layer self times do not sum to the pass wall");
      // Self-test: exact-repeat counts repeat across traced passes.
      if (Ledgers.empty())
        FirstCounts = T.Counts;
      else if (T.Counts != FirstCounts)
        Errors.push_back("exact-repeat counts differ between traced passes");
      Ledgers.push_back(std::move(L));
    } while (TracedWalls.size() < MinTracedPasses || elapsed() < A.Seconds);

    for (const char *Name : LayerMetricNames) {
      if (!isHostTiming(Name)) {
        Out[Name] = Ledgers.front().at(Name);
        continue;
      }
      std::vector<double> Values;
      for (const Metrics &L : Ledgers)
        Values.push_back(L.at(Name));
      Out[Name] = median(Values);
    }
    // Fastest against fastest, for the same reason as the task times.
    Out["trace.overhead_frac"] =
        quantile(TracedWalls, 0) / quantile(Walls, 0) - 1.0;
    Out["trace.passes"] = static_cast<double>(TracedWalls.size());
    if (!A.Spans.empty() && !writeSpansCsv(Rec.spans(), A.Spans))
      Errors.push_back("cannot write " + A.Spans);
  }

  CanonicalCheck CC = runCanonicalCheck(A.Baseline);
  if (!CC.Ok)
    Errors.push_back("canonical payload differs from the baseline: " +
                     CC.Detail);
  if (!A.Trace) {
    // table2-full reports its own matrix's geomeans; workloads that do not
    // simulate report the canonical sweep's.
    Out["speedup_spec"] = PassSpec > 0 ? PassSpec : CC.SpeedupSpec;
    Out["speedup_apps"] = PassApps > 0 ? PassApps : CC.SpeedupApps;
  }

  if (Failed)
    Errors.push_back(std::to_string(Failed) + " task(s) failed");
  Json Doc = Json::object();
  Doc.set("ok", Errors.empty());
  Doc.set("attempted", Attempted);
  Doc.set("failed", Failed);
  Json ErrJ = Json::array();
  for (const std::string &E : Errors)
    ErrJ.push(E);
  Doc.set("errors", std::move(ErrJ));
  Json MJ = Json::object();
  for (const auto &[Name, Value] : Out)
    MJ.set(Name, Value);
  Doc.set("metrics", std::move(MJ));
  std::printf("%s\n", Doc.dump().c_str());
  return 0;
}
