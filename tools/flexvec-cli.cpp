//===- tools/flexvec-cli.cpp - Command-line driver --------------------------===//
//
// Compile a loop written in the textual DSL (ir/Parser.h) through the full
// FlexVec pipeline: print the analysis, disassemble the generated
// programs, and optionally execute them on random inputs with correctness
// cross-checking and Table 1 timing.
//
//   flexvec-cli LOOP.fv [options]
//     --dump-pdg          print the program dependence graph
//     --dump-all          disassemble every generated variant
//     --remarks           print the structured vectorization remarks —
//                         what each pass recognized, which strategies
//                         fired, and why the others declined
//     --remarks=json      print ONLY the remark stream as JSON (for
//                         tooling; suppresses all other output)
//     --run               execute on random inputs and report timing
//     --jobs=N            measure the variants on N worker threads
//                         (results are identical for every N; default 1)
//     --trip=N            trip count for --run (default 10000)
//     --seed=N            PRNG seed for --run (default 1)
//     --arraysize=N       elements per array for --run (default 65536)
//     --set NAME=V        initial value for scalar NAME (repeatable)
//     --vl=BITS           vector width to compile for: 128, 256, 512,
//                         1024, or 2048 bits (default 512)
//     --predicated        SVE-style predicated loop control (whilelt
//                         masks instead of the broadcast/vcmp chunk
//                         bound)
//
//   Unknown flags and malformed values exit with status 2 and a usage
//   hint; numeric values must parse in full (no atoll-style truncation).
//
//   Fault injection (see docs/FAULTS.md):
//     --fault-diff        run scalar vs. FlexVec under the same injected
//                         fault schedule and report equivalence
//     --fault-seed=N      seed for the injection policies (default 1)
//     --fault-nth=N       fail the Nth architectural memory access
//     --fault-range=LO:HI:PROB[:transient|persistent]
//                         poison cache lines in [LO,HI) with probability
//                         PROB (repeatable)
//     --tx-abort-nth=N    abort the Nth transactional operation
//     --tx-abort-prob=P   abort each transactional op with probability P
//     --tx-abort-reason=conflict|capacity|spurious  (default conflict)
//     --rtm-retries=N     bounded RTM retry budget (default 4)
//     --budget=N          instruction-budget watchdog (default 2^32)
//
// Example:
//   ./build/tools/flexvec-cli examples/loops/argmin.fv --run --trip=50000
//   ./build/tools/flexvec-cli examples/loops/find_first.fv --fault-diff
//       --fault-range=0x10000:0x20000:0.001
//
//===----------------------------------------------------------------------===//

#include "core/FaultHarness.h"
#include "driver/CompilerDriver.h"
#include "ir/Parser.h"
#include "sim/OooCore.h"
#include "support/ArgParse.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace flexvec;

namespace {

struct CliOptions {
  std::string Path;
  bool DumpPdg = false;
  bool DumpAll = false;
  bool Remarks = false;
  bool RemarksJson = false;
  bool Run = false;
  bool FaultDiff = false;
  unsigned Jobs = 1;
  int64_t Trip = 10000;
  uint64_t Seed = 1;
  int64_t ArraySize = 65536;
  std::map<std::string, double> Sets;
  core::FaultPlan Faults;
  isa::VectorConfig Vec;
  bool Predicated = false;
};

void usage(std::FILE *To) {
  std::fprintf(To,
               "usage: flexvec-cli LOOP.fv [--dump-pdg] [--dump-all] "
               "[--remarks[=json]] "
               "[--run] [--jobs=N] [--trip=N] [--seed=N] [--arraysize=N] "
               "[--set NAME=V] [--fault-diff] [--fault-seed=N] "
               "[--fault-nth=N] [--fault-range=LO:HI:PROB[:DUR]] "
               "[--tx-abort-nth=N] [--tx-abort-prob=P] "
               "[--tx-abort-reason=R] [--rtm-retries=N] [--budget=N] "
               "[--vl=128|256|512|1024|2048] [--predicated]\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  // Every numeric value parses strictly: "--trip=1O0" or "--seed=" is an
  // error, never a silent zero.
  auto badValue = [](const std::string &Arg, const char *Expected) {
    std::fprintf(stderr, "error: %s: expected %s\n", Arg.c_str(), Expected);
    return false;
  };
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    int64_t I = 0;
    uint64_t U = 0;
    unsigned N = 0;
    double D = 0;
    if (Arg == "--dump-pdg") {
      Opts.DumpPdg = true;
    } else if (Arg == "--dump-all") {
      Opts.DumpAll = true;
    } else if (Arg == "--remarks") {
      Opts.Remarks = true;
    } else if (Arg == "--remarks=json") {
      Opts.RemarksJson = true;
    } else if (Arg.rfind("--remarks=", 0) == 0) {
      std::fprintf(stderr, "error: --remarks takes no value or '=json', "
                           "got '%s'\n", Arg.c_str());
      return false;
    } else if (Arg == "--run") {
      Opts.Run = true;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N))
        return badValue(Arg, "a non-negative integer");
      Opts.Jobs = N;
    } else if (Arg.rfind("--trip=", 0) == 0) {
      if (!parseInt(Arg.substr(7), I) || I <= 0)
        return badValue(Arg, "a positive integer");
      Opts.Trip = I;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(7), U))
        return badValue(Arg, "a non-negative integer");
      Opts.Seed = U;
    } else if (Arg.rfind("--arraysize=", 0) == 0) {
      if (!parseInt(Arg.substr(12), I) || I <= 0)
        return badValue(Arg, "a positive integer");
      Opts.ArraySize = I;
    } else if (Arg == "--fault-diff") {
      Opts.FaultDiff = true;
    } else if (Arg.rfind("--fault-seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(13), U))
        return badValue(Arg, "a non-negative integer");
      Opts.Faults.Mem.Seed = U;
      Opts.Faults.Tx.Seed = U;
    } else if (Arg.rfind("--fault-nth=", 0) == 0) {
      if (!parseUInt(Arg.substr(12), U))
        return badValue(Arg, "a non-negative integer");
      Opts.Faults.Mem.FailNthAccess = U;
    } else if (Arg.rfind("--fault-range=", 0) == 0) {
      faults::RangeFault R;
      std::string Error;
      if (!faults::parseRangeFault(Arg.substr(14), R, Error)) {
        std::fprintf(stderr, "error: --fault-range: %s\n", Error.c_str());
        return false;
      }
      Opts.Faults.Mem.Ranges.push_back(R);
    } else if (Arg.rfind("--tx-abort-nth=", 0) == 0) {
      if (!parseUInt(Arg.substr(15), U))
        return badValue(Arg, "a non-negative integer");
      Opts.Faults.Tx.AbortNthOp = U;
    } else if (Arg.rfind("--tx-abort-prob=", 0) == 0) {
      if (!parseDouble(Arg.substr(16), D) || D < 0 || D > 1)
        return badValue(Arg, "a probability in [0, 1]");
      Opts.Faults.Tx.AbortProb = D;
    } else if (Arg.rfind("--tx-abort-reason=", 0) == 0) {
      std::string Reason = Arg.substr(18);
      if (Reason == "conflict")
        Opts.Faults.Tx.Reason = rtm::AbortReason::Conflict;
      else if (Reason == "capacity")
        Opts.Faults.Tx.Reason = rtm::AbortReason::Capacity;
      else if (Reason == "spurious")
        Opts.Faults.Tx.Reason = rtm::AbortReason::Spurious;
      else {
        std::fprintf(stderr,
                     "error: --tx-abort-reason must be conflict, capacity, "
                     "or spurious\n");
        return false;
      }
    } else if (Arg.rfind("--rtm-retries=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), N))
        return badValue(Arg, "a non-negative integer");
      Opts.Faults.Limits.MaxRtmRetries = N;
    } else if (Arg.rfind("--budget=", 0) == 0) {
      if (!parseUInt(Arg.substr(9), U) || U == 0)
        return badValue(Arg, "a positive integer");
      Opts.Faults.Limits.MaxInstructions = U;
    } else if (Arg.rfind("--vl=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(5), N) ||
          !isa::VectorConfig::isValidBits(N))
        return badValue(Arg, "a power-of-two vector length in bits "
                             "between 128 and 2048");
      Opts.Vec = isa::VectorConfig(N / 8);
    } else if (Arg == "--predicated") {
      Opts.Predicated = true;
    } else if (Arg == "--set") {
      if (A + 1 >= Argc) {
        std::fprintf(stderr, "error: --set expects a NAME=VALUE argument\n");
        return false;
      }
      std::string KV = Argv[++A];
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos || Eq == 0 ||
          !parseDouble(KV.substr(Eq + 1), D)) {
        std::fprintf(stderr, "error: --set expects NAME=VALUE with a "
                             "numeric value, got '%s'\n", KV.c_str());
        return false;
      }
      Opts.Sets[KV.substr(0, Eq)] = D;
    } else if (Arg[0] != '-') {
      if (!Opts.Path.empty()) {
        std::fprintf(stderr, "error: multiple loop files ('%s' and '%s')\n",
                     Opts.Path.c_str(), Arg.c_str());
        return false;
      }
      Opts.Path = Arg;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Opts.Path.empty()) {
    std::fprintf(stderr, "error: no loop file given\n");
    return false;
  }
  return true;
}

void dumpVariant(const char *Name,
                 const std::optional<codegen::CompiledLoop> &CL) {
  if (!CL) {
    std::printf("-- %s: not generated --\n\n", Name);
    return;
  }
  std::printf("-- %s (%s) --\n%s\n", Name, CL->Notes.c_str(),
              CL->Prog.disassemble().c_str());
}

/// One invocation of \p F over random arrays, sized by --trip/--arraysize.
core::WorkloadInstance buildInputs(const ir::LoopFunction &F,
                                   const CliOptions &Opts) {
  Rng R(Opts.Seed);
  core::WorkloadInstance In;
  mem::BumpAllocator Alloc(In.Image);
  ir::Bindings B = ir::Bindings::forFunction(F);

  for (size_t A = 0; A < F.arrays().size(); ++A) {
    const ir::ArrayParam &P = F.array(static_cast<int>(A));
    int64_t Len = std::max<int64_t>(Opts.Trip, Opts.ArraySize);
    if (isFloatType(P.Elem) && isa::elemSize(P.Elem) == 4) {
      std::vector<float> Data(static_cast<size_t>(Len));
      for (auto &V : Data)
        V = static_cast<float>(R.nextInRange(0, 100));
      B.ArrayBases[A] = Alloc.allocArray(Data);
    } else if (isFloatType(P.Elem)) {
      std::vector<double> Data(static_cast<size_t>(Len));
      for (auto &V : Data)
        V = static_cast<double>(R.nextInRange(0, 100));
      B.ArrayBases[A] = Alloc.allocArray(Data);
    } else if (isa::elemSize(P.Elem) == 4) {
      std::vector<int32_t> Data(static_cast<size_t>(Len));
      for (auto &V : Data)
        V = static_cast<int32_t>(R.nextBelow(100));
      B.ArrayBases[A] = Alloc.allocArray(Data);
    } else {
      std::vector<int64_t> Data(static_cast<size_t>(Len));
      for (auto &V : Data)
        V = static_cast<int64_t>(R.nextBelow(100));
      B.ArrayBases[A] = Alloc.allocArray(Data);
    }
  }
  B.setInt(F.tripCountScalar(), Opts.Trip);
  for (size_t S = 0; S < F.scalars().size(); ++S) {
    auto It = Opts.Sets.find(F.scalar(static_cast<int>(S)).Name);
    if (It == Opts.Sets.end())
      continue;
    if (isFloatType(F.scalar(static_cast<int>(S)).Type))
      B.setFloat(F.scalar(static_cast<int>(S)).Type, static_cast<int>(S),
                 It->second);
    else
      B.setInt(static_cast<int>(S), static_cast<int64_t>(It->second));
  }
  In.Invocations.push_back(std::move(B));
  return In;
}

int runLoop(const ir::LoopFunction &F, const driver::CompileResult &PR,
            const CliOptions &Opts) {
  core::WorkloadInstance In = buildInputs(F, Opts);
  core::RunOutcome Ref = core::runReferenceMulti(F, In.Image, In.Invocations);
  std::printf("== Run (trip=%lld, seed=%llu) ==\n",
              static_cast<long long>(Opts.Trip),
              static_cast<unsigned long long>(Opts.Seed));
  std::printf("reference live-outs:");
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (F.scalar(static_cast<int>(S)).IsLiveOut)
      std::printf(" %s=%lld", F.scalar(static_cast<int>(S)).Name.c_str(),
                  static_cast<long long>(Ref.LiveOuts[S]));
  std::printf("\n\n");

  // Measure every generated variant, fanned over --jobs workers. Each job
  // clones the base image, so the measurements are independent and the
  // table is identical for every worker count.
  std::vector<std::pair<const char *, const codegen::CompiledLoop *>>
      Variants;
  auto addVariant = [&](const char *Name,
                        const std::optional<codegen::CompiledLoop> &CL) {
    if (CL)
      Variants.emplace_back(Name, &*CL);
  };
  Variants.emplace_back("scalar", &PR.Scalar);
  addVariant("traditional", PR.Traditional);
  addVariant("speculative", PR.Speculative);
  addVariant("flexvec", PR.FlexVec);
  addVariant("flexvec-opt", PR.FlexVecOpt);
  addVariant("flexvec-rtm", PR.Rtm);
  addVariant("flexvec-adaptive", PR.Adaptive);

  ThreadPool Pool(Opts.Jobs);
  std::vector<sim::SimStats> Timing(Variants.size());
  std::vector<core::RunOutcome> Outs =
      Pool.map<core::RunOutcome>(Variants.size(), [&](size_t I) {
        sim::OooCore Core;
        core::RunOutcome Out = core::runProgramMulti(
            F, *Variants[I].second, In.Image, In.Invocations, &Core);
        Timing[I] = Core.stats();
        return Out;
      });

  TextTable T({"variant", "cycles", "IPC", "speedup vs scalar", "correct"});
  const double BaseCycles = static_cast<double>(Timing[0].Cycles); // Scalar.
  for (size_t I = 0; I < Variants.size(); ++I) {
    T.addRow({Variants[I].first,
              TextTable::fmtInt(static_cast<long long>(Timing[I].Cycles)),
              TextTable::fmt(Timing[I].ipc(), 2),
              TextTable::fmt(BaseCycles / static_cast<double>(Timing[I].Cycles),
                             2) + "x",
              core::outcomesMatch(F, Ref, Outs[I]) ? "yes" : "NO"});
  }
  T.print();
  return 0;
}

int runFaultDiff(const ir::LoopFunction &F, const driver::CompileResult &PR,
                 const CliOptions &Opts) {
  core::WorkloadInstance In = buildInputs(F, Opts);

  std::printf("== Differential fault-tolerance run ==\n");
  faults::FaultInjector Preview(Opts.Faults.Mem, Opts.Faults.Tx);
  std::printf("policy: %s, rtm-retries=%u, budget=%llu\n",
              Preview.describe().c_str(), Opts.Faults.Limits.MaxRtmRetries,
              static_cast<unsigned long long>(
                  Opts.Faults.Limits.MaxInstructions));

  int Divergences = 0;
  auto diffOne = [&](const char *Name,
                     const std::optional<codegen::CompiledLoop> &CL) {
    if (!CL)
      return;
    core::DiffVerdict V = core::runDifferentialMulti(
        F, PR.Scalar, *CL, In.Image, In.Invocations, Opts.Faults);
    std::printf("\n[%s] %s\n", Name, V.describe().c_str());
    if (!V.Equivalent)
      ++Divergences;
  };
  diffOne("flexvec", PR.FlexVec);
  diffOne("flexvec-opt", PR.FlexVecOpt);
  diffOne("flexvec-rtm", PR.Rtm);
  diffOne("flexvec-adaptive", PR.Adaptive);

  if (Divergences) {
    std::printf("\n%d variant(s) diverged from scalar under faults\n",
                Divergences);
    return 1;
  }
  std::printf("\nall variants equivalent to scalar under faults\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }

  std::ifstream In(Opts.Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.Path.c_str());
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  ir::ParseResult Parsed = ir::parseLoop(Buf.str());
  if (!Parsed) {
    std::fprintf(stderr, "%s: parse error: %s\n", Opts.Path.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  const ir::LoopFunction &F = *Parsed.F;

  // Machine-readable mode: emit only the remark stream so the output pipes
  // straight into tooling (the stream is deterministic JSON, see
  // docs/COMPILER.md for the schema).
  driver::DriverOptions DOpts;
  DOpts.Vec = Opts.Vec;
  DOpts.Predicated = Opts.Predicated;

  if (Opts.RemarksJson) {
    driver::CompileResult PR = driver::compileLoop(F, DOpts);
    std::fputs(PR.Remarks.toJson().dump().c_str(), stdout);
    return 0;
  }

  std::printf("== Parsed loop ==\n%s\n", F.print().c_str());

  driver::CompileResult PR = driver::compileLoop(F, DOpts);
  if (Opts.DumpPdg)
    std::printf("== PDG ==\n%s\n", PR.PdgDump.c_str());
  std::printf("== Analysis ==\n%s\n\n", PR.Plan.describe(F).c_str());

  if (Opts.DumpAll) {
    dumpVariant("scalar", std::optional<codegen::CompiledLoop>(PR.Scalar));
    dumpVariant("traditional", PR.Traditional);
    dumpVariant("speculative", PR.Speculative);
    dumpVariant("flexvec", PR.FlexVec);
    dumpVariant("flexvec-opt", PR.FlexVecOpt);
    dumpVariant("flexvec-rtm", PR.Rtm);
    dumpVariant("flexvec-adaptive", PR.Adaptive);
  } else if (PR.FlexVec) {
    dumpVariant("flexvec", PR.FlexVec);
  }

  if (Opts.Remarks)
    std::printf("== Remarks ==\n%s\n", PR.Remarks.render().c_str());

  if (!PR.FlexVec)
    if (const driver::Remark *Why = PR.Remarks.lastMissed("flexvec"))
      std::printf("note: flexvec: %s\n", Why->Message.c_str());

  if (Opts.FaultDiff)
    return runFaultDiff(F, PR, Opts);

  if (Opts.Run) {
    if (!PR.Plan.Vectorizable)
      std::printf("note: loop is not vectorizable (%s); running scalar "
                  "only\n",
                  PR.Plan.Reason.c_str());
    return runLoop(F, PR, Opts);
  }
  return 0;
}
