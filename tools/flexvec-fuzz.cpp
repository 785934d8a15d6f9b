//===- tools/flexvec-fuzz.cpp - Differential fuzzing driver ----------------===//
//
// The scenario mill as a standalone driver: generates N loops from the
// src/gen envelope, runs each through gen::checkLoop — DSL round-trip,
// plan legality, the no-silent-decline remark invariant, the six-variant
// differential against the reference interpreter, and an RTM conflict
// storm over the transactional variants — and, on failure, shrinks the
// loop to a minimal reproducer and writes it (plus the original) to the
// artifacts directory.
//
//   flexvec-fuzz [options]
//     --count=N         generated loops (default 200)
//     --seed=N          base seed; case seeds derive from (seed, index)
//     --case-seed=N     replay exactly one case by its derived seed
//     --jobs=N          worker threads (0 = one per hardware thread;
//                       default 0). Results are a pure function of the
//                       seeds: any job count yields the same verdicts.
//     --envelope=NAME   classic | widened (default widened)
//     --rounds=N        random-input rounds per loop (default 2)
//     --max-trip=N      largest random trip count (default 400)
//     --storm=0|1       RTM conflict-storm pass on/off (default 1)
//     --artifacts=DIR   where shrunk reproducers land (default
//                       fuzz-artifacts; created on first failure)
//     --out=PATH        machine-readable JSON summary (flexvec-fuzz/v1)
//     --deterministic   omit wall-clock fields from the JSON summary
//     --quiet           suppress the human-readable summary
//
// Exit status: 0 all cases passed, 1 at least one failure, 2 usage error.
//
// The JSON's outcome_digest folds every case's gen::CheckResult::Digest in
// case order: live-outs, final memory and the scalar emulator, RTM and
// memory counters of every run, so two builds that print the same digest
// ran every case to the same outcome.
//
//===----------------------------------------------------------------------===//

#include "gen/Differential.h"
#include "gen/Gen.h"
#include "gen/Shrink.h"
#include "ir/Parser.h"
#include "support/ArgParse.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace flexvec;

namespace {

struct FuzzOptions {
  uint64_t Count = 200;
  uint64_t Seed = 1;
  std::optional<uint64_t> CaseSeed;
  unsigned Jobs = 0;
  std::string EnvelopeName = "widened";
  int Rounds = 2;
  int64_t MaxTrip = 400;
  bool Storm = true;
  std::string ArtifactsDir = "fuzz-artifacts";
  std::string OutPath;
  bool Deterministic = false;
  bool Quiet = false;
};

void usage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: flexvec-fuzz [--count=N] [--seed=N] [--case-seed=N] "
      "[--jobs=N] [--envelope=classic|widened] [--rounds=N] [--max-trip=N] "
      "[--storm=0|1] [--artifacts=DIR] [--out=PATH] [--deterministic] "
      "[--quiet]\n");
}

bool parseArgs(int Argc, char **Argv, FuzzOptions &Opts) {
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    uint64_t U = 0;
    if (Arg.rfind("--count=", 0) == 0) {
      if (!parseUInt(Arg.substr(8), U) || U == 0) {
        std::fprintf(stderr, "error: --count expects a positive integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Count = U;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(7), U)) {
        std::fprintf(stderr, "error: --seed expects a non-negative integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Seed = U;
    } else if (Arg.rfind("--case-seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(12), U)) {
        std::fprintf(stderr, "error: --case-seed expects a non-negative "
                             "integer, got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.CaseSeed = U;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      unsigned N = 0;
      if (!parseUnsigned(Arg.substr(7), N)) {
        std::fprintf(stderr, "error: --jobs expects a non-negative integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Jobs = N;
    } else if (Arg.rfind("--envelope=", 0) == 0) {
      Opts.EnvelopeName = Arg.substr(11);
      if (Opts.EnvelopeName != "classic" && Opts.EnvelopeName != "widened") {
        std::fprintf(stderr, "error: --envelope expects 'classic' or "
                             "'widened', got '%s'\n", Arg.c_str());
        return false;
      }
    } else if (Arg.rfind("--rounds=", 0) == 0) {
      if (!parseUInt(Arg.substr(9), U) || U == 0) {
        std::fprintf(stderr, "error: --rounds expects a positive integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Rounds = static_cast<int>(U);
    } else if (Arg.rfind("--max-trip=", 0) == 0) {
      if (!parseUInt(Arg.substr(11), U) || U == 0) {
        std::fprintf(stderr, "error: --max-trip expects a positive integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.MaxTrip = static_cast<int64_t>(U);
    } else if (Arg.rfind("--storm=", 0) == 0) {
      std::string V = Arg.substr(8);
      if (V != "0" && V != "1") {
        std::fprintf(stderr, "error: --storm expects 0 or 1, got '%s'\n",
                     Arg.c_str());
        return false;
      }
      Opts.Storm = V == "1";
    } else if (Arg.rfind("--artifacts=", 0) == 0) {
      Opts.ArtifactsDir = Arg.substr(12);
      if (Opts.ArtifactsDir.empty()) {
        std::fprintf(stderr, "error: --artifacts expects a directory\n");
        return false;
      }
    } else if (Arg.rfind("--out=", 0) == 0) {
      Opts.OutPath = Arg.substr(6);
      if (Opts.OutPath.empty()) {
        std::fprintf(stderr, "error: --out expects a path\n");
        return false;
      }
    } else if (Arg == "--deterministic") {
      Opts.Deterministic = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

struct CaseOutcome {
  size_t Index = 0;
  uint64_t CaseSeed = 0;
  gen::CheckResult Check;
  std::string Dsl;       ///< Original generated loop.
  std::string ShrunkDsl; ///< Minimized reproducer (failures only).
  int ShrinkAttempts = 0;
  int ShrinkAccepted = 0;
};

/// One case, a pure function of its seed: generate, check, and on failure
/// shrink while the same (class, variant) failure reproduces.
CaseOutcome runCase(size_t Index, uint64_t CaseSeed, const gen::Envelope &E,
                    const gen::CheckOptions &CO) {
  CaseOutcome Out;
  Out.Index = Index;
  Out.CaseSeed = CaseSeed;
  gen::GeneratedLoop G = gen::generateLoop(CaseSeed, E);
  Out.Dsl = ir::printLoopDsl(*G.F);
  Out.Check = gen::checkLoop(*G.F, CaseSeed, CO);
  if (Out.Check.ok())
    return Out;

  gen::ShrinkOptions SO;
  SO.MaxAttempts = 800;
  gen::ShrinkResult SR = gen::shrinkLoop(
      *G.F,
      [&](const ir::LoopFunction &Cand) {
        return gen::checkLoop(Cand, CaseSeed, CO).sameFailure(Out.Check);
      },
      SO);
  Out.ShrunkDsl = ir::printLoopDsl(*SR.F);
  Out.ShrinkAttempts = SR.Attempts;
  Out.ShrinkAccepted = SR.Accepted;
  return Out;
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Contents;
  return Out.good();
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }

  gen::Envelope E = Opts.EnvelopeName == "classic"
                        ? gen::Envelope::classic()
                        : gen::Envelope::widened();
  gen::CheckOptions CO;
  CO.Rounds = Opts.Rounds;
  CO.MaxTrip = Opts.MaxTrip;
  CO.Inputs.IndexMask = E.IndexMask;
  CO.Inputs.IndexBound = E.TableSize;
  CO.Inputs.ArraySlack = E.MaxAffineOffset + 4;

  size_t Count = Opts.CaseSeed ? 1 : static_cast<size_t>(Opts.Count);
  auto Start = std::chrono::steady_clock::now();
  ThreadPool Pool(Opts.Jobs);
  std::vector<CaseOutcome> Results =
      Pool.map<CaseOutcome>(Count, [&](size_t I) {
        uint64_t CaseSeed =
            Opts.CaseSeed ? *Opts.CaseSeed
                          : deriveStreamSeed(Opts.Seed, static_cast<uint64_t>(I));
        gen::CheckOptions Case = CO;
        // Per-case storm seed so two cases never share an abort schedule.
        Case.StormSeed =
            Opts.Storm ? deriveStreamSeed(CaseSeed, 0xfa117) : 0;
        return runCase(I, CaseSeed, E, Case);
      });
  double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Artifacts: the shrunk reproducer (with a replay header the DSL parser
  // treats as comments) plus the unshrunk original, one pair per failure.
  std::vector<const CaseOutcome *> Failures;
  for (const CaseOutcome &C : Results)
    if (!C.Check.ok())
      Failures.push_back(&C);

  if (!Failures.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.ArtifactsDir, Ec);
    if (Ec)
      std::fprintf(stderr, "error: cannot create artifacts dir '%s': %s\n",
                   Opts.ArtifactsDir.c_str(), Ec.message().c_str());
    for (const CaseOutcome *C : Failures) {
      std::string Stem = Opts.ArtifactsDir + "/case_" +
                         std::to_string(C->CaseSeed) + "_" +
                         gen::failureClassName(C->Check.Class);
      std::string Header =
          "// flexvec-fuzz reproducer (shrunk)\n"
          "// replay: flexvec-fuzz --case-seed=" +
          std::to_string(C->CaseSeed) + " --envelope=" + Opts.EnvelopeName +
          "\n// class: " + gen::failureClassName(C->Check.Class) +
          (C->Check.Variant.empty() ? std::string()
                                    : " variant: " + C->Check.Variant) +
          "\n";
      if (!writeFile(Stem + ".fv", Header + C->ShrunkDsl) ||
          !writeFile(Stem + ".orig.fv", C->Dsl))
        std::fprintf(stderr, "error: cannot write artifacts under '%s'\n",
                     Opts.ArtifactsDir.c_str());
      std::fprintf(stderr,
                   "FAIL case %zu (seed %llu): %s%s%s\n%s\nshrunk reproducer "
                   "(%d lines) written to %s.fv\n",
                   C->Index, static_cast<unsigned long long>(C->CaseSeed),
                   gen::failureClassName(C->Check.Class),
                   C->Check.Variant.empty() ? "" : " in ",
                   C->Check.Variant.c_str(), C->Check.Detail.c_str(),
                   static_cast<int>(
                       std::count(C->ShrunkDsl.begin(), C->ShrunkDsl.end(),
                                  '\n')),
                   Stem.c_str());
    }
  }

  // Machine-readable summary: a pure function of (seed, count, envelope,
  // check options) under --deterministic, byte-stable across --jobs.
  if (!Opts.OutPath.empty()) {
    Json Doc = Json::object();
    Doc.set("schema", "flexvec-fuzz/v1");
    Doc.set("seed", Opts.Seed);
    Doc.set("count", static_cast<uint64_t>(Count));
    Doc.set("envelope", Opts.EnvelopeName);
    Doc.set("rounds", static_cast<uint64_t>(Opts.Rounds));
    Doc.set("max_trip", static_cast<uint64_t>(Opts.MaxTrip));
    Doc.set("storm", Opts.Storm);
    if (!Opts.Deterministic) {
      Json Run = Json::object();
      Run.set("jobs", Opts.Jobs);
      Run.set("wall_seconds", WallSeconds);
      Doc.set("run", std::move(Run));
    }
    uint64_t OutcomeDigest = 0;
    for (const CaseOutcome &C : Results)
      OutcomeDigest = hashCombine(OutcomeDigest, C.Check.Digest);
    Doc.set("outcome_digest", OutcomeDigest);
    Doc.set("failure_count", static_cast<uint64_t>(Failures.size()));
    Json Fails = Json::array();
    for (const CaseOutcome *C : Failures) {
      Json J = Json::object();
      J.set("index", static_cast<uint64_t>(C->Index));
      J.set("case_seed", C->CaseSeed);
      J.set("class", gen::failureClassName(C->Check.Class));
      J.set("variant", C->Check.Variant);
      J.set("shrink_attempts", static_cast<uint64_t>(C->ShrinkAttempts));
      J.set("shrink_accepted", static_cast<uint64_t>(C->ShrinkAccepted));
      J.set("shrunk_dsl", C->ShrunkDsl);
      Fails.push(std::move(J));
    }
    Doc.set("failures", std::move(Fails));
    std::ofstream Out(Opts.OutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Opts.OutPath.c_str());
      return 2;
    }
    Out << Doc.dump();
  }

  if (!Opts.Quiet)
    std::printf("flexvec-fuzz: %zu case(s), %zu failure(s) "
                "(envelope=%s, seed=%llu, storm=%s, %.2fs)\n",
                Count, Failures.size(), Opts.EnvelopeName.c_str(),
                static_cast<unsigned long long>(Opts.Seed),
                Opts.Storm ? "on" : "off", WallSeconds);
  return Failures.empty() ? 0 : 1;
}
