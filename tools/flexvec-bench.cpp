//===- tools/flexvec-bench.cpp - Figure 8 sweep driver ---------------------===//
//
// Runs the full 18-workload x 6-variant Figure 8 / Table 2 sweep on the
// parallel evaluation engine and emits the machine-readable trajectory
// file (BENCH_figure8.json). See docs/EVALUATION.md for the JSON schema
// and the determinism contract.
//
//   flexvec-bench [options]
//     --jobs=N        worker threads (default: one per hardware thread)
//     --seed=N        base seed for the workload input streams (default 1)
//     --scale=X       iteration scale for the workloads (default 1.0; at
//                     most workloads::MaxIterationScale = 1e6)
//     --out=PATH      JSON output path (default BENCH_figure8.json)
//     --fault-seed=N  chaos mode: run every cell under a seeded RTM
//                     conflict-abort storm (prob 0.5). 0 = off (default)
//     --vl=BITS       vector width every cell compiles and runs at: 128,
//                     256, 512, 1024, or 2048 bits (default 512). A
//                     non-default width also runs the fixed-512
//                     reference sweep and emits per-workload
//                     width-comparison rows (table + "width_compare" in
//                     the JSON); the payload then carries a "vl" field
//                     and is not comparable against the 512-bit baseline
//     --deterministic omit wall-time fields from the JSON (byte-stable
//                     across worker counts and machines)
//     --quiet         suppress the human-readable table
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "isa/Reg.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Table.h"
#include "workloads/Figure8.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace flexvec;

namespace {

struct BenchOptions {
  core::SweepOptions Sweep;
  std::string OutPath = "BENCH_figure8.json";
  bool Deterministic = false;
  bool Quiet = false;
};

void usage(std::FILE *To) {
  std::fprintf(To,
               "usage: flexvec-bench [--jobs=N] [--seed=N] [--scale=X] "
               "[--out=PATH] [--fault-seed=N] "
               "[--vl=128|256|512|1024|2048] [--deterministic] [--quiet]\n");
}

bool parseArgs(int Argc, char **Argv, BenchOptions &Opts) {
  Opts.Sweep.Jobs = 0; // Default: one worker per hardware thread.
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    uint64_t U = 0;
    unsigned N = 0;
    double D = 0;
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N)) {
        std::fprintf(stderr, "error: --jobs expects a non-negative integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Sweep.Jobs = N;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(7), U)) {
        std::fprintf(stderr, "error: --seed expects a non-negative integer, "
                             "got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Sweep.Seed = U;
    } else if (Arg.rfind("--scale=", 0) == 0) {
      if (!parseDouble(Arg.substr(8), D) || D <= 0 ||
          D > workloads::MaxIterationScale) {
        std::fprintf(stderr, "error: --scale expects a positive number no "
                             "larger than %g, got '%s'\n",
                     workloads::MaxIterationScale, Arg.c_str());
        return false;
      }
      Opts.Sweep.Scale = D;
    } else if (Arg.rfind("--fault-seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(13), U)) {
        std::fprintf(stderr, "error: --fault-seed expects a non-negative "
                             "integer, got '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Sweep.FaultSeed = U;
    } else if (Arg.rfind("--vl=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(5), N) ||
          !isa::VectorConfig::isValidBits(N)) {
        std::fprintf(stderr, "error: --vl expects a power-of-two vector "
                             "length in bits between 128 and 2048, got "
                             "'%s'\n", Arg.c_str());
        return false;
      }
      Opts.Sweep.Vec = isa::VectorConfig(N / 8);
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

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }

  // Build the suite here (rather than through runFigure8Sweep) so a
  // failing cell can be reported with its loop's DSL reproducer.
  core::CompileCache Cache;
  workloads::Figure8Suite Suite =
      workloads::buildFigure8Suite(Opts.Sweep.Scale);
  core::SweepResult R = core::runSweep(Suite.Workloads, Opts.Sweep, &Cache);

  // Width sweep axis: at a non-default VL, also run the fixed-512
  // reference sweep so the output carries 512-vs-requested comparison
  // rows. The cache keeps the two widths apart (VL is part of the key).
  bool HaveRef = Opts.Sweep.Vec.Bytes != isa::VectorBytes;
  core::SweepResult Ref;
  if (HaveRef) {
    core::SweepOptions RefOpts = Opts.Sweep;
    RefOpts.Vec = isa::VectorConfig(); // the fixed 512-bit reference
    Ref = core::runSweep(Suite.Workloads, RefOpts, &Cache);
  }

  if (!Opts.Quiet) {
    std::printf("Figure 8 / Table 2 sweep: %zu cells, %u worker(s), "
                "%.2fs wall\n\n",
                R.Cells.size(), R.Workers, R.WallSeconds);
    TextTable T({"benchmark", "group", "variant", "cycles", "hot speedup",
                 "overall", "paper", "correct"});
    for (const core::CellResult &Cell : R.Cells) {
      if (!Cell.Generated)
        continue;
      T.addRow({Cell.Benchmark, Cell.Group, Cell.Variant,
                TextTable::fmtInt(static_cast<long long>(Cell.Cycles)),
                TextTable::fmt(Cell.HotSpeedup, 2) + "x",
                TextTable::fmt(Cell.Overall, 3) + "x",
                TextTable::fmt(Cell.PaperSpeedup, 2) + "x",
                Cell.Correct ? "yes" : "NO"});
    }
    T.addSeparator();
    T.addRow({"GEOMEAN (SPEC, flexvec)", "", "", "", "",
              TextTable::fmt(R.SpecGeomean, 3) + "x", "1.09x", ""});
    T.addRow({"GEOMEAN (apps, flexvec)", "", "", "", "",
              TextTable::fmt(R.AppsGeomean, 3) + "x", "1.11x", ""});
    // Imported kernel-family groups have no paper reference column.
    for (const auto &Geo : R.GroupGeomeans) {
      if (Geo.first == "SPEC" || Geo.first == "APPS")
        continue;
      T.addRow({"GEOMEAN (" + Geo.first + ", flexvec)", "", "", "", "",
                TextTable::fmt(Geo.second, 3) + "x", "-", ""});
    }
    T.print();
    if (HaveRef) {
      std::printf("\nwidth sweep: flexvec at %u-bit vs the fixed 512-bit "
                  "reference\n\n", R.Vec.bits());
      TextTable WT({"benchmark", "cycles@512",
                    "cycles@" + std::to_string(R.Vec.bits()), "ratio"});
      for (size_t W = 0; W < Suite.Workloads.size(); ++W) {
        size_t I = W * core::NumVariants +
                   static_cast<size_t>(core::VariantId::FlexVec);
        const core::CellResult &Cur = R.Cells[I];
        const core::CellResult &R512 = Ref.Cells[I];
        if (!Cur.Generated || !R512.Generated || !Cur.Cycles)
          continue;
        WT.addRow({Cur.Benchmark,
                   TextTable::fmtInt(static_cast<long long>(R512.Cycles)),
                   TextTable::fmtInt(static_cast<long long>(Cur.Cycles)),
                   TextTable::fmt(static_cast<double>(R512.Cycles) /
                                      static_cast<double>(Cur.Cycles),
                                  2) + "x"});
      }
      WT.print();
    }
    std::printf("\ncompile cache: %llu hits, %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(R.CacheHits),
                static_cast<unsigned long long>(R.CacheMisses),
                100.0 * R.cacheHitRate());
  }

  // Any incorrect generated cell is a hard failure: the sweep's numbers
  // are only meaningful when every program matched the reference. Each
  // failing cell is reported with the DSL form of its loop so the
  // divergence can be replayed through flexvec-cli without rerunning the
  // whole sweep.
  int Incorrect = 0;
  for (const core::CellResult &Cell : R.Cells) {
    if (!Cell.Generated || Cell.Correct)
      continue;
    ++Incorrect;
    std::fprintf(stderr,
                 "error: %s/%s diverged from the reference interpreter "
                 "(seed=%llu, scale=%g)\n",
                 Cell.Benchmark.c_str(), Cell.Variant.c_str(),
                 static_cast<unsigned long long>(R.Seed), R.Scale);
    for (const core::SweepWorkload &W : Suite.Workloads) {
      if (W.Name != Cell.Benchmark || !W.F)
        continue;
      std::fprintf(stderr, "DSL reproducer:\n%s\n",
                   ir::printLoopDsl(*W.F).c_str());
      break;
    }
  }
  if (Incorrect)
    std::fprintf(stderr, "error: %d cell(s) diverged from the reference "
                         "interpreter\n", Incorrect);

  std::ofstream Out(Opts.OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.OutPath.c_str());
    return 2;
  }
  Json Doc = core::benchJson(R, Opts.Deterministic);
  if (HaveRef) {
    // Fixed-512-vs-requested-width comparison rows, flexvec column only.
    // Additive: present only when the payload already carries a "vl"
    // field, so the default 512-bit document is untouched.
    Json Rows = Json::array();
    for (size_t W = 0; W < Suite.Workloads.size(); ++W) {
      size_t I = W * core::NumVariants +
                 static_cast<size_t>(core::VariantId::FlexVec);
      const core::CellResult &Cur = R.Cells[I];
      const core::CellResult &R512 = Ref.Cells[I];
      if (!Cur.Generated || !R512.Generated || !Cur.Cycles)
        continue;
      Json Row = Json::object();
      Row.set("benchmark", Cur.Benchmark);
      Row.set("cycles_512", R512.Cycles);
      Row.set("cycles_vl", Cur.Cycles);
      Row.set("speedup_vs_512", static_cast<double>(R512.Cycles) /
                                    static_cast<double>(Cur.Cycles));
      Rows.push(std::move(Row));
    }
    Doc.set("width_compare", std::move(Rows));
  }
  Out << Doc.dump();
  if (!Opts.Quiet)
    std::printf("wrote %s\n", Opts.OutPath.c_str());
  return Incorrect ? 1 : 0;
}
