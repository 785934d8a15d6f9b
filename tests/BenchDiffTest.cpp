//===- tests/BenchDiffTest.cpp - Bench regression comparator tests ---------===//
//
// The flexvec-benchdiff contract, at both layers:
//
//   * obs::diffBench — identical documents pass (exit 0); a deliberately
//     injected 5% per-cell cycle regression, a correctness flip, a vanished
//     cell, or a tripped metric threshold fail (exit 1); schema or sweep-
//     configuration mismatches are "not comparable" (exit 2).
//   * The installed binary — same contract end-to-end through argv and
//     real files, the way the CI bench-gate job invokes it.
//
//===----------------------------------------------------------------------===//

#include "obs/BenchDiff.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

using namespace flexvec;

namespace {

//===----------------------------------------------------------------------===//
// Fixture builder: a minimal but schema-complete bench document
//===----------------------------------------------------------------------===//

struct CellSpec {
  const char *Benchmark;
  const char *Variant;
  bool Generated = true;
  bool Correct = true;
  uint64_t Cycles = 1000;
};

Json makeBench(std::vector<CellSpec> Cells, double SpecGeo = 1.10,
               double AppsGeo = 1.12, const char *Schema =
                   "flexvec-bench-figure8/v2") {
  Json Doc = Json::object();
  Doc.set("schema", Schema);
  Doc.set("seed", uint64_t(1));
  Doc.set("scale", 0.1);
  Doc.set("trips", uint64_t(1));
  Json Geo = Json::object();
  Geo.set("spec", SpecGeo);
  Geo.set("apps", AppsGeo);
  Doc.set("geomean_overall_speedup", std::move(Geo));

  Json Metrics = Json::object();
  Metrics.set("emu.instructions", uint64_t(5000));
  Metrics.set("emu.rtm.fallbacks", uint64_t(0));
  Json Hist = Json::array();
  Hist.push(uint64_t(3));
  Hist.push(uint64_t(9));
  Metrics.set("emu.mask_density", std::move(Hist));
  Doc.set("metrics", std::move(Metrics));

  Json Arr = Json::array();
  for (const CellSpec &C : Cells) {
    Json J = Json::object();
    J.set("benchmark", C.Benchmark);
    J.set("variant", C.Variant);
    J.set("generated", C.Generated);
    if (C.Generated) {
      J.set("correct", C.Correct);
      J.set("cycles", C.Cycles);
    }
    Arr.push(std::move(J));
  }
  Doc.set("cells", std::move(Arr));
  return Doc;
}

const std::vector<CellSpec> BaseCells = {
    {"401.bzip2", "scalar", true, true, 2000},
    {"401.bzip2", "flexvec", true, true, 1000},
    {"radix", "flexvec", true, true, 500},
};

obs::BenchDiffReport diff(const Json &Base, const Json &Cur,
                          obs::BenchDiffOptions Opts = {}) {
  return obs::diffBench(Base, Cur, Opts);
}

//===----------------------------------------------------------------------===//
// Library layer
//===----------------------------------------------------------------------===//

TEST(BenchDiff, IdenticalDocumentsPass) {
  Json Doc = makeBench(BaseCells);
  obs::BenchDiffReport R = diff(Doc, Doc);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.Regressions.empty());
}

TEST(BenchDiff, InjectedFivePercentCycleRegressionFails) {
  // The acceptance fixture: one cell 5% slower must trip the default 2%
  // tolerance.
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1050;
  obs::BenchDiffReport R = diff(makeBench(BaseCells), makeBench(Slower));
  EXPECT_EQ(R.ExitCode, 1);
  ASSERT_EQ(R.Regressions.size(), 1u);
  EXPECT_NE(R.Regressions[0].find("401.bzip2/flexvec"), std::string::npos)
      << R.Regressions[0];
  EXPECT_NE(R.Regressions[0].find("+5.00%"), std::string::npos)
      << R.Regressions[0];
}

TEST(BenchDiff, SmallCycleDriftIsANoteNotARegression) {
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1010; // +1%, inside the 2% default tolerance.
  obs::BenchDiffReport R = diff(makeBench(BaseCells), makeBench(Slower));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_FALSE(R.Notes.empty());
}

TEST(BenchDiff, CyclesToleranceIsConfigurable) {
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1050;
  obs::BenchDiffOptions Loose;
  Loose.CyclesTolerancePct = 10.0;
  EXPECT_EQ(diff(makeBench(BaseCells), makeBench(Slower), Loose).ExitCode, 0);
  obs::BenchDiffOptions Strict;
  Strict.CyclesTolerancePct = 0.0;
  std::vector<CellSpec> Barely = BaseCells;
  Barely[1].Cycles = 1001;
  EXPECT_EQ(diff(makeBench(BaseCells), makeBench(Barely), Strict).ExitCode, 1);
}

TEST(BenchDiff, SpeedupsAreNotRegressions) {
  std::vector<CellSpec> Faster = BaseCells;
  Faster[1].Cycles = 800; // -20% cycles: an improvement.
  obs::BenchDiffReport R = diff(makeBench(BaseCells), makeBench(Faster));
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(BenchDiff, CorrectnessFlipFails) {
  std::vector<CellSpec> Broken = BaseCells;
  Broken[2].Correct = false;
  obs::BenchDiffReport R = diff(makeBench(BaseCells), makeBench(Broken));
  EXPECT_EQ(R.ExitCode, 1);
  ASSERT_FALSE(R.Regressions.empty());
  EXPECT_NE(R.Regressions[0].find("correctness"), std::string::npos);
}

TEST(BenchDiff, VanishedCellAndLostVariantFail) {
  std::vector<CellSpec> Missing(BaseCells.begin(), BaseCells.end() - 1);
  EXPECT_EQ(diff(makeBench(BaseCells), makeBench(Missing)).ExitCode, 1);

  std::vector<CellSpec> NotGenerated = BaseCells;
  NotGenerated[1].Generated = false;
  EXPECT_EQ(diff(makeBench(BaseCells), makeBench(NotGenerated)).ExitCode, 1);
}

TEST(BenchDiff, NewCellIsANote) {
  std::vector<CellSpec> Extra = BaseCells;
  Extra.push_back({"new.bench", "flexvec", true, true, 700});
  obs::BenchDiffReport R = diff(makeBench(BaseCells), makeBench(Extra));
  EXPECT_EQ(R.ExitCode, 0);
  bool Found = false;
  for (const std::string &N : R.Notes)
    Found |= N.find("new.bench/flexvec") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(BenchDiff, GeomeanDropBeyondToleranceFails) {
  obs::BenchDiffReport R =
      diff(makeBench(BaseCells, /*SpecGeo=*/1.10),
           makeBench(BaseCells, /*SpecGeo=*/1.04)); // -5.5% drop.
  EXPECT_EQ(R.ExitCode, 1);
  // A rise never fails.
  EXPECT_EQ(diff(makeBench(BaseCells, 1.10), makeBench(BaseCells, 1.20))
                .ExitCode,
            0);
}

TEST(BenchDiff, MetricThresholdGatesAggregateGrowth) {
  Json Cur = makeBench(BaseCells);
  // Rebuild with a grown aggregate counter.
  Json Base = makeBench(BaseCells);
  Json Grown = Json::object();
  Grown.set("emu.instructions", uint64_t(6000)); // +20% over 5000.
  Cur.set("metrics", std::move(Grown));

  // Untracked drift: informational only.
  EXPECT_EQ(diff(Base, Cur).ExitCode, 0);

  obs::BenchDiffOptions Opts;
  Opts.MetricThresholds.emplace_back("emu.instructions", 10.0);
  obs::BenchDiffReport R = diff(Base, Cur, Opts);
  EXPECT_EQ(R.ExitCode, 1);
  ASSERT_FALSE(R.Regressions.empty());
  EXPECT_NE(R.Regressions[0].find("emu.instructions"), std::string::npos);
}

TEST(BenchDiff, SchemaMismatchIsNotComparable) {
  obs::BenchDiffReport R =
      diff(makeBench(BaseCells),
           makeBench(BaseCells, 1.10, 1.12, "flexvec-bench-figure8/v1"));
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(BenchDiff, DifferentSweepConfigurationIsNotComparable) {
  Json Base = makeBench(BaseCells);
  Json Cur = makeBench(BaseCells);
  Cur.set("seed", uint64_t(2));
  EXPECT_EQ(diff(Base, Cur).ExitCode, 2);
  Json Cur2 = makeBench(BaseCells);
  Cur2.set("scale", 0.5);
  EXPECT_EQ(diff(Base, Cur2).ExitCode, 2);
}

TEST(BenchDiff, DifferentVectorLengthIsNotComparable) {
  // Payloads produced at different VLs are different experiments: exit 2
  // (config mismatch), never spurious per-cell regressions.
  Json Base = makeBench(BaseCells);
  Json Cur = makeBench(BaseCells);
  Cur.set("vl", uint64_t(256));
  obs::BenchDiffReport R = diff(Base, Cur);
  EXPECT_EQ(R.ExitCode, 2);
  ASSERT_FALSE(R.Regressions.empty());
  EXPECT_NE(R.Regressions[0].find("vl"), std::string::npos)
      << R.Regressions[0];

  // An absent key means the 512-bit default, so spelling it out is not a
  // mismatch — old baselines stay comparable with current default runs.
  Json Cur512 = makeBench(BaseCells);
  Cur512.set("vl", uint64_t(512));
  EXPECT_EQ(diff(Base, Cur512).ExitCode, 0);

  // Two non-default documents at the same width compare normally.
  Json Base256 = makeBench(BaseCells);
  Base256.set("vl", uint64_t(256));
  EXPECT_EQ(diff(Base256, Cur).ExitCode, 0);
}

//===----------------------------------------------------------------------===//
// Binary layer: the CI bench-gate invocation path
//===----------------------------------------------------------------------===//

struct CmdResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, interleaved.
};

CmdResult run(const std::string &Cmd) {
  CmdResult R;
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(P);
  if (WIFEXITED(Status))
    R.Exit = WEXITSTATUS(Status);
  return R;
}

const std::string BenchDiffBin = FLEXVEC_BENCHDIFF_PATH;

std::string writeTemp(const char *Name, const Json &Doc) {
  std::string Path = std::string("benchdiff_test_") + Name + ".json";
  std::ofstream Out(Path);
  Out << Doc.dump();
  return Path;
}

class BenchDiffBinary : public ::testing::Test {
protected:
  void TearDown() override {
    for (const std::string &P : Written)
      std::remove(P.c_str());
  }
  std::string file(const char *Name, const Json &Doc) {
    Written.push_back(writeTemp(Name, Doc));
    return Written.back();
  }
  std::vector<std::string> Written;
};

TEST_F(BenchDiffBinary, IdenticalFilesExitZero) {
  std::string A = file("base", makeBench(BaseCells));
  CmdResult R = run(BenchDiffBin + " " + A + " " + A);
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("no regression"), std::string::npos) << R.Output;
}

TEST_F(BenchDiffBinary, InjectedRegressionExitsOne) {
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1050; // The injected 5% regression fixture.
  std::string A = file("base", makeBench(BaseCells));
  std::string B = file("reg", makeBench(Slower));
  CmdResult R = run(BenchDiffBin + " " + A + " " + B);
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("REGRESSION"), std::string::npos) << R.Output;
}

TEST_F(BenchDiffBinary, SchemaMismatchExitsTwo) {
  std::string A = file("base", makeBench(BaseCells));
  std::string B = file(
      "v1", makeBench(BaseCells, 1.10, 1.12, "flexvec-bench-figure8/v1"));
  CmdResult R = run(BenchDiffBin + " " + A + " " + B);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("schema"), std::string::npos) << R.Output;
}

TEST_F(BenchDiffBinary, VectorLengthMismatchExitsTwo) {
  Json Wide = makeBench(BaseCells);
  Wide.set("vl", uint64_t(1024));
  std::string A = file("base", makeBench(BaseCells));
  std::string B = file("vl1024", Wide);
  CmdResult R = run(BenchDiffBin + " " + A + " " + B);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("vl"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("REGRESSION"), std::string::npos)
      << "a VL mismatch must not be reported as a regression:\n" << R.Output;
}

TEST_F(BenchDiffBinary, UnreadableAndMalformedInputsExitTwo) {
  std::string A = file("base", makeBench(BaseCells));
  CmdResult Missing = run(BenchDiffBin + " " + A + " /nonexistent/cur.json");
  EXPECT_EQ(Missing.Exit, 2) << Missing.Output;

  std::string Bad = "benchdiff_test_bad.json";
  Written.push_back(Bad);
  std::ofstream(Bad) << "{ not json";
  CmdResult Malformed = run(BenchDiffBin + " " + A + " " + Bad);
  EXPECT_EQ(Malformed.Exit, 2) << Malformed.Output;
  EXPECT_NE(Malformed.Output.find("offset"), std::string::npos)
      << "parse errors must carry a byte offset:\n" << Malformed.Output;
}

TEST_F(BenchDiffBinary, BadUsageExitsTwoWithUsage) {
  CmdResult R = run(BenchDiffBin + " only_one.json");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
  CmdResult Unknown = run(BenchDiffBin + " --bogus a.json b.json");
  EXPECT_EQ(Unknown.Exit, 2);
  CmdResult BadTol =
      run(BenchDiffBin + " --cycles-tolerance=x a.json b.json");
  EXPECT_EQ(BadTol.Exit, 2);
}

TEST_F(BenchDiffBinary, NonFiniteToleranceExitsTwo) {
  // A NaN tolerance would make every comparison false and pass the gate.
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1500;
  std::string A = file("base", makeBench(BaseCells));
  std::string B = file("reg", makeBench(Slower));
  for (const char *Tol : {"nan", "inf", "-nan"}) {
    CmdResult R = run(BenchDiffBin + " --cycles-tolerance=" + Tol + " " + A +
                      " " + B);
    EXPECT_EQ(R.Exit, 2) << Tol << "\n" << R.Output;
  }
}

TEST_F(BenchDiffBinary, ToleranceFlagsReachTheDiffer) {
  std::vector<CellSpec> Slower = BaseCells;
  Slower[1].Cycles = 1050;
  std::string A = file("base", makeBench(BaseCells));
  std::string B = file("reg", makeBench(Slower));
  CmdResult Loose =
      run(BenchDiffBin + " --cycles-tolerance=10 " + A + " " + B);
  EXPECT_EQ(Loose.Exit, 0) << Loose.Output;

  CmdResult Thresh = run(BenchDiffBin +
                         " --cycles-tolerance=10 "
                         "--metric-threshold=emu.instructions=0 " +
                         A + " " + B);
  EXPECT_EQ(Thresh.Exit, 0)
      << "equal aggregate metrics must pass a 0% threshold:\n"
      << Thresh.Output;
}

} // namespace
