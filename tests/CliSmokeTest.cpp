//===- tests/CliSmokeTest.cpp - Driver binary smoke tests ------------------===//
//
// Runs the installed flexvec-cli and flexvec-bench binaries as a user
// would and checks the argument-parsing contract: unknown flags and
// malformed values exit with status 2 and print a usage hint, valid
// invocations exit 0. Binary paths come from CMake ($<TARGET_FILE:...>).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>

namespace {

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

const std::string Cli = FLEXVEC_CLI_PATH;
const std::string Bench = FLEXVEC_BENCH_PATH;
const std::string Argmin =
    std::string(FLEXVEC_SOURCE_DIR) + "/examples/loops/argmin.fv";
const std::string FindFirst =
    std::string(FLEXVEC_SOURCE_DIR) + "/examples/loops/find_first.fv";

void expectRejected(const std::string &Cmd, const std::string &Needle) {
  CmdResult R = run(Cmd);
  EXPECT_EQ(R.Exit, 2) << Cmd << "\n" << R.Output;
  EXPECT_NE(R.Output.find(Needle), std::string::npos)
      << Cmd << ": expected '" << Needle << "' in:\n" << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos)
      << Cmd << ": expected a usage hint in:\n" << R.Output;
}

TEST(CliSmoke, UnknownFlagRejected) {
  expectRejected(Cli + " --frobnicate " + Argmin, "unknown option");
  expectRejected(Cli + " --rtm-retry-budget=2 " + Argmin, "unknown option");
}

TEST(CliSmoke, MalformedTripRejected) {
  expectRejected(Cli + " --trip=abc " + Argmin, "--trip");
  expectRejected(Cli + " --trip= " + Argmin, "--trip");
  expectRejected(Cli + " --trip=0 " + Argmin, "--trip");
}

TEST(CliSmoke, MalformedNumericFlagsRejected) {
  expectRejected(Cli + " --seed=12x " + Argmin, "--seed");
  expectRejected(Cli + " --jobs=-3 " + Argmin, "--jobs");
  expectRejected(Cli + " --tx-abort-prob=1.5 " + Argmin, "--tx-abort-prob");
  expectRejected(Cli + " --tx-abort-prob=nan " + Argmin, "--tx-abort-prob");
  expectRejected(Cli + " --jobs=4294967297 " + Argmin, "--jobs");
}

TEST(CliSmoke, MalformedVlRejected) {
  // The --vl contract mirrors --sim-mode: non-power-of-two, out-of-range,
  // and malformed values all exit 2 with a usage hint.
  expectRejected(Cli + " --vl=abc " + Argmin, "--vl");
  expectRejected(Cli + " --vl= " + Argmin, "--vl");
  expectRejected(Cli + " --vl=384 " + Argmin, "--vl");
  expectRejected(Cli + " --vl=64 " + Argmin, "--vl");
  expectRejected(Cli + " --vl=4096 " + Argmin, "--vl");
  // 2^32 + 512: truncating to 32 bits first would accept it as 512.
  expectRejected(Cli + " --vl=4294967808 " + Argmin, "--vl");
}

TEST(CliSmoke, ValidVlRunSucceeds) {
  for (const char *Vl : {"128", "256", "512", "1024", "2048"}) {
    CmdResult R =
        run(Cli + " " + Argmin + " --trip=64 --vl=" + Vl + " --run");
    EXPECT_EQ(R.Exit, 0) << "--vl=" << Vl << "\n" << R.Output;
  }
}

TEST(CliSmoke, PredicatedRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin +
                    " --trip=64 --vl=256 --predicated --run");
  EXPECT_EQ(R.Exit, 0) << R.Output;
}

TEST(CliSmoke, MalformedSetRejected) {
  expectRejected(Cli + " --set=foo " + Argmin, "--set");
  expectRejected(Cli + " --set==7 " + Argmin, "--set");
  expectRejected(Cli + " --set=min_val=zz " + Argmin, "--set");
}

TEST(CliSmoke, MissingLoopFileRejected) {
  expectRejected(Cli, "no loop file");
}

TEST(CliSmoke, MultipleLoopFilesRejected) {
  expectRejected(Cli + " " + Argmin + " " + Argmin, "multiple loop files");
}

TEST(CliSmoke, MissingFileFailsNonzeroWithoutUsageSpam) {
  CmdResult R = run(Cli + " /nonexistent/loop.fv");
  EXPECT_NE(R.Exit, 0);
  EXPECT_NE(R.Output.find("cannot open"), std::string::npos) << R.Output;
}

TEST(CliSmoke, ValidRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin + " --trip=64 --seed=3");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("argmin"), std::string::npos) << R.Output;
}

TEST(CliSmoke, ValidParallelRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin + " --trip=64 --jobs=2");
  EXPECT_EQ(R.Exit, 0) << R.Output;
}

TEST(CliSmoke, FaultDiffCleanRunIsEquivalent) {
  CmdResult R = run(Cli + " " + FindFirst + " --fault-diff");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("EQUIVALENT"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("DIVERGED"), std::string::npos) << R.Output;
}

TEST(CliSmoke, RemarksTextListsStrategies) {
  CmdResult R = run(Cli + " " + Argmin + " --remarks");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("== Remarks =="), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("vectorized"), std::string::npos) << R.Output;
}

TEST(CliSmoke, RemarksJsonIsPureMachineReadableOutput) {
  CmdResult R = run(Cli + " " + Argmin + " --remarks=json");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  // Pure JSON: an array of remark objects, no human-readable framing.
  EXPECT_EQ(R.Output.rfind("[", 0), 0u) << R.Output;
  EXPECT_EQ(R.Output.find("== "), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"kind\": \"applied\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"id\": \"vectorized\""), std::string::npos)
      << R.Output;
  // The traditional vectorizer declines argmin; the decline must be a
  // structured missed-remark, never silent.
  EXPECT_NE(R.Output.find("\"kind\": \"missed\""), std::string::npos)
      << R.Output;
}

TEST(CliSmoke, RemarksBadValueRejected) {
  expectRejected(Cli + " --remarks=yaml " + Argmin, "--remarks");
}

TEST(BenchSmoke, UnknownFlagRejected) {
  CmdResult R = run(Bench + " --bogus");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(BenchSmoke, MalformedJobsRejected) {
  CmdResult R = run(Bench + " --jobs=abc");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  expectRejected(Bench + " --jobs=4294967297", "--jobs");
  expectRejected(Bench + " --fault-seed=abc", "--fault-seed");
}

TEST(BenchSmoke, NonFiniteScaleRejected) {
  expectRejected(Bench + " --scale=nan", "--scale");
  expectRejected(Bench + " --scale=inf", "--scale");
}

TEST(BenchSmoke, BadSimModeRejected) {
  expectRejected(Bench + " --sim-mode=warp", "--sim-mode");
  expectRejected(Bench + " --sim-mode=", "--sim-mode");
  expectRejected(Bench + " --sim-mode=FULL", "--sim-mode");
}

TEST(BenchSmoke, MalformedVlRejected) {
  expectRejected(Bench + " --vl=abc", "--vl");
  expectRejected(Bench + " --vl=", "--vl");
  expectRejected(Bench + " --vl=384", "--vl");
  expectRejected(Bench + " --vl=64", "--vl");
  expectRejected(Bench + " --vl=4096", "--vl");
  expectRejected(Bench + " --vl=4294967808", "--vl");
}

TEST(BenchSmoke, MalformedSamplingFlagsRejected) {
  expectRejected(Bench + " --sample-interval=0", "--sample-interval");
  expectRejected(Bench + " --sample-interval=abc", "--sample-interval");
  expectRejected(Bench + " --sample-detail=0", "--sample-detail");
  expectRejected(Bench + " --sample-warmup=-1", "--sample-warmup");
  expectRejected(Bench + " --sample-seed=bogus", "--sample-seed");
}

const std::string Fuzz = FLEXVEC_FUZZ_PATH;

TEST(FuzzSmoke, UnknownFlagRejected) {
  CmdResult R = run(Fuzz + " --bogus");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(FuzzSmoke, MalformedValuesRejected) {
  for (const char *Bad :
       {"--count=0", "--count=abc", "--seed=1x", "--envelope=tiny",
        "--storm=2", "--rounds=0", "--jobs=-1"}) {
    CmdResult R = run(Fuzz + " " + Bad);
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
  }
}

TEST(FuzzSmoke, PinnedSeedRunIsCleanAndWritesSummary) {
  std::string Out = "cli_smoke_fuzz.json";
  std::remove(Out.c_str());
  CmdResult R = run(Fuzz + " --count=12 --seed=5 --jobs=2 --out=" + Out);
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 failure(s)"), std::string::npos) << R.Output;
  FILE *F = std::fopen(Out.c_str(), "r");
  ASSERT_NE(F, nullptr) << "fuzz did not write " << Out;
  char Buf[128] = {0};
  size_t N = fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_GT(N, 0u);
  EXPECT_NE(std::string(Buf).find("flexvec-fuzz/v1"), std::string::npos);
  std::remove(Out.c_str());
}

// The fuzz summary is a pure function of (seed, count, envelope) under
// --deterministic: any job count produces byte-identical JSON.
TEST(FuzzSmoke, DeterministicSummaryIsJobCountInvariant) {
  std::string Out1 = "cli_smoke_fuzz_j1.json";
  std::string Out8 = "cli_smoke_fuzz_j8.json";
  std::remove(Out1.c_str());
  std::remove(Out8.c_str());
  CmdResult R1 = run(Fuzz + " --count=16 --seed=9 --jobs=1 --deterministic "
                            "--quiet --out=" +
                     Out1);
  CmdResult R8 = run(Fuzz + " --count=16 --seed=9 --jobs=8 --deterministic "
                            "--quiet --out=" +
                     Out8);
  EXPECT_EQ(R1.Exit, 0) << R1.Output;
  EXPECT_EQ(R8.Exit, 0) << R8.Output;
  auto slurp = [](const std::string &Path) {
    std::string S;
    FILE *F = std::fopen(Path.c_str(), "r");
    if (!F)
      return S;
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      S.append(Buf, N);
    std::fclose(F);
    return S;
  };
  std::string A = slurp(Out1), B = slurp(Out8);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
  std::remove(Out1.c_str());
  std::remove(Out8.c_str());
}

TEST(BenchSmoke, TinyDeterministicRunWritesJson) {
  std::string Out = "cli_smoke_bench.json";
  std::remove(Out.c_str());
  CmdResult R = run(Bench + " --scale=0.02 --jobs=2 --deterministic --out=" +
                    Out + " --quiet");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  FILE *F = std::fopen(Out.c_str(), "r");
  ASSERT_NE(F, nullptr) << "bench did not write " << Out;
  char Buf[64] = {0};
  size_t N = fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_GT(N, 0u);
  EXPECT_NE(std::string(Buf).find("flexvec-bench-figure8"),
            std::string::npos);
  std::remove(Out.c_str());
}

} // namespace
