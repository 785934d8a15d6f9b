//===- tests/CliSmokeTest.cpp - Driver binary smoke tests ------------------===//
//
// Runs the installed flexvec-cli, flexvec-bench and flexvec-fuzz binaries,
// bench_table2 and the paper_figures example as a user would and checks
// the argument-parsing contract: unknown flags and malformed values exit
// with status 2 and print a usage hint, valid invocations exit 0. Binary
// paths come from CMake ($<TARGET_FILE:...>).
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
  // --jobs is not a CLI flag: the variants run one after another.
  for (const char *Jobs : {"--jobs=2", "--jobs=-3", "--jobs=4294967297"})
    expectRejected(Cli + " " + Jobs + " " + Argmin, "unknown option");
}

TEST(CliSmoke, MalformedTripRejected) {
  expectRejected(Cli + " --trip=abc " + Argmin, "--trip");
  expectRejected(Cli + " --trip= " + Argmin, "--trip");
  expectRejected(Cli + " --trip=0 " + Argmin, "--trip");
}

TEST(CliSmoke, MalformedNumericFlagsRejected) {
  expectRejected(Cli + " --seed=12x " + Argmin, "--seed");
  expectRejected(Cli + " --tx-abort-prob=1.5 " + Argmin, "--tx-abort-prob");
  expectRejected(Cli + " --tx-abort-prob=nan " + Argmin, "--tx-abort-prob");
}

TEST(CliSmoke, MalformedVlRejected) {
  // Non-power-of-two, out-of-range, and malformed values all exit 2 with
  // a usage hint.
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

// Syntactically valid loops the code generators cannot take, and nesting
// deep enough to exhaust the parser's stack, end in a parse error (exit 1),
// never an abort or a crash, with and without --remarks=json.
TEST(CliSmoke, UnsupportedLoopsAreParseErrors) {
  std::string Scalars = "loop t(i64 n trip";
  for (int S = 0; S < 12; ++S)
    Scalars += ", i64 s" + std::to_string(S);
  Scalars += ", i32 x[] readonly) { s0 = x[i]; }";
  std::string Arrays = "loop t(i64 n trip, i64 a liveout";
  for (int A = 0; A < 11; ++A)
    Arrays += ", i32 x" + std::to_string(A) + "[] readonly";
  Arrays += ") { a = x0[i]; }";
  const std::string Break = "loop t(i64 n trip, i64 a liveout, "
                            "i32 x[] readonly) { a = x[i]; break; }";
  const std::string Head = "loop t(i64 n trip, i32 a liveout, "
                           "i32 x[] readonly) { ";
  const std::string Parens = Head + "a = " + std::string(10000, '(') +
                             "x[i]" + std::string(10000, ')') + "; }";
  std::string Chain = Head + "a = x[i]";
  for (int O = 0; O < 50000; ++O)
    Chain += " + x[i]";
  Chain += "; }";
  auto nestedIfs = [&](int Depth) {
    std::string Src = Head;
    for (int D = 0; D < Depth; ++D)
      Src += "if (x[i] > 0) { ";
    Src += "a = x[i]; ";
    for (int D = 0; D < Depth; ++D)
      Src += "} ";
    return Src + "}";
  };
  // Eight scratch registers for the scalar code generator.
  const std::string Deep = Head + "a = a + (x[i] + (x[i] + (x[i] + (x[i] + "
                                  "(x[i] + (x[i] + (x[i] + x[i])))))));}";
  const std::string FloatAnd = "loop t(i64 n trip, f32 a liveout, "
                               "f32 x[] readonly) { a = a + (x[i] & x[i]); }";
  const std::string Mixed = "loop t(i64 n trip, f64 a liveout, "
                            "f32 x[] readonly) { a = a + x[i]; }";
  const std::string Path = "cli_smoke_unsupported.fv";
  for (const std::string &Src :
       {Scalars, Arrays, Break, Parens, Chain, nestedIfs(3),
        nestedIfs(30000), Deep, FloatAnd, Mixed}) {
    FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs(Src.c_str(), F);
    std::fclose(F);
    for (const char *Mode : {"", " --remarks=json"}) {
      CmdResult R = run(Cli + " " + Path + Mode);
      EXPECT_EQ(R.Exit, 1) << Src << Mode << "\n" << R.Output;
      EXPECT_NE(R.Output.find("parse error"), std::string::npos)
          << Src << Mode << "\n" << R.Output;
    }
  }
  std::remove(Path.c_str());
}

TEST(CliSmoke, VectorOnlyShapesRunScalarOnly) {
  const std::string Head = "loop t(i64 n trip, ";
  const std::string Shapes[] = {
      Head + "i32 v liveout, i32 key[] readonly) { v = key[i]; }",
      Head + "i32 a liveout, i32 x[] readonly) { a = a + (x[i] / 3); }",
      Head + "f64 a liveout, f32 x[] readonly) "
             "{ if (x[i] > 0.0) { a = a + 1.0; } }",
      Head + "i32 best liveout, i32 x[] readonly, i32 y[]) "
             "{ if (x[i] < best) { best = x[i]; y[i] = 1; } }",
  };
  const std::string Path = "cli_smoke_vector_only.fv";
  for (const std::string &Src : Shapes) {
    FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs(Src.c_str(), F);
    std::fclose(F);
    CmdResult Json = run(Cli + " " + Path + " --remarks=json");
    EXPECT_EQ(Json.Exit, 0) << Src << "\n" << Json.Output;
    CmdResult R = run(Cli + " " + Path + " --remarks --run --trip=100");
    EXPECT_EQ(R.Exit, 0) << Src << "\n" << R.Output;
    EXPECT_NE(R.Output.find("[missed] pattern-analysis:"), std::string::npos)
        << Src << "\n" << R.Output;
    size_t Declines = 0;
    for (size_t At = R.Output.find("(decline.not-vectorizable)");
         At != std::string::npos;
         At = R.Output.find("(decline.not-vectorizable)", At + 1))
      ++Declines;
    EXPECT_EQ(Declines, 5u) << Src << "\n" << R.Output;
    EXPECT_NE(R.Output.find("scalar   "), std::string::npos) << R.Output;
    EXPECT_EQ(R.Output.find(" NO"), std::string::npos) << Src << "\n"
                                                       << R.Output;
  }
  std::remove(Path.c_str());
}

TEST(CliSmoke, FailedReferenceRunIsReportedNotACrash) {
  // The reference interpreter stops on an out-of-bounds a0 index in the
  // first loop and on a division by i == 0 in the second; the CLI prints
  // its error and exits 1 rather than reading the missing live-outs
  // (SIGSEGV) or trapping on the division (SIGFPE).
  const struct {
    const char *Src;
    const char *Args;
    const char *Error;
  } Cases[] = {
      {"loop t(i64 n trip, i32 s0 liveout, i64 a0[], i64 a1[] readonly) "
       "{ s0 = (((9 * i) * a0[i]) + s0); "
       "s0 = min((a0[i] + 9), a1[(a0[i] + s0)]); "
       "a0[(s0 + a0[i])] = a1[i]; }",
       " --run --trip=40 --arraysize=64",
       "error: reference memory fault at address "},
      {"loop t(i64 n trip, i32 s0, i64 s1, i32 s2, i64 a0[], i64 a1[]) "
       "{ s1 = ((s0 * i) + (a1[a1[i]] / i)); }",
       " --run", "error: reference integer divide error"},
  };
  const std::string Path = "cli_smoke_failed_reference.fv";
  for (const auto &C : Cases) {
    FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs(C.Src, F);
    std::fclose(F);
    CmdResult R = run(Cli + " " + Path + C.Args);
    EXPECT_EQ(R.Exit, 1) << C.Src << "\n" << R.Output;
    EXPECT_NE(R.Output.find(C.Error), std::string::npos)
        << C.Src << "\n" << R.Output;
    EXPECT_EQ(R.Output.find("reference live-outs"), std::string::npos)
        << R.Output;
  }
  std::remove(Path.c_str());
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
  // The deleted timing-fidelity flags are unknown options like any other.
  // So is --trips, whose whole-matrix repetitions were removed.
  for (const char *Flag : {"--bogus", "--sim-mode=sampled",
                           "--sample-interval=25000", "--trips=3"})
    expectRejected(Bench + " " + Flag, "unknown option");
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
  // Finite but past the workload builders' ceiling: the scaled row
  // counts would overflow int64_t.
  expectRejected(Bench + " --scale=1e300", "--scale");
}

TEST(BenchSmoke, MalformedVlRejected) {
  expectRejected(Bench + " --vl=abc", "--vl");
  expectRejected(Bench + " --vl=", "--vl");
  expectRejected(Bench + " --vl=384", "--vl");
  expectRejected(Bench + " --vl=64", "--vl");
  expectRejected(Bench + " --vl=4096", "--vl");
  expectRejected(Bench + " --vl=4294967808", "--vl");
}

const std::string Table2 = FLEXVEC_BENCH_TABLE2_PATH;

TEST(Table2Smoke, MalformedArgumentsRejected) {
  for (const char *Bad : {"--scale=nan", "--scale=abc", "--scale=-1",
                          "--scale=0", "--scale=1e300", "--bogus"})
    expectRejected(Table2 + " " + Bad, Bad);
}

const std::string PaperFigures = FLEXVEC_PAPER_FIGURES_PATH;

TEST(PaperFiguresSmoke, UnknownFigureRejected) {
  expectRejected(PaperFigures + " bogus", "all|conflict|earlyexit|h264");
  expectRejected(PaperFigures + " h264 extra", "all|conflict|earlyexit|h264");
}

TEST(PaperFiguresSmoke, KnownFigureSucceeds) {
  CmdResult R = run(PaperFigures + " conflict");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("Runtime memory dependence"), std::string::npos)
      << R.Output;
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
  char Buf[512] = {0};
  size_t N = fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_GT(N, 0u);
  EXPECT_NE(std::string(Buf).find("flexvec-fuzz/v1"), std::string::npos);
  EXPECT_NE(std::string(Buf).find("\"outcome_digest\""), std::string::npos);
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
