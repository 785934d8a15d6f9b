//===- tests/CodegenGoldenTest.cpp - Golden-file codegen regression --------===//
//
// Pins the exact generated code for every example loop (examples/loops/*.fv,
// goldens in tests/golden/) and every corpus loop (tests/corpus/*.fv,
// goldens in tests/golden/corpus/) against checked-in golden files. Each
// golden renders the six evaluated variants at RTM tile 64, the missed
// remark of every declined variant, the peepholed FlexVec program, and the
// RTM variant at tile 192. Every rendered program must pass the structural
// verifier. Any codegen change — instruction selection, scheduling,
// register allocation, notes, decline reasons — shows up as a readable
// diff instead of a silent perf shift. A loop without a golden file fails.
//
// To regenerate after an intentional change:
//
//   FLEXVEC_UPDATE_GOLDEN=1 ./build/tests/codegen_golden_test
//
// then review the diff of tests/golden/ like any other code change.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelEvaluator.h"
#include "driver/CompilerDriver.h"
#include "driver/Verifier.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace flexvec;

namespace {

std::string readFile(const std::string &Path, bool *Ok = nullptr) {
  std::ifstream In(Path);
  if (Ok)
    *Ok = In.good();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Appends one variant section and checks the program: its kind matches
/// the section, and it passes the verifier. A declined variant renders the
/// missed remark that says why; declining without one fails the test.
void renderSection(std::ostringstream &Out, const std::string &Title,
                   const std::string &Variant, codegen::CodeGenKind Kind,
                   const codegen::CompiledLoop *CL,
                   const driver::RemarkStream &Remarks) {
  Out << "== " << Title << " ==\n";
  if (!CL) {
    Out << "(not generated)\n";
    const driver::Remark *Why = Remarks.lastMissed(Variant);
    EXPECT_NE(Why, nullptr) << Title << " declined silently";
    if (Why)
      Out << "; missed: " << Why->Message << "\n";
    Out << "\n";
    return;
  }
  EXPECT_EQ(CL->Kind, Kind) << Title;
  std::vector<std::string> Errors = driver::verifyProgram(CL->Prog);
  EXPECT_TRUE(Errors.empty())
      << Title << " failed verification: " << Errors.front();
  if (!CL->Notes.empty())
    Out << "; " << CL->Notes << "\n";
  Out << CL->Prog.disassemble() << "\n";
}

const codegen::CompiledLoop *
ifGenerated(const std::optional<codegen::CompiledLoop> &CL) {
  return CL ? &*CL : nullptr;
}

/// Renders the full compilation of one loop as stable text.
std::string renderGolden(const ir::LoopFunction &F) {
  using codegen::CodeGenKind;
  const CodeGenKind Kinds[core::NumVariants] = {
      CodeGenKind::Scalar,      CodeGenKind::Traditional,
      CodeGenKind::Speculative, CodeGenKind::FlexVec,
      CodeGenKind::FlexVecRtm,  CodeGenKind::FlexVecAdaptive};

  driver::CompileResult PR = driver::compileLoop(F, {.RtmTile = 64});
  std::ostringstream Out;
  Out << "# Golden compilation of '" << F.name() << "'. Regenerate with\n"
      << "#   FLEXVEC_UPDATE_GOLDEN=1 ./build/tests/codegen_golden_test\n"
      << "# after reviewing an intentional codegen change.\n\n";
  Out << "plan: " << (PR.Plan.Vectorizable ? "vectorizable" : "rejected")
      << "\n\n";
  for (unsigned V = 0; V < core::NumVariants; ++V) {
    core::VariantId Id = static_cast<core::VariantId>(V);
    const char *Name = core::variantName(Id);
    renderSection(Out, Name, Name, Kinds[V], core::selectVariant(PR, Id),
                  PR.Remarks);
  }
  renderSection(Out, "flexvec-opt", "flexvec", CodeGenKind::FlexVec,
                ifGenerated(PR.FlexVecOpt), PR.Remarks);

  driver::CompileResult Tile192 = driver::compileLoop(F, {.RtmTile = 192});
  renderSection(Out, "flexvec-rtm (tile 192)", "flexvec-rtm",
                CodeGenKind::FlexVecRtm, ifGenerated(Tile192.Rtm),
                Tile192.Remarks);
  return Out.str();
}

/// Points at the first differing line so CI logs read like a diff hunk.
void expectGoldenEq(const std::string &Golden, const std::string &Actual,
                    const std::string &GoldenPath) {
  if (Golden == Actual)
    return;
  std::istringstream G(Golden), A(Actual);
  std::string GLine, ALine;
  int Line = 1;
  while (true) {
    bool HasG = static_cast<bool>(std::getline(G, GLine));
    bool HasA = static_cast<bool>(std::getline(A, ALine));
    if (!HasG && !HasA)
      break;
    if (!HasG || !HasA || GLine != ALine) {
      FAIL() << GoldenPath << ":" << Line << ": first difference\n"
             << "  golden: " << (HasG ? GLine : "<eof>") << "\n"
             << "  actual: " << (HasA ? ALine : "<eof>") << "\n"
             << "regenerate with FLEXVEC_UPDATE_GOLDEN=1 if intentional";
      return;
    }
    ++Line;
  }
  FAIL() << GoldenPath << ": contents differ (line-by-line scan found no "
            "difference; check trailing whitespace)";
}

/// One loop file and where its golden lives, both relative to
/// FLEXVEC_SOURCE_DIR.
struct GoldenCase {
  std::string LoopPath;
  std::string GoldenPath;
  std::string Name;
};

/// Every .fv file in \p LoopDir, paired with \p GoldenDir/<stem>.golden.
std::vector<GoldenCase> casesIn(const std::string &LoopDir,
                                const std::string &GoldenDir) {
  std::vector<GoldenCase> Cases;
  std::filesystem::path Dir =
      std::filesystem::path(FLEXVEC_SOURCE_DIR) / LoopDir;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".fv")
      continue;
    std::string Stem = E.path().stem().string();
    Cases.push_back({LoopDir + "/" + Stem + ".fv",
                     GoldenDir + "/" + Stem + ".golden", Stem});
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const GoldenCase &A, const GoldenCase &B) {
              return A.Name < B.Name;
            });
  return Cases;
}

void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << C.LoopPath; }

class CodegenGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CodegenGolden, MatchesCheckedInFile) {
  const GoldenCase &C = GetParam();
  std::string LoopPath = std::string(FLEXVEC_SOURCE_DIR) + "/" + C.LoopPath;
  std::string GoldenPath =
      std::string(FLEXVEC_SOURCE_DIR) + "/" + C.GoldenPath;

  bool Ok = false;
  std::string Source = readFile(LoopPath, &Ok);
  ASSERT_TRUE(Ok) << "cannot read " << LoopPath;
  ir::ParseResult P = ir::parseLoop(Source);
  ASSERT_TRUE(P) << LoopPath << ": " << P.Error;

  std::string Actual = renderGolden(*P.F);

  if (std::getenv("FLEXVEC_UPDATE_GOLDEN")) {
    std::ofstream Out(GoldenPath);
    ASSERT_TRUE(Out.good()) << "cannot write " << GoldenPath;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << GoldenPath;
  }

  std::string Golden = readFile(GoldenPath, &Ok);
  ASSERT_TRUE(Ok) << "missing golden file " << GoldenPath
                  << " (generate with FLEXVEC_UPDATE_GOLDEN=1)";
  expectGoldenEq(Golden, Actual, GoldenPath);
}

std::string caseName(const ::testing::TestParamInfo<GoldenCase> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(ExampleLoops, CodegenGolden,
                         ::testing::ValuesIn(casesIn("examples/loops",
                                                     "tests/golden")),
                         caseName);
INSTANTIATE_TEST_SUITE_P(CorpusLoops, CodegenGolden,
                         ::testing::ValuesIn(casesIn("tests/corpus",
                                                     "tests/golden/corpus")),
                         caseName);

} // namespace
