//===- tests/WidthSweepTest.cpp - Width-generic pipeline sweep -------------===//
//
// The width-genericity contract: the whole stack — codegen, the five
// lowering strategies, the emulator, the SIMD lane kernels, and the
// timing model — produces correct programs at every supported vector
// length, not just the 512-bit default. Every case runs the same
// six-variant differential gen::checkLoop enforces elsewhere (reference
// interpreter vs all generated variants, no-silent-decline remarks, DSL
// round trip), swept over VL ∈ {128, 256, 512, 1024, 2048} bits:
//
//   * the checked-in tests/corpus loops,
//   * fresh seeds from both fuzz envelopes (classic + widened),
//   * the SVE-style predicated lowering mode at every width, and
//   * an RTM conflict-storm pass at one narrow (128) and one wide
//     (2048) width.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerDriver.h"
#include "gen/Differential.h"
#include "gen/Gen.h"
#include "ir/Parser.h"
#include "isa/Reg.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace flexvec;

namespace {

// The five supported widths, in bits.
const unsigned AllWidthsBits[] = {128, 256, 512, 1024, 2048};

// The conflict-storm pass runs at one narrow and one wide width; the
// middle widths skip it to keep the sweep's wall time bounded.
bool stormsAt(unsigned Bits) { return Bits == 128 || Bits == 2048; }

gen::CheckOptions optionsFor(const gen::Envelope &E, unsigned Bits,
                             bool Predicated, uint64_t StormSeed) {
  gen::CheckOptions CO;
  CO.Vec = isa::VectorConfig(Bits / 8);
  CO.Predicated = Predicated;
  CO.Inputs.IndexMask = E.IndexMask;
  CO.Inputs.IndexBound = E.TableSize;
  CO.Inputs.ArraySlack = E.MaxAffineOffset + 4;
  CO.StormSeed = stormsAt(Bits) ? StormSeed : 0;
  return CO;
}

void expectClean(const ir::LoopFunction &F, uint64_t Seed,
                 const gen::CheckOptions &CO, const std::string &Label) {
  gen::CheckResult R = gen::checkLoop(F, Seed, CO);
  ASSERT_TRUE(R.ok()) << Label << " @vl=" << CO.Vec.bits()
                      << (CO.Predicated ? " (predicated)" : "") << ": "
                      << gen::failureClassName(R.Class)
                      << (R.Variant.empty() ? "" : " in ") << R.Variant
                      << "\n"
                      << R.Detail;
}

ir::ParseResult parseCorpus(const std::string &Name) {
  std::string Path =
      std::string(FLEXVEC_SOURCE_DIR) + "/tests/corpus/" + Name + ".fv";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return ir::parseLoop(SS.str());
}

const char *const CorpusNames[] = {
    "argmin_key2",  "find_sentinel", "histogram_weighted",
    "exit_then_update", "masked_else", "update_conflict",
    "nested_gather", "stride_probe",  "gather_heavy"};

class WidthSweep : public ::testing::TestWithParam<unsigned> {};

// The full checked-in corpus, differentially, at this width — including
// the RTM conflict storm at the narrow/wide endpoints.
TEST_P(WidthSweep, CorpusAllVariantsMatchReference) {
  unsigned Bits = GetParam();
  for (const char *Name : CorpusNames) {
    ir::ParseResult P = parseCorpus(Name);
    ASSERT_TRUE(P) << Name << ": " << P.Error;
    uint64_t Seed = fnv1a64(Name);
    expectClean(*P.F, Seed,
                optionsFor(gen::Envelope::classic(), Bits, false,
                           deriveStreamSeed(Seed, 0xc0 + Bits)),
                Name);
  }
}

// Both fuzz envelopes at this width: fresh seeds, disjoint from the ones
// FuzzDifferentialTest pins, so the sweep adds coverage instead of
// repeating it.
TEST_P(WidthSweep, FuzzEnvelopesMatchReference) {
  unsigned Bits = GetParam();
  for (uint64_t Case = 0; Case < 4; ++Case) {
    uint64_t Seed = 0x3d000000ULL + Bits * 100 + Case;
    gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::classic());
    expectClean(*G.F, Seed,
                optionsFor(gen::Envelope::classic(), Bits, false,
                           deriveStreamSeed(Seed, 0xfa117)),
                "classic seed " + std::to_string(Seed));
  }
  for (uint64_t Case = 0; Case < 4; ++Case) {
    uint64_t Seed = 0x7e000000ULL + Bits * 100 + Case;
    gen::GeneratedLoop G = gen::generateLoop(Seed, gen::Envelope::widened());
    expectClean(*G.F, Seed,
                optionsFor(gen::Envelope::widened(), Bits, false,
                           deriveStreamSeed(Seed, 0xfa117)),
                "widened seed " + std::to_string(Seed));
  }
}

// The SVE-style predicated mode: whilelt loop-control masks instead of
// the broadcast/vcmp chunk bound, at every width. Same differential bar.
TEST_P(WidthSweep, PredicatedModeMatchesReference) {
  unsigned Bits = GetParam();
  for (const char *Name : CorpusNames) {
    ir::ParseResult P = parseCorpus(Name);
    ASSERT_TRUE(P) << Name << ": " << P.Error;
    uint64_t Seed = fnv1a64(Name) ^ 0x9e3779b9ULL;
    expectClean(*P.F, Seed,
                optionsFor(gen::Envelope::classic(), Bits, true,
                           deriveStreamSeed(Seed, 0xb1ed)),
                Name);
  }
}

// Predicated lowering really uses KWHILELT for loop control, and the
// compiled program records the width it was built for.
TEST_P(WidthSweep, PredicatedProgramsUseWhilelt) {
  unsigned Bits = GetParam();
  ir::ParseResult P = parseCorpus("argmin_key2");
  ASSERT_TRUE(P) << P.Error;

  driver::DriverOptions Opts;
  Opts.Vec = isa::VectorConfig(Bits / 8);
  Opts.Predicated = true;
  driver::CompileResult PR = driver::compileLoop(*P.F, Opts);
  ASSERT_TRUE(PR.FlexVec.has_value());
  EXPECT_EQ(PR.FlexVec->Prog.vectorBytes(), Bits / 8);
  EXPECT_NE(PR.FlexVec->Prog.disassemble().find("kwhilelt"),
            std::string::npos);
  EXPECT_NE(PR.FlexVec->Notes.find("predicated"), std::string::npos);

  // Default mode at the same width keeps the classic chunk head.
  Opts.Predicated = false;
  driver::CompileResult PD = driver::compileLoop(*P.F, Opts);
  ASSERT_TRUE(PD.FlexVec.has_value());
  EXPECT_EQ(PD.FlexVec->Prog.disassemble().find("kwhilelt"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::ValuesIn(AllWidthsBits));

// Lane counts follow the config: one source of truth, parameterized.
TEST(WidthSweepConfig, LaneCountsScaleWithWidth) {
  for (unsigned Bits : AllWidthsBits) {
    isa::VectorConfig V(Bits / 8);
    EXPECT_EQ(V.lanes(isa::ElemType::I32), Bits / 32);
    EXPECT_EQ(V.lanes(isa::ElemType::F64), Bits / 64);
    EXPECT_EQ(V.maxLanes(), Bits / 32);
  }
  EXPECT_FALSE(isa::VectorConfig::isValidBits(64));
  EXPECT_FALSE(isa::VectorConfig::isValidBits(384));
  EXPECT_FALSE(isa::VectorConfig::isValidBits(4096));
  for (unsigned Bits : AllWidthsBits)
    EXPECT_TRUE(isa::VectorConfig::isValidBits(Bits));
}

} // namespace
