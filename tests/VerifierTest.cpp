//===- tests/VerifierTest.cpp - Program verifier negative cases -----------===//
//
// The post-codegen structural verifier (driver/Verifier.h) must reject
// malformed programs. That every generated program passes it is checked by
// the codegen goldens (tests/CodegenGoldenTest.cpp).
//
//===----------------------------------------------------------------------===//

#include "driver/Verifier.h"
#include "isa/Program.h"

#include <gtest/gtest.h>

using namespace flexvec;

namespace {

TEST(ProgramVerifier, RejectsMalformedPrograms) {
  // Branch out of range.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::Jmp;
    I.Target = 5;
    isa::Program P({I});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // Mask-producing op writing hard-wired k0.
  {
    isa::ProgramBuilder B;
    B.kset(isa::Reg::mask(0), 0xff);
    B.halt();
    EXPECT_FALSE(driver::verifyProgram(B.finalize()).empty());
  }
  // Wrong operand class: vector op reading a scalar register.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::VAdd;
    I.Dst = isa::Reg::vector(16);
    I.Src1 = isa::Reg::scalar(3);
    I.Src2 = isa::Reg::vector(17);
    isa::Instruction H;
    H.Op = isa::Opcode::Halt;
    isa::Program P({I, H});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // First-faulting load with the hard-wired mask as its in/out operand.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::VMovFF;
    I.Dst = isa::Reg::vector(16);
    I.Src1 = isa::Reg::scalar(14);
    I.MaskReg = isa::Reg::mask(0);
    isa::Instruction H;
    H.Op = isa::Opcode::Halt;
    isa::Program P({I, H});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // Program that can fall off the end.
  {
    isa::Instruction I;
    I.Op = isa::Opcode::MovImm;
    I.Dst = isa::Reg::scalar(2);
    isa::Program P({I});
    EXPECT_FALSE(driver::verifyProgram(P).empty());
  }
  // A minimal well-formed program is clean.
  {
    isa::ProgramBuilder B;
    B.movImm(isa::Reg::scalar(2), 7);
    B.halt();
    EXPECT_TRUE(driver::verifyProgram(B.finalize()).empty());
  }
}

} // namespace
