/**
 * @file
 * ISA trait and Program builder tests.
 */

#include <gtest/gtest.h>

#include "cpu/isa.hh"
#include "cpu/program.hh"

namespace specint
{
namespace
{

TEST(OpTraits, NonPipelinedFpOpsOnPortZero)
{
    const auto &sqrt = opTraits(Op::FpSqrt);
    EXPECT_FALSE(sqrt.pipelined);
    ASSERT_FALSE(sqrt.ports.empty());
    EXPECT_EQ(sqrt.ports[0], 0);
    EXPECT_GE(sqrt.latency, 10u);

    const auto &div = opTraits(Op::FpDiv);
    EXPECT_FALSE(div.pipelined);
    EXPECT_EQ(div.ports[0], 0);
}

TEST(OpTraits, EveryNonPipelinedOpBindsToPortZeroAlone)
{
    // The issue stage keeps one port-parked list per thread and
    // re-admits it by asking about its oldest entry alone: that is
    // exact only while every non-pipelined op waits on the same,
    // single port.
    for (const OpTraits &t : kOpTraits) {
        if (t.pipelined)
            continue;
        ASSERT_EQ(t.ports.size(), 1u);
        EXPECT_EQ(t.ports[0], 0);
    }
    static_assert(!opTraits(Op::FpSqrt).pipelined &&
                      opTraits(Op::FpSqrt).ports.size() == 1,
                  "opTraits is usable in constant expressions");
}

TEST(OpTraits, LoadsUseLoadPorts)
{
    const auto &ld = opTraits(Op::Load);
    EXPECT_EQ(ld.ports.size(), 2u);
    EXPECT_EQ(ld.ports[0], 2);
    EXPECT_EQ(ld.ports[1], 3);
}

TEST(OpTraits, AluAvoidsPortZeroFirst)
{
    const auto &alu = opTraits(Op::IntAlu);
    EXPECT_NE(alu.ports[0], 0);
    EXPECT_TRUE(alu.pipelined);
}

TEST(EvalCond, AllConditions)
{
    EXPECT_TRUE(evalCond(BranchCond::LT, 1, 2));
    EXPECT_FALSE(evalCond(BranchCond::LT, 2, 2));
    EXPECT_TRUE(evalCond(BranchCond::GE, 2, 2));
    EXPECT_TRUE(evalCond(BranchCond::EQ, 3, 3));
    EXPECT_TRUE(evalCond(BranchCond::NE, 3, 4));
}

TEST(Program, BuilderProducesLabeledInstructions)
{
    Program p;
    p.movi(1, 42);
    p.load(2, 1, 0x1000, 1, "theload");
    p.sqrt(3, 2, "thesqrt");
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0, "br");
    p.halt();
    p.setBranchTarget(br, 4);

    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p.findLabel("theload"), 1);
    EXPECT_EQ(p.findLabel("missing"), -1);
    EXPECT_EQ(p.at(3).target, 4u);
    EXPECT_TRUE(p.at(1).isLoad());
    EXPECT_TRUE(p.at(3).isBranch());
}

TEST(Program, InstAddressesAreFourBytesApart)
{
    Program p(0x400000);
    p.nop();
    p.nop();
    EXPECT_EQ(p.instAddr(0), 0x400000u);
    EXPECT_EQ(p.instAddr(1), 0x400004u);
    EXPECT_EQ(p.instLine(0), p.instLine(1));
    EXPECT_EQ(p.instLine(16), 0x400040u);
}

TEST(Program, InitialRegisters)
{
    Program p;
    p.setReg(5, 123);
    EXPECT_EQ(p.initRegs()[5], 123u);
    EXPECT_EQ(p.initRegs()[6], 0u);
}

TEST(Program, SetImmediatePatchesDisplacement)
{
    Program p;
    const unsigned ld = p.load(1, kNoReg, 0, 1, "x");
    p.setImmediate(ld, 0xbeef);
    EXPECT_EQ(p.at(ld).imm, 0xbeef);
}

TEST(Program, ListingDisassemblesEveryInstruction)
{
    Program p;
    p.movi(1, 7);
    p.load(2, 1, 16, 64, "lab");
    p.store(1, 2, 8);
    p.branch(BranchCond::GE, 1, 2, 0);
    p.halt();
    const std::string lst = p.listing();
    EXPECT_NE(lst.find("load"), std::string::npos);
    EXPECT_NE(lst.find("store"), std::string::npos);
    EXPECT_NE(lst.find("lab"), std::string::npos);
    EXPECT_NE(lst.find("br"), std::string::npos);
}

} // namespace
} // namespace specint
