/**
 * @file
 * Unit tests for the functional interpreter: instruction semantics,
 * composites, control flow, traps, output stream.
 */

#include <gtest/gtest.h>

#include "isa/interp.hh"
#include "masm/asm.hh"

namespace merlin::isa
{
namespace
{

ArchResult
run(const std::string &src)
{
    auto p = masm::assemble(src, "t");
    return interpret(p, 10'000'000);
}

TEST(Interp, HaltExitCode)
{
    auto r = run("halt 7\n");
    EXPECT_EQ(r.reason, TerminateReason::Halted);
    EXPECT_EQ(r.exitCode, 7);
    EXPECT_EQ(r.instret, 1u);
}

TEST(Interp, AluChain)
{
    auto r = run("movi a0, 6\n"
                 "movi a1, 7\n"
                 "mul a2, a0, a1\n"
                 "out.d a2\n"
                 "halt 0\n");
    ASSERT_EQ(r.output.size(), 8u);
    EXPECT_EQ(r.output[0], 42);
}

TEST(Interp, LoadStoreRoundTrip)
{
    auto r = run(".data\nbuf: .space 64\n.text\n"
                 "la a0, buf\n"
                 "movi a1, 0x1234\n"
                 "st.w a1, [a0+4]\n"
                 "ld.w a2, [a0+4]\n"
                 "out.d a2\n"
                 "halt 0\n");
    ASSERT_EQ(r.output.size(), 8u);
    EXPECT_EQ(r.output[0], 0x34);
    EXPECT_EQ(r.output[1], 0x12);
}

TEST(Interp, SignExtendingLoads)
{
    auto r = run(".data\nv: .byte 0xff\n.text\n"
                 "la a0, v\n"
                 "ld.b a1, [a0]\n"
                 "ld.bu a2, [a0]\n"
                 "out.d a1\n"
                 "out.d a2\n"
                 "halt 0\n");
    ASSERT_EQ(r.output.size(), 16u);
    EXPECT_EQ(r.output[7], 0xff);  // sign-extended -1
    EXPECT_EQ(r.output[8], 0xff);  // zero-extended 255
    EXPECT_EQ(r.output[15], 0x00);
}

TEST(Interp, LoopSumsCorrectly)
{
    // sum 1..10 = 55
    auto r = run("movi a0, 0\n"
                 "movi a1, 1\n"
                 "movi a2, 11\n"
                 "loop:\n"
                 "add a0, a0, a1\n"
                 "addi a1, a1, 1\n"
                 "bne a1, a2, loop\n"
                 "out.d a0\n"
                 "halt 0\n");
    EXPECT_EQ(r.output[0], 55);
}

TEST(Interp, CallAndRet)
{
    auto r = run("  movi a0, 5\n"
                 "  call double\n"
                 "  out.d a0\n"
                 "  halt 0\n"
                 "double:\n"
                 "  add a0, a0, a0\n"
                 "  ret\n");
    EXPECT_EQ(r.output[0], 10);
}

TEST(Interp, CallrThroughFunctionPointer)
{
    auto r = run("  la t0, fn\n"
                 "  movi a0, 3\n"
                 "  callr t0\n"
                 "  out.d a0\n"
                 "  halt 0\n"
                 "fn:\n"
                 "  addi a0, a0, 100\n"
                 "  ret\n");
    EXPECT_EQ(r.output[0], 103);
}

TEST(Interp, PushPopNesting)
{
    auto r = run("  movi s0, 1\n"
                 "  movi s1, 2\n"
                 "  push s0\n"
                 "  push s1\n"
                 "  pop a0\n"    // 2
                 "  pop a1\n"    // 1
                 "  out.d a0\n"
                 "  out.d a1\n"
                 "  halt 0\n");
    EXPECT_EQ(r.output[0], 2);
    EXPECT_EQ(r.output[8], 1);
}

TEST(Interp, LdaddComposite)
{
    auto r = run(".data\nv: .quad 40\n.text\n"
                 "la a0, v\n"
                 "movi a1, 2\n"
                 "ldadd a1, [a0]\n"
                 "out.d a1\n"
                 "halt 0\n");
    EXPECT_EQ(r.output[0], 42);
    // ldadd retires 2 uops.
    EXPECT_GT(r.uopsRetired, r.instret);
}

TEST(Interp, MemaddComposite)
{
    auto r = run(".data\nv: .quad 10\n.text\n"
                 "la a0, v\n"
                 "movi a1, 32\n"
                 "memadd a1, [a0]\n"
                 "ld.d a2, [a0]\n"
                 "out.d a2\n"
                 "halt 0\n");
    EXPECT_EQ(r.output[0], 42);
}

TEST(Interp, DivZeroTrap)
{
    auto r = run("movi a0, 1\n"
                 "movi a1, 0\n"
                 "div a2, a0, a1\n"
                 "halt 0\n");
    EXPECT_EQ(r.reason, TerminateReason::Trapped);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::DivZero);
    EXPECT_EQ(r.exitCode, 128 + static_cast<int>(TrapKind::DivZero));
}

TEST(Interp, TrapnzFiresOnlyWhenNonZero)
{
    auto ok = run("movi a0, 0\ntrapnz a0\nhalt 3\n");
    EXPECT_EQ(ok.reason, TerminateReason::Halted);
    EXPECT_EQ(ok.exitCode, 3);

    auto bad = run("movi a0, 1\ntrapnz a0\nhalt 3\n");
    EXPECT_EQ(bad.reason, TerminateReason::Trapped);
    ASSERT_EQ(bad.traps.size(), 1u);
    EXPECT_EQ(bad.traps[0].kind, TrapKind::DetectedError);
}

TEST(Interp, SegfaultOnWildAccess)
{
    auto r = run("movi a0, 0x10\n"
                 "ld.d a1, [a0]\n"
                 "halt 0\n");
    EXPECT_EQ(r.reason, TerminateReason::Trapped);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::Segfault);
}

TEST(Interp, SegfaultAtTheTopOfTheAddressSpace)
{
    // addr + 8 wraps to 0 here; the access must still miss every
    // segment rather than land in the text segment.
    auto r = run("movi a0, -8\n"
                 "ld.d a1, [a0]\n"
                 "halt 0\n");
    EXPECT_EQ(r.reason, TerminateReason::Trapped);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::Segfault);
}

TEST(Interp, MisalignedAccessTraps)
{
    auto r = run(".data\nbuf: .space 16\n.text\n"
                 "la a0, buf\n"
                 "ld.d a1, [a0+3]\n"
                 "halt 0\n");
    EXPECT_EQ(r.reason, TerminateReason::Trapped);
    EXPECT_EQ(r.traps[0].kind, TrapKind::Misaligned);
}

TEST(Interp, JumpToDataTraps)
{
    auto r = run(".data\nbuf: .quad 0\n.text\n"
                 "la a0, buf\n"
                 "jr a0\n"
                 "halt 0\n");
    EXPECT_EQ(r.reason, TerminateReason::Trapped);
    EXPECT_EQ(r.traps[0].kind, TrapKind::PcOutOfText);
}

TEST(Interp, MovhiBuildsLargeConstants)
{
    auto r = run("li a0, 0x123456789abcdef0\n"
                 "out.d a0\n"
                 "halt 0\n");
    ASSERT_EQ(r.output.size(), 8u);
    EXPECT_EQ(r.output[0], 0xf0);
    EXPECT_EQ(r.output[7], 0x12);
}

TEST(Interp, InstructionBudgetStopsRun)
{
    auto p = masm::assemble("spin: jmp spin\n", "t");
    auto r = interpret(p, 1000);
    EXPECT_EQ(r.reason, TerminateReason::CycleLimit);
    EXPECT_EQ(r.instret, 1000u);
}

TEST(Interp, SameArchOutcomeComparator)
{
    auto a = run("movi a0, 1\nout.d a0\nhalt 0\n");
    auto b = run("movi a0, 1\nout.d a0\nhalt 0\n");
    EXPECT_TRUE(a.sameArchOutcome(b));
    auto c = run("movi a0, 2\nout.d a0\nhalt 0\n");
    EXPECT_FALSE(a.sameArchOutcome(c));
}

TEST(Interp, StackDisciplineAcrossCalls)
{
    // Nested calls with saved ra.
    auto r = run("  movi a0, 1\n"
                 "  call f\n"
                 "  out.d a0\n"
                 "  halt 0\n"
                 "f:\n"
                 "  push ra\n"
                 "  addi a0, a0, 10\n"
                 "  call g\n"
                 "  pop ra\n"
                 "  ret\n"
                 "g:\n"
                 "  addi a0, a0, 100\n"
                 "  ret\n");
    EXPECT_EQ(r.output[0], 111);
}

} // namespace
} // namespace merlin::isa
