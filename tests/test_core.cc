/**
 * @file
 * Tests for the out-of-order core: architectural correctness against the
 * functional interpreter (differential + randomized), timing sanity,
 * squash recovery, traps, watchdogs, and fault hooks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "isa/interp.hh"
#include "masm/asm.hh"
#include "profile/ace.hh"
#include "uarch/core.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace merlin::uarch
{
namespace
{

isa::Program
prog(const std::string &src)
{
    return masm::assemble(src, "t");
}

isa::ArchResult
runCore(const std::string &src, CoreConfig cfg = CoreConfig{})
{
    Core core(prog(src), cfg);
    return core.run();
}

void
expectMatchesInterp(const std::string &src, CoreConfig cfg = CoreConfig{})
{
    auto p = prog(src);
    auto ref = isa::interpret(p);
    Core core(p, cfg);
    auto got = core.run();
    EXPECT_EQ(static_cast<int>(got.reason), static_cast<int>(ref.reason));
    EXPECT_EQ(got.exitCode, ref.exitCode);
    EXPECT_EQ(got.output, ref.output);
    ASSERT_EQ(got.traps.size(), ref.traps.size());
    for (std::size_t i = 0; i < ref.traps.size(); ++i) {
        EXPECT_EQ(static_cast<int>(got.traps[i].kind),
                  static_cast<int>(ref.traps[i].kind));
        EXPECT_EQ(got.traps[i].rip, ref.traps[i].rip);
    }
    EXPECT_EQ(got.instret, ref.instret);
}

TEST(Core, HaltsWithExitCode)
{
    auto r = runCore("halt 42\n");
    EXPECT_EQ(r.reason, isa::TerminateReason::Halted);
    EXPECT_EQ(r.exitCode, 42);
}

TEST(Core, SimpleAluMatchesInterp)
{
    expectMatchesInterp("movi a0, 6\n"
                        "movi a1, 7\n"
                        "mul a2, a0, a1\n"
                        "addi a2, a2, -2\n"
                        "out.d a2\n"
                        "halt 0\n");
}

TEST(Core, DependentChainMatchesInterp)
{
    expectMatchesInterp("movi a0, 1\n"
                        "add a0, a0, a0\n"
                        "add a0, a0, a0\n"
                        "add a0, a0, a0\n"
                        "mul a0, a0, a0\n"
                        "out.d a0\n"
                        "halt 0\n");
}

TEST(Core, LoopMatchesInterp)
{
    expectMatchesInterp("movi a0, 0\n"
                        "movi a1, 1\n"
                        "movi a2, 101\n"
                        "loop:\n"
                        "add a0, a0, a1\n"
                        "addi a1, a1, 1\n"
                        "bne a1, a2, loop\n"
                        "out.d a0\n"
                        "halt 0\n");
}

TEST(Core, MemoryAndForwarding)
{
    // Store immediately followed by a load: exercises SQ forwarding.
    expectMatchesInterp(".data\nbuf: .space 64\n.text\n"
                        "la a0, buf\n"
                        "movi a1, 0xbeef\n"
                        "st.d a1, [a0+8]\n"
                        "ld.d a2, [a0+8]\n"
                        "out.d a2\n"
                        "st.w a1, [a0+16]\n"
                        "ld.bu a3, [a0+16]\n"
                        "out.d a3\n"
                        "halt 0\n");
}

TEST(Core, PartialOverlapStoreLoad)
{
    // A narrow store inside a wide load range forces a drain-then-load.
    expectMatchesInterp(".data\nbuf: .quad 0\n.text\n"
                        "la a0, buf\n"
                        "movi a1, -1\n"
                        "st.b a1, [a0+3]\n"
                        "ld.d a2, [a0]\n"
                        "out.d a2\n"
                        "halt 0\n");
}

TEST(Core, CompositesMatchInterp)
{
    expectMatchesInterp(".data\nv: .quad 40\nw: .quad 5\n.text\n"
                        "la a0, v\n"
                        "movi a1, 2\n"
                        "ldadd a1, [a0]\n"
                        "out.d a1\n"
                        "movi a2, 10\n"
                        "memadd a2, [a0]\n"
                        "ld.d a3, [a0]\n"
                        "out.d a3\n"
                        "push a3\n"
                        "pop a4\n"
                        "out.d a4\n"
                        "halt 0\n");
}

TEST(Core, CallRetAndIndirect)
{
    expectMatchesInterp("  movi a0, 5\n"
                        "  call f\n"
                        "  la t0, g\n"
                        "  callr t0\n"
                        "  out.d a0\n"
                        "  halt 0\n"
                        "f:\n"
                        "  push ra\n"
                        "  call g\n"
                        "  pop ra\n"
                        "  ret\n"
                        "g:\n"
                        "  addi a0, a0, 7\n"
                        "  ret\n");
}

TEST(Core, DataDependentBranchesMatchInterp)
{
    // Alternating hard-to-predict branches: exercises squash recovery.
    expectMatchesInterp(".data\ntab: .quad 3, 1, 4, 1, 5, 9, 2, 6\n.text\n"
                        "  la s0, tab\n"
                        "  movi s1, 0\n"   // index
                        "  movi s2, 8\n"   // count
                        "  movi s3, 0\n"   // accum
                        "  movi t0, 0\n"
                        "loop:\n"
                        "  shli t1, s1, 3\n"
                        "  add t1, t1, s0\n"
                        "  ld.d t2, [t1]\n"
                        "  andi t3, t2, 1\n"
                        "  beq t3, t0, even\n"
                        "  add s3, s3, t2\n"
                        "  jmp next\n"
                        "even:\n"
                        "  sub s3, s3, t2\n"
                        "next:\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, loop\n"
                        "  out.d s3\n"
                        "  halt 0\n");
}

TEST(Core, DivZeroTrapMatchesInterp)
{
    expectMatchesInterp("movi a0, 5\n"
                        "movi a1, 0\n"
                        "div a2, a0, a1\n"
                        "halt 0\n");
}

TEST(Core, SegfaultMatchesInterp)
{
    expectMatchesInterp("movi a0, 64\n"
                        "ld.d a1, [a0]\n"
                        "halt 0\n");
}

TEST(Core, SegfaultAtTheTopOfTheAddressSpace)
{
    // The load's line fill goes through readBlock near 2^64.
    const std::string src = "movi a0, -8\n"
                            "ld.d a1, [a0]\n"
                            "halt 0\n";
    const auto r = runCore(src);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, isa::TrapKind::Segfault);
    expectMatchesInterp(src);
}

TEST(Core, MisalignedMatchesInterp)
{
    expectMatchesInterp(".data\nb: .space 16\n.text\n"
                        "la a0, b\n"
                        "ld.w a1, [a0+2]\n"
                        "halt 0\n");
}

TEST(Core, TrapnzMatchesInterp)
{
    expectMatchesInterp("movi a0, 3\ntrapnz a0\nhalt 0\n");
}

TEST(Core, JumpToDataMatchesInterp)
{
    expectMatchesInterp(".data\nb: .quad 0\n.text\n"
                        "la a0, b\n"
                        "jr a0\n"
                        "halt 0\n");
}

TEST(Core, WrongPathFaultDoesNotCrash)
{
    // The load behind the (taken) branch is fetched on the wrong path and
    // would segfault if its fault were not squashed.
    expectMatchesInterp("  movi a0, 1\n"
                        "  movi a1, 1\n"
                        "  movi a2, 16\n"
                        "  beq a0, a1, safe\n"
                        "  ld.d a3, [a2]\n" // wild access, wrong path
                        "safe:\n"
                        "  out.d a0\n"
                        "  halt 0\n");
}

TEST(Core, TightStoreLoadLoopMatchesInterp)
{
    expectMatchesInterp(".data\nbuf: .space 256\n.text\n"
                        "  la s0, buf\n"
                        "  movi s1, 0\n"
                        "  movi s2, 32\n"
                        "fill:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  mul t1, s1, s1\n"
                        "  st.d t1, [t0]\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, fill\n"
                        "  movi s1, 0\n"
                        "  movi s3, 0\n"
                        "sum:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  ldadd s3, [t0]\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, sum\n"
                        "  out.d s3\n"
                        "  halt 0\n");
}

TEST(Core, Timing_IpcIsPositiveAndBounded)
{
    auto p = prog("movi a0, 0\n"
                  "movi a1, 1\n"
                  "movi a2, 1001\n"
                  "loop:\n"
                  "add a0, a0, a1\n"
                  "addi a1, a1, 1\n"
                  "bne a1, a2, loop\n"
                  "halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    const auto &st = core.stats();
    EXPECT_GT(st.cycles, 0u);
    EXPECT_GT(st.ipc(), 0.1);
    EXPECT_LE(st.ipc(), 4.0); // cannot exceed commit width
}

TEST(Core, Timing_MispredictsDetected)
{
    // Branch on pseudo-random bit: plenty of mispredictions expected.
    auto p = prog("  movi s0, 12345\n"
                  "  movi s1, 0\n"
                  "  movi s2, 500\n"
                  "  movi t0, 0\n"
                  "loop:\n"
                  "  mul s0, s0, s0\n"
                  "  shri t1, s0, 13\n"
                  "  xor s0, s0, t1\n"
                  "  addi s0, s0, 7\n"
                  "  andi t1, s0, 1\n"
                  "  beq t1, t0, skip\n"
                  "  addi s1, s1, 1\n"
                  "skip:\n"
                  "  addi s2, s2, -1\n"
                  "  bne s2, t0, loop\n"
                  "  halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    EXPECT_GT(core.stats().branchMispredicts, 20u);
}

TEST(Core, Timing_CacheMissesCostCycles)
{
    // Stride through 256KB: misses in a 64KB L1D.
    const char *src = ".data\nbig: .space 262144\n.text\n"
                      "  la s0, big\n"
                      "  movi s1, 0\n"
                      "  movi s2, 4096\n"
                      "  movi t0, 0\n"
                      "loop:\n"
                      "  shli t1, s1, 6\n"
                      "  add t1, t1, s0\n"
                      "  ld.d t2, [t1]\n"
                      "  add s3, s3, t2\n"
                      "  addi s1, s1, 1\n"
                      "  bne s1, s2, loop\n"
                      "  halt 0\n";
    Core big(prog(src), CoreConfig{});
    big.run();
    EXPECT_GT(big.stats().l1dMisses, 3000u);
}

TEST(Core, DeadlockWatchdogFires)
{
    // A load that can never complete does not exist by construction, so
    // emulate no-progress with an infinite dependency-free loop plus a
    // tiny cycle budget instead: the cycle-limit watchdog must fire.
    CoreConfig cfg;
    cfg.maxCycles = 5'000;
    auto r = runCore("spin: jmp spin\n", cfg);
    EXPECT_EQ(r.reason, isa::TerminateReason::CycleLimit);
}

TEST(Core, SmallestConfigStillCorrect)
{
    CoreConfig cfg;
    cfg = cfg.withRegisterFile(64).withStoreQueue(16).withL1dKb(16);
    expectMatchesInterp(".data\nbuf: .space 128\n.text\n"
                        "  la s0, buf\n"
                        "  movi s1, 0\n"
                        "  movi s2, 16\n"
                        "loop:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  st.d s1, [t0]\n"
                        "  ld.d t1, [t0]\n"
                        "  add s3, s3, t1\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, loop\n"
                        "  out.d s3\n"
                        "  halt 0\n",
                        cfg);
}

TEST(Core, ArchRegAndMemoryViews)
{
    auto p = prog(".data\nv: .quad 0\n.text\n"
                  "movi s5, 777\n"
                  "la a0, v\n"
                  "movi a1, 123\n"
                  "st.d a1, [a0]\n"
                  "halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    EXPECT_EQ(core.archRegValue(21), 777u); // s5 = r21
    auto view = core.archMemoryView();
    std::uint64_t v = 0;
    EXPECT_EQ(view.read(p.symbol("v"), 8, v), isa::TrapKind::None);
    EXPECT_EQ(v, 123u);
}

TEST(Core, WindowEndTerminatesRun)
{
    CoreConfig cfg;
    cfg.instructionWindowEnd = 50;
    auto r = runCore("spin: addi a0, a0, 1\njmp spin\n", cfg);
    EXPECT_EQ(r.reason, isa::TerminateReason::WindowEnd);
    EXPECT_EQ(r.instret, 50u);
}

TEST(CoreFaults, RegisterFlipFlipsBack)
{
    auto p = prog("halt 0\n");
    Core core(p, CoreConfig{});
    core.flipRegisterFileBit(40, 5);
    core.flipRegisterFileBit(40, 5);
    auto r = core.run();
    EXPECT_EQ(r.reason, isa::TerminateReason::Halted);
}

TEST(CoreFaults, FlipInDeadRegisterIsMasked)
{
    auto src = "movi a0, 1\nout.d a0\nhalt 0\n";
    auto p = prog(src);
    auto golden = isa::interpret(p);

    Core core(p, CoreConfig{});
    // Flip a bit in a free physical register nothing will ever read.
    core.flipRegisterFileBit(200, 13);
    auto r = core.run();
    EXPECT_TRUE(r.sameArchOutcome(golden));
}

TEST(CoreFaults, FlipInLiveRegisterCorruptsOutput)
{
    // a0 holds 16 across a bounded loop and is printed at the end.  Once
    // the loop is mid-flight, flip bit 3 of every physical register: the
    // live copy of a0 is among them, so the output must change.  The
    // loop exits on >= so a corrupted counter still terminates.
    auto src = "movi a0, 16\n"
               "movi a1, 1\n"
               "loop: addi a1, a1, 1\n"
               "blt a1, a0, loop\n"
               "out.d a0\n"
               "halt 0\n";
    auto p = prog(src);
    auto golden = isa::interpret(p);

    CoreConfig cfg;
    cfg.maxCycles = 1'000'000;
    Core core(p, cfg);
    // Advance until the MOVIs have architecturally committed (the cold
    // I-cache miss alone costs ~90 cycles).
    while (!core.finished() && core.result().instret < 2 &&
           core.archRegValue(0) != 16) {
        core.tick();
    }
    ASSERT_FALSE(core.finished());
    for (unsigned reg = 0; reg < cfg.numPhysIntRegs; ++reg)
        core.flipRegisterFileBit(reg, 3);
    auto r = core.run();
    EXPECT_FALSE(r.sameArchOutcome(golden));
}

TEST(CoreDiff, RandomProgramsMatchInterp)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        workloads::RandomProgramOptions opts;
        auto src = workloads::generateRandomProgram(seed, opts);
        auto p = masm::assemble(src, "rand" + std::to_string(seed));
        auto ref = isa::interpret(p);
        ASSERT_EQ(ref.reason, isa::TerminateReason::Halted)
            << "seed " << seed << " generator produced a trapping program";
        Core core(p, CoreConfig{});
        auto got = core.run();
        EXPECT_TRUE(got.sameArchOutcome(ref)) << "seed " << seed;
    }
}

TEST(CoreDiff, RandomProgramsSmallConfig)
{
    CoreConfig cfg;
    cfg = cfg.withRegisterFile(48).withStoreQueue(16).withL1dKb(16);
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        auto src = workloads::generateRandomProgram(seed);
        auto p = masm::assemble(src, "rand");
        auto ref = isa::interpret(p);
        Core core(p, cfg);
        auto got = core.run();
        EXPECT_TRUE(got.sameArchOutcome(ref)) << "seed " << seed;
    }
}

TEST(CoreDiff, DeterministicAcrossRuns)
{
    auto src = workloads::generateRandomProgram(77);
    auto p = masm::assemble(src, "rand");
    Core c1(p, CoreConfig{});
    Core c2(p, CoreConfig{});
    auto r1 = c1.run();
    auto r2 = c2.run();
    EXPECT_TRUE(r1.sameArchOutcome(r2));
    EXPECT_EQ(c1.stats().cycles, c2.stats().cycles);
    EXPECT_EQ(c1.stats().branchMispredicts, c2.stats().branchMispredicts);
}

// ------------------------------------------------- snapshot / restore

void
expectSameFinalState(const Core &a, const Core &b)
{
    EXPECT_EQ(static_cast<int>(a.result().reason),
              static_cast<int>(b.result().reason));
    EXPECT_EQ(a.result().exitCode, b.result().exitCode);
    EXPECT_EQ(a.result().output, b.result().output);
    EXPECT_EQ(a.result().instret, b.result().instret);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.stats().instret, b.stats().instret);
    EXPECT_EQ(a.stats().uopsRetired, b.stats().uopsRetired);
    EXPECT_EQ(a.stats().branchMispredicts, b.stats().branchMispredicts);
    EXPECT_EQ(a.stats().condBranches, b.stats().condBranches);
    EXPECT_EQ(a.stats().squashes, b.stats().squashes);
    EXPECT_EQ(a.stats().loadsExecuted, b.stats().loadsExecuted);
    EXPECT_EQ(a.stats().storeForwards, b.stats().storeForwards);
    EXPECT_EQ(a.stats().l1dHits, b.stats().l1dHits);
    EXPECT_EQ(a.stats().l1dMisses, b.stats().l1dMisses);
    for (unsigned r = 0; r < isa::NUM_RENAMEABLE_REGS; ++r)
        EXPECT_EQ(a.archRegValue(r), b.archRegValue(r));
    EXPECT_TRUE(a.archMemoryView().contentEquals(b.archMemoryView()));
}

TEST(CoreSnapshot, RestoredRunMatchesUninterrupted)
{
    auto src = workloads::generateRandomProgram(42);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;

    Core reference(p, cfg);
    reference.run();
    ASSERT_GT(reference.stats().cycles, 100u);

    // Snapshot mid-run at several points; each restored core must end in
    // exactly the reference's final state.
    for (double frac : {0.1, 0.5, 0.9}) {
        const Cycle at = static_cast<Cycle>(
            static_cast<double>(reference.stats().cycles) * frac);
        Core running(p, cfg);
        while (running.cycle() < at && running.tick()) {
        }
        ASSERT_FALSE(running.finished());
        Core::Snapshot snap = running.snapshot();
        EXPECT_EQ(snap.cycle(), running.cycle());
        ASSERT_TRUE(snap.valid());

        Core restored(p, cfg, snap);
        EXPECT_EQ(restored.cycle(), at);
        restored.run();
        expectSameFinalState(restored, reference);

        // The donor core is unaffected by the snapshot and also
        // finishes identically.
        running.run();
        expectSameFinalState(running, reference);
    }
}

TEST(CoreSnapshot, RestoreIsRepeatable)
{
    auto src = workloads::generateRandomProgram(91);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 200 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    // One immutable snapshot feeds many restored cores.
    Core a(p, cfg, snap);
    Core b(p, cfg, snap);
    a.run();
    b.run();
    expectSameFinalState(a, b);
}

TEST(CoreSnapshot, CowRestoreCopiesFarFewerBytesThanDeep)
{
    // The acceptance criterion of the COW substrate, asserted on the
    // SnapshotStats byte counters rather than wall clock: a COW
    // capture/restore duplicates only the non-COW core state, while
    // the seed-equivalent deep mode duplicates memory and all cache
    // data arrays on top of it.
    auto src = workloads::generateRandomProgram(7);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 400 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());

    SnapshotStats cap;
    Core::Snapshot snap = running.snapshot(&cap);
    EXPECT_GT(cap.bytesShared, 0u);
    // Memory (2MB heap alone) + cache arrays dwarf the deep remainder.
    EXPECT_GT(cap.bytesShared, cap.bytesCopied);

    SnapshotStats cow, deep;
    Core a(p, cfg, snap, &cow);
    Core b(p, cfg, snap, &deep, /*deep=*/true);
    EXPECT_EQ(cow.total(), deep.total());
    // "Measurably fewer": at least 4x less actually copied.
    EXPECT_LT(cow.bytesCopied, deep.bytesCopied / 4);

    // A deep restore detaches exactly memory and the three cache data
    // arrays; what it still shares is the predecoded text, which no
    // copy ever duplicates.
    const std::uint64_t cow_arrays =
        p.buildMemory(cfg.memChunkBytes).contentBytes() +
        cfg.l1i.sizeBytes + cfg.l1d.sizeBytes + cfg.l2.sizeBytes;
    EXPECT_EQ(cow.bytesShared - deep.bytesShared, cow_arrays);
    EXPECT_EQ(deep.bytesCopied - cow.bytesCopied, cow_arrays);
    EXPECT_GT(deep.bytesShared, p.text.size());
    EXPECT_EQ(cap.bytesShared, cow.bytesShared);

    // Both restore flavours still produce the same run.
    a.run();
    b.run();
    expectSameFinalState(a, b);
}

TEST(CoreSnapshot, UopQueueCopiesItsWholeRingWhateverItHolds)
{
    // A run of NOPs renames into neither registers, IQ nor completions,
    // so between captures only the uop queue's fill level changes: a
    // copy duplicates the whole ring, so every capture copies the same
    // byte count.
    std::string src;
    for (int i = 0; i < 64; ++i)
        src += "nop\n";
    src += "halt 0\n";
    auto p = prog(src);
    Core core(p, CoreConfig{});
    SnapshotStats first;
    core.snapshot(&first);
    while (core.tick()) {
        SnapshotStats st;
        core.snapshot(&st);
        ASSERT_EQ(st.bytesCopied, first.bytesCopied) << core.cycle();
        ASSERT_EQ(st.bytesShared, first.bytesShared) << core.cycle();
    }
    EXPECT_EQ(core.result().reason, isa::TerminateReason::Halted);
}

TEST(CoreSnapshot, RestoringAnotherProgramsSnapshotTrips)
{
    auto p = prog("movi a0, 1\nmovi a1, 2\nout.d a0\nhalt 0\n");
    auto other = prog("movi a0, 1\nmovi a1, 3\nout.d a0\nhalt 0\n");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 10 && running.tick()) {
    }
    Core::Snapshot snap = running.snapshot();
    EXPECT_NO_THROW((Core(p, cfg, snap)));
    // Same name, same sizes, one different immediate.
    EXPECT_THROW((Core(other, cfg, snap)), SimAssertError);
    // A copy of the program is the same program.
    const isa::Program copy = p;
    EXPECT_NO_THROW((Core(copy, cfg, snap)));
}

TEST(CoreSnapshot, RunsAfterRestoreNeverLeakIntoTheSnapshot)
{
    // Strict aliasing order: restore + run to completion (mutating
    // every shared structure), THEN restore again from the same
    // snapshot — the second core must see pristine snapshot state.
    auto src = workloads::generateRandomProgram(55);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 250 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    Core first(p, cfg, snap);
    first.run();
    Core second(p, cfg, snap);
    EXPECT_EQ(second.cycle(), snap.cycle());
    EXPECT_TRUE(second.stateEquals(snap));
    second.run();
    expectSameFinalState(first, second);
}

TEST(CoreSnapshot, StateEqualsDetectsDivergenceAndReconvergence)
{
    auto p = prog("movi a0, 1\nout.d a0\nhalt 0\n");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 20 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    Core restored(p, cfg, snap);
    EXPECT_TRUE(restored.stateEquals(snap));
    // Flip a bit nothing uses: state now differs...
    restored.flipRegisterFileBit(cfg.numPhysIntRegs - 1, 3);
    EXPECT_FALSE(restored.stateEquals(snap));
    // ...and flipping it back reconverges exactly.
    restored.flipRegisterFileBit(cfg.numPhysIntRegs - 1, 3);
    EXPECT_TRUE(restored.stateEquals(snap));
}

TEST(CoreSnapshot, RestoringAnEmptySnapshotTrips)
{
    auto p = prog("movi a0, 1\nhalt 0\n");
    Core::Snapshot empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_THROW((Core(p, CoreConfig{}, empty)), SimAssertError);
}

TEST(CoreSnapshot, RestoreAllowsTighterWatchdog)
{
    auto p = prog("  movi s0, 0\n"
                  "  movi s1, 300\n"
                  "spin:\n"
                  "  addi s0, s0, 1\n"
                  "  blt s0, s1, spin\n"
                  "  out.d s0\n"
                  "  halt 0\n");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 50 && running.tick()) {
    }
    Core::Snapshot snap = running.snapshot();

    // The injector's 3x-golden cycle budget must bite in restored runs.
    CoreConfig tight = cfg;
    tight.maxCycles = 60;
    Core restored(p, tight, snap);
    auto r = restored.run();
    EXPECT_EQ(r.reason, isa::TerminateReason::CycleLimit);
}

// ------------------------------------------------------ trajectory lock

/**
 * One pinned golden trajectory: a profiled run of a workload at one
 * core geometry, with its SimPoint window.  Every value was recorded
 * from the core as it stood before predecoded fetch, the ring uop
 * queue, shift-indexed caches and the leaner rename/issue path; a core
 * change that moves one cycle, one statistic, one output byte or one
 * vulnerable entry-cycle (the numerator of the ACE AVF) fails here.
 */
struct Trajectory
{
    const char *workload;
    unsigned regs;
    unsigned sqEntries;
    unsigned l1dKb;
    CoreStats stats;
    int reason;
    int exitCode;
    std::uint64_t outputHash; ///< FNV-1a over the output stream
    std::uint64_t aceRf;      ///< vulnerable entry-cycles per structure
    std::uint64_t aceSq;
    std::uint64_t aceL1d;
};

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Run @p t's case and return what a pinned row would hold. */
Trajectory
observe(const Trajectory &t)
{
    const auto w = workloads::buildWorkload(t.workload);
    CoreConfig cfg = CoreConfig{}
                         .withRegisterFile(t.regs)
                         .withStoreQueue(t.sqEntries)
                         .withL1dKb(t.l1dKb);
    cfg.instructionWindowEnd = w.suggestedWindow;
    profile::AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                              cfg.l1d.totalWords());
    Core core(w.program, cfg, &prof);
    const isa::ArchResult r = core.run();
    prof.finalize();
    const auto vuln = [&](Structure s) {
        return prof.profile(s).totalVulnerableCycles();
    };
    return Trajectory{t.workload,
                      t.regs,
                      t.sqEntries,
                      t.l1dKb,
                      core.stats(),
                      static_cast<int>(r.reason),
                      r.exitCode,
                      fnv1a(r.output),
                      vuln(Structure::RegisterFile),
                      vuln(Structure::StoreQueue),
                      vuln(Structure::L1DCache)};
}

/** @p s as a braced initializer, so a deliberate re-pin is a paste. */
std::string
statsRow(const CoreStats &s)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                  "%llu}",
                  (unsigned long long)s.cycles,
                  (unsigned long long)s.instret,
                  (unsigned long long)s.uopsRetired,
                  (unsigned long long)s.branchMispredicts,
                  (unsigned long long)s.condBranches,
                  (unsigned long long)s.squashes,
                  (unsigned long long)s.loadsExecuted,
                  (unsigned long long)s.storeForwards,
                  (unsigned long long)s.l1dHits,
                  (unsigned long long)s.l1dMisses);
    return buf;
}

/** @p t as a table row. */
std::string
row(const Trajectory &t)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %u, %u, %u,\n     %s,\n     %d, %d, "
                  "0x%016llxULL, %llu, %llu, %llu},",
                  t.workload, t.regs, t.sqEntries, t.l1dKb,
                  statsRow(t.stats).c_str(), t.reason, t.exitCode,
                  (unsigned long long)t.outputHash,
                  (unsigned long long)t.aceRf, (unsigned long long)t.aceSq,
                  (unsigned long long)t.aceL1d);
    return buf;
}

void
expectPinned(const Trajectory &want)
{
    const Trajectory got = observe(want);
    EXPECT_EQ(got.stats, want.stats) << row(got);
    EXPECT_EQ(got.reason, want.reason) << row(got);
    EXPECT_EQ(got.exitCode, want.exitCode) << row(got);
    EXPECT_EQ(got.outputHash, want.outputHash) << row(got);
    EXPECT_EQ(got.aceRf, want.aceRf) << row(got);
    EXPECT_EQ(got.aceSq, want.aceSq) << row(got);
    EXPECT_EQ(got.aceL1d, want.aceL1d) << row(got);
}

// All 20 workloads at the default (Table 1) configuration.
const Trajectory kDefaultTrajectories[] = {
    {"susan_c", 256, 64, 64,
     {94848, 131900, 131900, 6503, 40654, 6503, 10021, 0, 10004, 16},
     0, 0, 0x1cad2792a7eef243ULL, 1099944, 2919, 7019891},
    {"susan_s", 256, 64, 64,
     {18539, 36099, 36099, 56, 1954, 56, 9125, 0, 9108, 16},
     0, 0, 0xe1a3f74ac8f3e83aULL, 202288, 1800, 1329196},
    {"susan_e", 256, 64, 64,
     {29536, 46561, 46561, 1117, 5554, 1117, 12328, 0, 12311, 16},
     0, 0, 0x74feef94d72bf4abULL, 276443, 3502, 2108387},
    {"stringsearch", 256, 64, 64,
     {24349, 41452, 41452, 89, 7543, 89, 7448, 0, 7416, 32},
     0, 0, 0xccfd6b87a13ec0abULL, 411767, 4176, 4670585},
    {"djpeg", 256, 64, 64,
     {60071, 157095, 157111, 1148, 11976, 1148, 18437, 0, 18357, 80},
     0, 0, 0x426fb3fc5917cfccULL, 875272, 4294, 11222184},
    {"sha", 256, 64, 64,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
    {"fft", 256, 64, 64,
     {6846, 9251, 9251, 115, 453, 115, 1496, 0, 1464, 32},
     0, 0, 0x7c9ce5f36caa1203ULL, 107281, 3588, 904152},
    {"qsort", 256, 64, 64,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"cjpeg", 256, 64, 64,
     {54949, 149917, 149933, 1143, 10440, 1143, 17920, 0, 17840, 80},
     0, 0, 0xea47dfb0f3768d64ULL, 724833, 3107, 10427843},
    {"caes", 256, 64, 64,
     {17486, 30743, 30863, 733, 3202, 733, 4474, 0, 4469, 5},
     0, 0, 0x2f81a04315206396ULL, 240173, 5855, 958308},
    {"bzip2", 256, 64, 64,
     {14920, 25000, 25000, 598, 6393, 598, 3266, 0, 3232, 34},
     4, 0, 0x14650fb0739d0383ULL, 100198, 10488, 70528},
    {"gcc", 256, 64, 64,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"mcf", 256, 64, 64,
     {16191, 25000, 25000, 345, 3650, 345, 6586, 0, 6442, 144},
     4, 0, 0x14650fb0739d0383ULL, 161007, 1194, 13377798},
    {"gobmk", 256, 64, 64,
     {12170, 25000, 25076, 238, 5081, 238, 316, 5, 309, 2},
     4, 0, 0x14650fb0739d0383ULL, 111432, 9969, 141519},
    {"hmmer", 256, 64, 64,
     {13878, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 142998, 20176, 4234806},
    {"sjeng", 256, 64, 64,
     {18030, 25000, 29633, 1195, 5039, 1195, 2308, 29, 2279, 0},
     4, 0, 0x14650fb0739d0383ULL, 205002, 4892, 437244},
    {"libquantum", 256, 64, 64,
     {13608, 25000, 25000, 510, 6951, 510, 1814, 0, 1778, 36},
     4, 0, 0x14650fb0739d0383ULL, 109778, 4694, 2940860},
    {"h264ref", 256, 64, 64,
     {13212, 25000, 25000, 467, 3329, 467, 2354, 0, 2347, 7},
     4, 0, 0x14650fb0739d0383ULL, 130022, 56, 337922},
    {"omnetpp", 256, 64, 64,
     {16471, 25000, 25580, 925, 3738, 925, 3826, 432, 3394, 0},
     4, 0, 0x14650fb0739d0383ULL, 175536, 4730, 637333},
    {"astar", 256, 64, 64,
     {9729, 25000, 25017, 92, 7286, 92, 3448, 3, 3435, 10},
     4, 0, 0x14650fb0739d0383ULL, 78938, 3168, 566809},
};

// qsort, gcc, hmmer and sha at each Table-1 size variant of the
// speedup figures (RF 128/64, SQ 32/16, L1D 32/16 KB).
const Trajectory kSizeVariantTrajectories[] = {
    {"qsort", 128, 64, 64,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"qsort", 64, 64, 64,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"qsort", 256, 32, 64,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"qsort", 256, 16, 64,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"qsort", 256, 64, 32,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"qsort", 256, 64, 16,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"gcc", 128, 64, 64,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"gcc", 64, 64, 64,
     {14929, 25000, 25000, 678, 6272, 678, 4854, 180, 4668, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"gcc", 256, 32, 64,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"gcc", 256, 16, 64,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"gcc", 256, 64, 32,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"gcc", 256, 64, 16,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"hmmer", 128, 64, 64,
     {13878, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 142998, 20176, 4234806},
    {"hmmer", 64, 64, 64,
     {14749, 25000, 25000, 269, 1406, 269, 3867, 0, 3820, 47},
     4, 0, 0x14650fb0739d0383ULL, 113757, 6492, 4550460},
    {"hmmer", 256, 32, 64,
     {13878, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 142998, 20176, 4234806},
    {"hmmer", 256, 16, 64,
     {13923, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 143201, 15643, 4248792},
    {"hmmer", 256, 64, 32,
     {13878, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 142998, 20176, 4234806},
    {"hmmer", 256, 64, 16,
     {13878, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 142998, 20176, 4234806},
    {"sha", 128, 64, 64,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
    {"sha", 64, 64, 64,
     {15719, 35014, 35014, 144, 3069, 144, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 170010, 1542, 381032},
    {"sha", 256, 32, 64,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
    {"sha", 256, 16, 64,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
    {"sha", 256, 64, 32,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
    {"sha", 256, 64, 16,
     {15611, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 182351, 1542, 376719},
};

// A geometry the suite accepts in which no injected structure is a
// power of two: L1D 48 KB (192 sets), 100 registers, 24 SQ entries.
const Trajectory kOddGeometryTrajectories[] = {
    {"qsort", 100, 24, 48,
     {21568, 21695, 23426, 1299, 4924, 1299, 5872, 155, 5682, 32},
     0, 0, 0x6972964d4ecf1d79ULL, 126298, 9399, 5225978},
    {"gcc", 100, 24, 48,
     {14929, 25000, 25000, 680, 6272, 680, 4864, 183, 4675, 6},
     4, 0, 0x14650fb0739d0383ULL, 87605, 3549, 647585},
    {"hmmer", 100, 24, 48,
     {14028, 25000, 25000, 270, 1406, 270, 3902, 0, 3855, 47},
     4, 0, 0x14650fb0739d0383ULL, 136137, 15886, 4297084},
    {"sha", 100, 24, 48,
     {15612, 35014, 35014, 204, 3069, 204, 3265, 0, 3256, 9},
     0, 0, 0xd351bf63b31c4ec3ULL, 181825, 1542, 376776},
};

TEST(CoreTrajectory, AllWorkloadsAtDefaultConfig)
{
    ASSERT_EQ(std::size(kDefaultTrajectories),
              workloads::allWorkloadNames().size());
    for (const Trajectory &t : kDefaultTrajectories)
        expectPinned(t);
}

TEST(CoreTrajectory, SizeVariants)
{
    for (const Trajectory &t : kSizeVariantTrajectories)
        expectPinned(t);
}

TEST(CoreTrajectory, OddGeometry)
{
    for (const Trajectory &t : kOddGeometryTrajectories)
        expectPinned(t);
}

TEST(CoreTrajectory, L1dFlipInALoadedTextLineNeverReachesFetch)
{
    // The program reads its own text through the L1D, a bit of that
    // L1D line is flipped, the program reads the word again and then
    // branches into it.  Text is never written (R|X, every store
    // checks PermWrite), so the flip lives only in the clean L1D copy:
    // the second load sees it, fetch never does.
    auto p = prog("  la s0, target\n"
                  "  ld.d s1, [s0]\n"
                  "  out.d s1\n"
                  "  movi s2, 0\n"
                  "wait:\n"
                  "  addi s2, s2, 1\n"
                  "  movi t0, 200\n"
                  "  blt s2, t0, wait\n"
                  "  ld.d s1, [s0]\n"
                  "  out.d s1\n"
                  "  jmp target\n"
                  "  halt 1\n"
                  "target:\n"
                  "  movi a0, 7\n"
                  "  out.d a0\n"
                  "  halt 3\n");
    CoreConfig cfg;
    Core core(p, cfg);
    // Run until the first load has filled the text line into the L1D.
    while (core.stats().loadsExecuted == 0 && core.tick()) {
    }
    ASSERT_FALSE(core.finished());
    // Flip bit 0 (the opcode's low bit) of the target word in every
    // way of its set: only the resident way holds live data.
    const Addr target = p.symbol("target");
    const unsigned sets = cfg.l1d.numSets();
    const unsigned set = (target / cfg.l1d.lineSize) % sets;
    const unsigned word = (target % cfg.l1d.lineSize) / 8;
    for (unsigned way = 0; way < cfg.l1d.ways; ++way) {
        core.flipL1dBit((set * cfg.l1d.ways + way) * cfg.l1d.wordsPerLine() +
                            word,
                        0);
    }
    const isa::ArchResult r = core.run();
    EXPECT_EQ(r.reason, isa::TerminateReason::Halted);
    EXPECT_EQ(r.exitCode, 3);
    ASSERT_EQ(r.output.size(), 24u);
    // Second load saw the flip; the executed instruction did not.
    EXPECT_EQ(r.output[0] ^ r.output[8], 1);
    EXPECT_EQ(r.output[16], 7);
    const CoreStats pinned{395, 610, 610, 13, 200, 13, 14, 0, 13, 1};
    EXPECT_EQ(core.stats(), pinned) << statsRow(core.stats());
}

} // namespace
} // namespace merlin::uarch
