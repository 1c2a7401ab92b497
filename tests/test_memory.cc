/**
 * @file
 * SegmentedMemory / CowBytes edge cases: block accesses spanning
 * segment and chunk boundaries, permission traps, copy-on-write
 * sharing and detach semantics, contentEquals across shared vs
 * detached chunks, and snapshot/restore aliasing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/cow.hh"
#include "base/logging.hh"
#include "isa/memory.hh"
#include "isa/program.hh"

namespace merlin::isa
{
namespace
{

using base::CowBytes;

SegmentedMemory
twoAdjacentSegments(std::uint32_t chunk_bytes = 256)
{
    SegmentedMemory m(chunk_bytes);
    m.addSegment(0x1000, 0x1000, PermRead | PermWrite);
    m.addSegment(0x2000, 0x1000, PermRead | PermWrite);
    return m;
}

// ----------------------------------------------------------- CowBytes

TEST(CowBytes, CopySharesAndWriteDetaches)
{
    CowBytes a(1024, 256);
    a.write(100, "hello", 5);
    CowBytes b = a;
    EXPECT_EQ(b.sharedChunksWith(a), 4u);
    EXPECT_TRUE(a.contentEquals(b));

    // A write into one chunk of the copy detaches that chunk only.
    b.write(300, "x", 1);
    EXPECT_EQ(b.sharedChunksWith(a), 3u);
    EXPECT_FALSE(a.contentEquals(b));
    EXPECT_EQ(b.bytesDetached() - a.bytesDetached(), 256u);

    // The donor never sees the copy's write.
    std::uint8_t byte = 0;
    a.read(300, &byte, 1);
    EXPECT_EQ(byte, 0u);
}

TEST(CowBytes, ContentEqualsOnDetachedChunksComparesBytes)
{
    CowBytes a(512, 128);
    CowBytes b = a;
    // Detach with the SAME content: still equal, though not shared.
    b.write(10, "\0", 1);
    EXPECT_EQ(b.sharedChunksWith(a), 3u);
    EXPECT_TRUE(a.contentEquals(b));
    // Now genuinely diverge and come back.
    b.write(10, "z", 1);
    EXPECT_FALSE(a.contentEquals(b));
    b.write(10, "\0", 1);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(CowBytes, ChunkSpanningReadWrite)
{
    CowBytes a(1024, 256);
    std::vector<std::uint8_t> pattern(600);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
    // Crosses three chunk boundaries.
    a.write(200, pattern.data(), pattern.size());
    std::vector<std::uint8_t> back(pattern.size());
    a.read(200, back.data(), back.size());
    EXPECT_EQ(back, pattern);
}

TEST(CowBytes, MixedGranularityContentEquals)
{
    CowBytes a(1024, 256);
    CowBytes b(1024, 64);
    EXPECT_TRUE(a.contentEquals(b));
    b.write(999, "q", 1);
    EXPECT_FALSE(a.contentEquals(b));
    a.write(999, "q", 1);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(CowBytes, DetachAllPrivatizesEverything)
{
    CowBytes a(1024, 256);
    CowBytes b = a;
    b.detachAll();
    EXPECT_EQ(b.sharedChunksWith(a), 0u);
    EXPECT_EQ(b.exclusiveChunks(), 4u);
    EXPECT_TRUE(a.contentEquals(b));
}

// ---------------------------------------------------- SegmentedMemory

TEST(Memory, ScalarTrapMatrix)
{
    SegmentedMemory m;
    m.addSegment(0x1000, 0x100, PermRead);
    std::uint64_t v = 0;
    EXPECT_EQ(m.read(0x1008, 8, v), TrapKind::None);
    EXPECT_EQ(m.read(0x1001, 8, v), TrapKind::Misaligned);
    EXPECT_EQ(m.read(0x9000, 8, v), TrapKind::Segfault);
    EXPECT_EQ(m.write(0x1008, 8, 1), TrapKind::Segfault); // read-only
    EXPECT_EQ(m.check(0x1008, 8, false), TrapKind::None);
    EXPECT_EQ(m.check(0x1008, 8, true), TrapKind::Segfault);
}

TEST(Memory, BlockSpanningSegmentBoundaryTraps)
{
    SegmentedMemory m = twoAdjacentSegments();
    std::uint8_t buf[64] = {};
    // Fully inside either segment: fine.
    EXPECT_EQ(m.readBlock(0x1fc0, buf, 64), TrapKind::None);
    EXPECT_EQ(m.readBlock(0x2000, buf, 64), TrapKind::None);
    // Straddling the two segments: never legal, even though both
    // sides are mapped (a cache line belongs to one segment).
    EXPECT_EQ(m.readBlock(0x1fe0, buf, 64), TrapKind::Segfault);
    EXPECT_EQ(m.writeBlock(0x1fe0, buf, 64), TrapKind::Segfault);
    // Off the end of the last segment.
    EXPECT_EQ(m.readBlock(0x2fe0, buf, 64), TrapKind::Segfault);
}

TEST(Memory, AccessesNearTwoToTheSixtyFourTrap)
{
    // addr + len wraps to a small number here, which must not make
    // the access "fit" the lowest segment.
    SegmentedMemory m;
    m.addSegment(0x1000, 0x1000, PermRead | PermWrite | PermExec);
    const Addr top8 = ~Addr{0} - 7;   // 2^64 - 8
    const Addr top64 = ~Addr{0} - 63; // 2^64 - 64
    std::uint64_t v = 0;
    std::uint8_t buf[64] = {};
    EXPECT_EQ(m.read(top8, 8, v), TrapKind::Segfault);
    EXPECT_EQ(m.write(top8, 8, 1), TrapKind::Segfault);
    EXPECT_EQ(m.check(top8, 8, false), TrapKind::Segfault);
    EXPECT_EQ(m.fetch(top8, v), TrapKind::PcOutOfText);
    EXPECT_EQ(m.readBlock(top64, buf, 64), TrapKind::Segfault);
    EXPECT_EQ(m.writeBlock(top64, buf, 64), TrapKind::Segfault);
    // The segment's own last bytes are still reachable.
    EXPECT_EQ(m.read(0x1ff8, 8, v), TrapKind::None);
    EXPECT_EQ(m.readBlock(0x1fc0, buf, 64), TrapKind::None);
}

TEST(Memory, BlockPermissionTraps)
{
    SegmentedMemory m;
    m.addSegment(0x1000, 0x100, PermWrite); // write-only (no R, no X)
    m.addSegment(0x2000, 0x100, PermExec);
    std::uint8_t buf[32] = {};
    EXPECT_EQ(m.readBlock(0x1000, buf, 32), TrapKind::Segfault);
    // Exec-only is readable as a block (I-cache line fills).
    EXPECT_EQ(m.readBlock(0x2000, buf, 32), TrapKind::None);
    // writeBlock is the write-back path: permissions are not checked,
    // only the mapping (dirty text lines are legal write-backs).
    EXPECT_EQ(m.writeBlock(0x2000, buf, 32), TrapKind::None);
    EXPECT_EQ(m.writeBlock(0x8000, buf, 32), TrapKind::Segfault);
}

TEST(Memory, BlockSpanningChunksRoundTrips)
{
    // 64-byte chunks, a 192-byte block write crossing two boundaries.
    SegmentedMemory m(64);
    m.addSegment(0x1000, 0x400, PermRead | PermWrite);
    std::vector<std::uint8_t> pattern(192);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(255 - i);
    EXPECT_EQ(m.writeBlock(0x1020, pattern.data(), 192), TrapKind::None);
    std::vector<std::uint8_t> back(192);
    EXPECT_EQ(m.readBlock(0x1020, back.data(), 192), TrapKind::None);
    EXPECT_EQ(back, pattern);
    std::uint64_t v = 0;
    EXPECT_EQ(m.read(0x1020, 1, v), TrapKind::None);
    EXPECT_EQ(v, 255u);
}

TEST(Memory, CopySharesChunksAndContentEqualsShortCircuits)
{
    SegmentedMemory a = twoAdjacentSegments();
    ASSERT_EQ(a.write(0x1100, 8, 0x1234), TrapKind::None);
    SegmentedMemory b = a;
    const std::size_t total_chunks = 2 * (0x1000 / 256);
    EXPECT_EQ(b.sharedChunksWith(a), total_chunks);
    EXPECT_TRUE(a.contentEquals(b));

    // Same value written -> detached chunk, still content-equal.
    ASSERT_EQ(b.write(0x1100, 8, 0x1234), TrapKind::None);
    EXPECT_EQ(b.sharedChunksWith(a), total_chunks - 1);
    EXPECT_TRUE(a.contentEquals(b));

    // Different value -> unequal; restoring it -> equal again.
    ASSERT_EQ(b.write(0x2100, 8, 99), TrapKind::None);
    EXPECT_FALSE(a.contentEquals(b));
    ASSERT_EQ(b.write(0x2100, 8, 0), TrapKind::None);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(Memory, WritesAfterRestoreNeverLeakIntoALiveSnapshot)
{
    // The aliasing property the snapshot engine relies on: keep an
    // immutable copy ("snapshot"), mutate restored copies freely, and
    // every later restore still sees the original bytes.
    SegmentedMemory snap = twoAdjacentSegments();
    ASSERT_EQ(snap.write(0x1000, 8, 0xAB), TrapKind::None);

    SegmentedMemory first = snap;
    ASSERT_EQ(first.write(0x1000, 8, 0xCD), TrapKind::None);
    ASSERT_EQ(first.write(0x2000, 8, 0xEF), TrapKind::None);

    SegmentedMemory second = snap;
    std::uint64_t v = 0;
    ASSERT_EQ(second.read(0x1000, 8, v), TrapKind::None);
    EXPECT_EQ(v, 0xABu);
    ASSERT_EQ(second.read(0x2000, 8, v), TrapKind::None);
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(second.contentEquals(snap));
    EXPECT_FALSE(first.contentEquals(snap));
}

TEST(Memory, RejectsBadGeometry)
{
    EXPECT_THROW(SegmentedMemory(100), SimAssertError); // not a pow2
    SegmentedMemory m;
    EXPECT_THROW(m.addSegment(0x1010, 0x100, PermRead), FatalError);
    m.addSegment(0x1000, 0x100, PermRead);
    EXPECT_THROW(m.addSegment(0x1040, 0x100, PermRead), FatalError);
}

TEST(Memory, ProgramLoadIsCheckedEndToEnd)
{
    // Images are now loaded through the checked writeBlock path: a
    // text/data image that did not fit its mapped segment would
    // fatal() with a clear message instead of writing through the
    // null pointer the old unchecked rawAt()+memcpy produced.  The
    // segments are sized from the images, so the in-bounds cases must
    // load and verify.
    Program p;
    p.name = "oversize";
    p.text.assign(64, 0);
    p.data.assign(128, 1);
    p.bssSize = 0;
    SegmentedMemory ok = p.buildMemory();
    std::uint64_t v = 0;
    ASSERT_EQ(ok.read(layout::DATA_BASE, 1, v), TrapKind::None);
    EXPECT_EQ(v, 1u);

    Program empty;
    empty.name = "empty";
    EXPECT_THROW(empty.buildMemory(), FatalError); // no text at all
}

TEST(Memory, ChunkGranularityNeverChangesContents)
{
    Program p;
    p.name = "gran";
    p.text.assign(256, 0x11);
    p.data.assign(300, 0x22);
    p.bssSize = 100;
    SegmentedMemory coarse = p.buildMemory(64 * 1024);
    SegmentedMemory fine = p.buildMemory(64);
    EXPECT_EQ(coarse.chunkBytes(), 64u * 1024);
    EXPECT_EQ(fine.chunkBytes(), 64u);
    EXPECT_TRUE(coarse.contentEquals(fine));
    ASSERT_EQ(coarse.write(layout::HEAP_BASE, 8, 7), TrapKind::None);
    EXPECT_FALSE(coarse.contentEquals(fine));
    ASSERT_EQ(fine.write(layout::HEAP_BASE, 8, 7), TrapKind::None);
    EXPECT_TRUE(coarse.contentEquals(fine));
}

} // namespace
} // namespace merlin::isa
