/**
 * @file
 * Cycle-level out-of-order core for MRL-64.
 *
 * The pipeline models fetch (with branch prediction), decode to uops,
 * rename onto a physical register file with a free list, dispatch into
 * ROB / issue queue / load-store queue, out-of-order issue with
 * functional-unit constraints, store-to-load forwarding, in-order commit,
 * post-commit store drain into a write-back L1D, and full squash recovery
 * on branch mispredictions.
 *
 * Reliability hooks:
 *  - a Probe observes physical writes and committed reads of the three
 *    MeRLiN target structures (RF, SQ data field, L1D data array);
 *  - flip*Bit() methods let the injector corrupt live storage mid-run.
 *
 * Stage evaluation order within a cycle is commit -> writeback -> issue ->
 * rename/dispatch -> fetch, so dependent single-cycle ops execute on
 * back-to-back cycles, as in the gem5 O3 model.
 *
 * Text immutability.  Fetch does not read instruction bytes out of the
 * L1I: it charges the L1I access for timing and takes the uops from a
 * table decoded once from Program::text.  That is exact because no
 * cache level can ever hold text bytes other than Program::text: text
 * is mapped R|X (Program::buildMemory), every store checks PermWrite
 * before it enters the store queue, so no text line is ever dirty, and
 * the only injected cache is the L1D, whose flips in a clean text line
 * are dropped on eviction and never reach the L2 the L1I fills from.
 * A change that lets text be written (or injects the L1I or L2) must
 * give this up and decode the bytes the L1I holds.
 *
 * Cycle identity.  The core is the reference for every campaign's
 * outcomes, so a change made for speed must leave each trajectory
 * bit-identical: the cycle count, every CoreStats field, the
 * ArchResult, the order and arguments of every probe and effect-sink
 * callback, and snapshot contents (CoreTrajectory.* in
 * tests/test_core.cc pins the first three over all workloads).
 */

#ifndef MERLIN_UARCH_CORE_HH
#define MERLIN_UARCH_CORE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "isa/interp.hh"
#include "isa/program.hh"
#include "isa/uops.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/config.hh"
#include "uarch/probe.hh"

namespace merlin::uarch
{

/** Timing statistics of one run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    std::uint64_t uopsRetired = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t squashes = 0;
    std::uint64_t loadsExecuted = 0;
    std::uint64_t storeForwards = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instret) / cycles : 0.0;
    }

    bool operator==(const CoreStats &) const = default;
};

/**
 * Byte accounting of one snapshot capture or restore: how much state
 * was deep-copied versus referenced through shared COW chunks or the
 * shared predecoded text.  The seed engine deep-copied the COW part of
 * total() too; the COW substrate copies only bytesCopied.
 */
struct SnapshotStats
{
    std::uint64_t bytesCopied = 0; ///< duplicated into private storage
    std::uint64_t bytesShared = 0; ///< referenced via shared COW chunks

    std::uint64_t total() const { return bytesCopied + bytesShared; }
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * Opaque, immutable checkpoint of the complete core state
     * (architectural + microarchitectural + memory hierarchy).
     * Capture shares the memory image and cache data arrays
     * copy-on-write, so both capture and copy are O(dirty state).
     * Cheap to copy (shared ownership); safe to restore from multiple
     * threads concurrently.
     */
    class Snapshot;

    Core(const isa::Program &prog, const CoreConfig &cfg,
         Probe *probe = nullptr);

    /**
     * Resume from @p snap instead of cycle 0.  @p prog must be the
     * program the snapshot was captured from (asserted).  Only the
     * watchdog / window knobs of @p cfg may differ from the snapshotted
     * configuration; structural parameters must match.  The restored
     * core never carries a probe.  @p stats, when given, receives the
     * restore's byte accounting; @p deep forces a full detach of all
     * COW state (the seed engine's deep-copy behaviour, kept for
     * benchmarking the substrate).
     */
    Core(const isa::Program &prog, const CoreConfig &cfg,
         const Snapshot &snap, SnapshotStats *stats = nullptr,
         bool deep = false);

    /**
     * Capture the full state of this core between ticks.  @p stats /
     * @p deep as on the restoring constructor.
     */
    Snapshot snapshot(SnapshotStats *stats = nullptr,
                      bool deep = false) const;

    /**
     * Deep state equality with the core stored in @p snap: memory and
     * cache data compare chunk-pointer-first, everything else
     * field-wise.  Probe-only bookkeeping (pending profiler reads) is
     * excluded — it never influences a probe-free run.  True means the
     * two cores are on identical future trajectories.
     */
    bool stateEquals(const Snapshot &snap) const;

    /** Advance one cycle; false once the run has terminated. */
    bool tick();

    /** Run to termination and return the architectural outcome. */
    isa::ArchResult run();

    bool finished() const { return finished_; }
    Cycle cycle() const { return cycle_; }
    const isa::ArchResult &result() const { return result_; }
    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }

    // ---- fault-injection hooks (GeFIN-style bit flips) ----
    void flipRegisterFileBit(EntryIndex reg, unsigned bit);
    void flipStoreQueueBit(EntryIndex slot, unsigned bit);
    void flipL1dBit(EntryIndex word, unsigned bit);

    /** Entry counts of the injectable structures. */
    unsigned numRegisterFileEntries() const { return cfg_.numPhysIntRegs; }
    unsigned numStoreQueueEntries() const { return cfg_.sqEntries; }
    unsigned numL1dWords() const { return cfg_.l1d.totalWords(); }

    /**
     * Attach a raw physical-effect listener (the replay effect-trace
     * recorder).  Must be attached AFTER construction — the
     * constructor's initialisation writes are the pre-run state, not
     * replayable effects — and before the first tick().  Snapshots
     * never carry the sink (it belongs to the recording run only).
     */
    void setEffectSink(EffectSink *sink);

    // ---- architectural state extraction (window-end comparison) ----
    /** Committed value of architectural register @p arch. */
    std::uint64_t archRegValue(unsigned arch) const;

    /**
     * Memory as the program would observe it: backing memory with all
     * dirty cache lines and committed-but-undrained stores applied.
     */
    isa::SegmentedMemory archMemoryView() const;

  private:
    /** Memberwise copy; callers must run fixupAfterCopy() on the copy. */
    Core(const Core &) = default;

    /** Reject restoring from a default-constructed (empty) snapshot. */
    static const Core &requireState(const Snapshot &snap);

    /** Re-target internal pointers after a memberwise copy. */
    void fixupAfterCopy();

    /** Field-wise equality against @p o (see stateEquals(Snapshot)). */
    bool stateEquals(const Core &o) const;

    /** Bytes a memberwise copy duplicates (non-COW members). */
    std::uint64_t deepStateBytes() const;

    /** Bytes a memberwise copy shares through COW chunks. */
    std::uint64_t cowStateBytes() const;

    /** Byte accounting of a capture or restore of this core's state. */
    void account(SnapshotStats &stats, bool deep) const;

    static constexpr std::uint16_t NO_PREG = 0xffff;
    /** Fetch stalls while this many uops wait to be renamed. */
    static constexpr unsigned FETCH_QUEUE_LIMIT = 32;

    struct PendingRead
    {
        Structure s;
        EntryIndex entry;
        Cycle cycle;
        std::uint8_t phase;

        bool operator==(const PendingRead &) const = default;
    };

    /**
     * Forwards L1D data-array events to the probe with phase context,
     * and raw masked events to the effect sink.
     */
    struct L1dSink : CacheEventSink
    {
        Core *core = nullptr;
        void onCacheWordWrite(EntryIndex word, Cycle cycle) override;
        void onCacheWordWritebackRead(EntryIndex word, Cycle cycle,
                                      Rip rip, Upc upc) override;
        void onCacheWordWriteMasked(EntryIndex word, std::uint8_t mask,
                                    Cycle cycle) override;
        void onCacheWordReadMasked(EntryIndex word, std::uint8_t mask,
                                   Cycle cycle) override;
    };
    friend struct L1dSink;

    /** Record a physical touch of a target structure, if recording. */
    void
    emitEffect(Structure s, EntryIndex entry, std::uint8_t mask,
               bool is_write)
    {
        if (esink_)
            esink_->onEffect(s, entry, cycle_, mask, is_write);
    }

    struct RobEntry
    {
        std::uint32_t gen = 0;
        SeqNum seq = 0;
        Rip rip = 0;
        Upc upc = 0;
        bool lastUop = true;
        isa::StaticUop su;

        std::uint16_t physDst = NO_PREG;
        std::uint16_t prevPhys = NO_PREG;
        std::uint16_t physSrc1 = NO_PREG;
        std::uint16_t physSrc2 = NO_PREG;

        bool done = false;
        bool inIq = false;
        isa::TrapKind trap = isa::TrapKind::None;
        std::uint64_t resultValue = 0;

        // Control flow.
        bool isCtrl = false;
        bool predTaken = false;
        bool actualTaken = false;
        Addr predTarget = 0;
        Addr actualTarget = 0;
        bool hasPredState = false;
        PredictionState predState;
        bool rasValid = false;
        Ras::Snapshot rasSnap{0, 0};

        // Memory.
        std::uint64_t storeSeq = 0;
        std::int32_t sqSlot = -1;
        bool isLoad = false;
        std::uint64_t loadOlderStoreSeq = 0; ///< youngest older store + 1

        // Output buffering (OUT commits architecturally).
        std::uint64_t outValue = 0;

        std::uint8_t nPending = 0;
        PendingRead pending[4];

        /**
         * Equality for the reconvergence check.  nPending / pending
         * are deliberately excluded: they exist only to feed a probe
         * at commit, injected cores never carry a probe, and the
         * profiled golden core records them while the probe-free
         * restored cores cannot — comparing them would make golden
         * checkpoints permanently unequal to any injected run.
         */
        bool
        operator==(const RobEntry &o) const
        {
            return gen == o.gen && seq == o.seq && rip == o.rip &&
                   upc == o.upc && lastUop == o.lastUop && su == o.su &&
                   physDst == o.physDst && prevPhys == o.prevPhys &&
                   physSrc1 == o.physSrc1 && physSrc2 == o.physSrc2 &&
                   done == o.done && inIq == o.inIq && trap == o.trap &&
                   resultValue == o.resultValue && isCtrl == o.isCtrl &&
                   predTaken == o.predTaken &&
                   actualTaken == o.actualTaken &&
                   predTarget == o.predTarget &&
                   actualTarget == o.actualTarget &&
                   hasPredState == o.hasPredState &&
                   predState == o.predState && rasValid == o.rasValid &&
                   rasSnap == o.rasSnap && storeSeq == o.storeSeq &&
                   sqSlot == o.sqSlot && isLoad == o.isLoad &&
                   loadOlderStoreSeq == o.loadOlderStoreSeq &&
                   outValue == o.outValue;
        }
    };

    struct SqEntry
    {
        bool valid = false;
        bool addrReady = false;
        bool dataReady = false;
        bool committed = false;
        Addr addr = 0;
        std::uint8_t size = 0;
        std::uint64_t storeSeq = 0;
        std::uint32_t robIdx = 0;
        SeqNum seqNum = 0;
        Rip rip = 0;
        Upc upc = 0;

        bool operator==(const SqEntry &) const = default;
    };

    struct FetchedUop
    {
        isa::StaticUop su;
        Rip rip = 0;
        Upc upc = 0;
        bool lastUop = true;
        Cycle readyAt = 0;
        isa::TrapKind fetchTrap = isa::TrapKind::None;
        // Prediction attached to the control uop of the macro.
        bool isCtrl = false;
        bool predTaken = false;
        Addr predTarget = 0;
        bool hasPredState = false;
        PredictionState predState;
        bool rasValid = false;
        Ras::Snapshot rasSnap{0, 0};

        bool operator==(const FetchedUop &) const = default;
    };

    /**
     * Fixed-capacity FIFO of fetched uops.  Fetch stops at
     * FETCH_QUEUE_LIMIT waiting uops and otherwise adds at most
     * fetchWidth macros, so FETCH_QUEUE_LIMIT + fetchWidth *
     * MAX_UOPS_PER_MACRO slots (rounded up to a power of two for mask
     * indexing) never overflow.  Equality is element-wise in queue
     * order, whatever the two rings' heads.
     */
    class UopRing
    {
      public:
        explicit UopRing(unsigned min_capacity);

        bool empty() const { return size_ == 0; }
        unsigned size() const { return size_; }
        FetchedUop &front() { return buf_[head_]; }
        /** Append a slot and return it (its old contents are stale). */
        FetchedUop &
        pushBack()
        {
            return buf_[(head_ + size_++) & mask_];
        }
        void
        popFront()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }
        void
        clear()
        {
            head_ = 0;
            size_ = 0;
        }
        /** Bytes a memberwise copy duplicates: the whole array. */
        std::uint64_t
        stateBytes() const
        {
            return buf_.size() * sizeof(FetchedUop);
        }
        bool operator==(const UopRing &o) const;

      private:
        std::vector<FetchedUop> buf_;
        unsigned mask_ = 0;
        unsigned head_ = 0;
        unsigned size_ = 0;
    };

    /** How fetch predicts a control-flow macro. */
    enum class CtrlClass : std::uint8_t
    {
        None,     ///< not control flow
        Cond,     ///< conditional branch: tournament predictor
        Direct,   ///< JMP / CALL: taken to the immediate
        Indirect, ///< JR / CALLR: RAS for returns, else BTB
    };

    /** One 8-byte text slot, decoded and expanded once. */
    struct TextSlot
    {
        isa::StaticUop uops[isa::MAX_UOPS_PER_MACRO];
        std::uint8_t n = 0; ///< uop count; 0 marks an illegal encoding
        CtrlClass ctrl = CtrlClass::None;
        bool halt = false;
        Addr target = 0; ///< direct target (the immediate, zero-extended)
    };

    /**
     * The text segment decoded once per program: a slot for every
     * 8-byte word up to the 64-byte-rounded segment end (the zero
     * padding included), plus what it was built from, so a restore
     * can check the snapshot's provenance.  Immutable; snapshots and
     * restored cores share it.
     */
    struct PredecodedText
    {
        explicit PredecodedText(const isa::Program &prog);

        /** The slot at @p pc, or null outside text or misaligned. */
        const TextSlot *
        at(Addr pc) const
        {
            const Addr off = pc - isa::layout::TEXT_BASE;
            if (off % isa::INSN_BYTES != 0 ||
                off / isa::INSN_BYTES >= slots.size()) {
                return nullptr;
            }
            return &slots[off / isa::INSN_BYTES];
        }

        /** True if @p prog is the program this table was built from. */
        bool builtFrom(const isa::Program &prog) const;

        std::uint64_t
        bytes() const
        {
            return slots.size() * sizeof(TextSlot) + text.size();
        }

        std::string name;
        Addr entry;
        std::vector<std::uint8_t> text;
        std::size_t dataBytes;
        std::uint64_t bssSize;
        std::vector<TextSlot> slots;
    };

    /** A load's address and memory-ordering check, made at issue. */
    struct LoadCheck
    {
        Addr addr = 0;
        isa::TrapKind trap = isa::TrapKind::None;
        bool forward = false; ///< an older store supplies every byte
        std::uint8_t fwdMask = 0;
        std::uint32_t fwdSlot = 0;
        std::uint64_t fwdValue = 0;
    };

    struct Completion
    {
        Cycle cycle;
        SeqNum seq;
        std::uint32_t robIdx;
        std::uint32_t gen;
        bool
        operator>(const Completion &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }

        bool operator==(const Completion &) const = default;
    };

    // Stages.
    void stageCommit();
    void stageDrainStores();
    void stageWriteback();
    void stageIssue();
    void stageRename();
    void stageFetch();

    // Helpers.
    bool robFull() const { return robTailSeq_ - robHeadSeq_ >= cfg_.robEntries; }
    bool robEmpty() const { return robTailSeq_ == robHeadSeq_; }
    std::uint32_t
    nextRobIdx(std::uint32_t idx) const
    {
        return idx + 1 == cfg_.robEntries ? 0 : idx + 1;
    }

    void pushFetchTrap(isa::TrapKind kind);
    /** Execute @p e; @p ld is its issue-time check if it is a load. */
    void executeUop(RobEntry &e, const LoadCheck &ld);
    /**
     * Scan the stores older than load @p e for @p ld.addr; true if
     * the load must wait.  Fills @p ld's forwarding fields and emits
     * the forwarded bytes' SQ read effect.
     */
    bool loadBlocked(const RobEntry &e, unsigned size, LoadCheck &ld);
    void scheduleCompletion(RobEntry &e, Cycle when);
    void squashAfter(std::uint32_t branch_idx, Addr redirect_to);
    void terminate(isa::TerminateReason reason, int exit_code);
    void raiseTrapAtCommit(RobEntry &e);
    void addPendingRead(RobEntry &e, Structure s, EntryIndex entry,
                        Cycle cycle, std::uint8_t phase);
    std::uint64_t readPhysReg(RobEntry &e, std::uint16_t preg);

    CoreConfig cfg_;
    Probe *probe_;
    EffectSink *esink_ = nullptr;

    // Memory system.
    isa::SegmentedMemory mem_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;

    // Branch prediction.
    TournamentPredictor tournament_;
    Btb btb_;
    Ras ras_;

    // Register machinery.
    std::vector<std::uint64_t> prf_;
    std::vector<std::uint8_t> prfReady_;
    std::vector<std::uint16_t> freeList_;
    std::uint16_t renameMap_[isa::NUM_RENAMEABLE_REGS];
    std::uint16_t commitMap_[isa::NUM_RENAMEABLE_REGS];

    // Window.  The slot indices track robHeadSeq_ / robTailSeq_ modulo
    // robEntries, so they are never compared: the sequence numbers are.
    std::vector<RobEntry> rob_;
    SeqNum robHeadSeq_ = 0;
    SeqNum robTailSeq_ = 0;
    std::uint32_t robHeadIdx_ = 0;
    std::uint32_t robTailIdx_ = 0;
    std::vector<std::uint32_t> iq_; ///< rob indices, program order
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions_;

    // LSQ.
    std::vector<SqEntry> sq_;
    std::vector<std::uint64_t> sqData_; ///< persistent data-field storage
    std::uint64_t sqNextSeq_ = 0;
    std::uint64_t sqHeadSeq_ = 0;
    unsigned lqOccupancy_ = 0;

    // Frontend.
    std::shared_ptr<const PredecodedText> text_;
    Addr fetchPc_;
    Cycle fetchResumeCycle_ = 0;
    bool fetchHalted_ = false; ///< stop fetching until redirect
    UopRing uopQueue_;

    // Execution resources.
    std::vector<Cycle> divBusyUntil_;

    // Probe plumbing for L1D data-array events.
    L1dSink l1dSink_;
    std::uint8_t l1dWbReadPhase_ = phase::L1dIssueWbRead;
    std::uint8_t l1dWritePhase_ = phase::L1dIssueWrite;
    SeqNum l1dCtxSeq_ = 0;

    // Run state.
    Cycle cycle_ = 0;
    Cycle lastCommitCycle_ = 0;
    SeqNum nextSeq_ = 0;
    bool finished_ = false;
    isa::ArchResult result_;
    CoreStats stats_;
};

class Core::Snapshot
{
  public:
    Snapshot() = default;

    /** Cycle at which the state was captured. */
    Cycle cycle() const { return cycle_; }
    bool valid() const { return state_ != nullptr; }

  private:
    friend class Core;
    std::shared_ptr<const Core> state_;
    Cycle cycle_ = 0;
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_CORE_HH
