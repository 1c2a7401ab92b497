#include "uarch/core.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <tuple>
#include <vector>

#include "base/bits.hh"
#include "base/logging.hh"
#include "isa/exec.hh"

namespace merlin::uarch
{

using isa::Opcode;
using isa::StaticUop;
using isa::TrapKind;
using isa::UopKind;

// ------------------------------------------------------------ frontend data

Core::UopRing::UopRing(unsigned min_capacity)
    : buf_(std::bit_ceil(min_capacity)),
      mask_(static_cast<unsigned>(buf_.size()) - 1)
{}

bool
Core::UopRing::operator==(const UopRing &o) const
{
    if (size_ != o.size_)
        return false;
    for (unsigned i = 0; i < size_; ++i) {
        if (!(buf_[(head_ + i) & mask_] == o.buf_[(o.head_ + i) & o.mask_]))
            return false;
    }
    return true;
}

Core::PredecodedText::PredecodedText(const isa::Program &prog)
    : name(prog.name), entry(prog.entry), text(prog.text),
      dataBytes(prog.data.size()), bssSize(prog.bssSize)
{
    // The text segment as Program::buildMemory maps it: rounded up to
    // a cache line, zero-filled past the image.
    std::vector<std::uint8_t> image(text);
    image.resize((image.size() + 63) & ~std::size_t(63), 0);
    slots.resize(image.size() / isa::INSN_BYTES);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        TextSlot &slot = slots[i];
        const auto insn =
            isa::decode(loadLE(&image[i * isa::INSN_BYTES], isa::INSN_BYTES));
        if (!insn)
            continue; // n == 0: traps as illegal when fetched
        const Addr pc = isa::layout::TEXT_BASE + i * isa::INSN_BYTES;
        slot.n = static_cast<std::uint8_t>(isa::expand(*insn, pc, slot.uops));
        slot.halt = insn->op == Opcode::HALT;
        slot.target = static_cast<std::uint32_t>(insn->imm);
        if (isa::isCondBranch(insn->op))
            slot.ctrl = CtrlClass::Cond;
        else if (insn->op == Opcode::JMP || insn->op == Opcode::CALL)
            slot.ctrl = CtrlClass::Direct;
        else if (isa::isControlFlow(insn->op))
            slot.ctrl = CtrlClass::Indirect;
    }
}

bool
Core::PredecodedText::builtFrom(const isa::Program &prog) const
{
    return prog.entry == entry && prog.data.size() == dataBytes &&
           prog.bssSize == bssSize && prog.name == name && prog.text == text;
}

Core::Core(const isa::Program &prog, const CoreConfig &cfg, Probe *probe)
    : cfg_(cfg),
      probe_(probe),
      mem_(prog.buildMemory(cfg.memChunkBytes)),
      l2_("l2", cfg.l2, nullptr, &mem_, cfg.memChunkBytes),
      l1i_("l1i", cfg.l1i, &l2_, nullptr, cfg.memChunkBytes),
      l1d_("l1d", cfg.l1d, &l2_, nullptr, cfg.memChunkBytes),
      tournament_(cfg),
      btb_(cfg.btbEntries),
      ras_(cfg.rasEntries),
      text_(std::make_shared<const PredecodedText>(prog)),
      fetchPc_(prog.entry),
      uopQueue_(FETCH_QUEUE_LIMIT + cfg.fetchWidth * isa::MAX_UOPS_PER_MACRO)
{
    MERLIN_ASSERT(cfg_.numPhysIntRegs > isa::NUM_RENAMEABLE_REGS,
                  "need more physical than architectural registers");
    l2_.setMemLatency(cfg_.memLatency);

    prf_.assign(cfg_.numPhysIntRegs, 0);
    prfReady_.assign(cfg_.numPhysIntRegs, 1);
    for (unsigned i = 0; i < isa::NUM_RENAMEABLE_REGS; ++i) {
        renameMap_[i] = static_cast<std::uint16_t>(i);
        commitMap_[i] = static_cast<std::uint16_t>(i);
    }
    prf_[isa::REG_SP] = isa::layout::STACK_TOP;
    // Initial architectural state is a physical write at cycle 0.
    if (probe_) {
        for (unsigned i = 0; i < isa::NUM_RENAMEABLE_REGS; ++i)
            probe_->onWrite(Structure::RegisterFile, i, 0, phase::Init);
        l1dSink_.core = this;
        l1d_.setEventSink(&l1dSink_);
    }
    freeList_.reserve(cfg_.numPhysIntRegs);
    for (unsigned p = cfg_.numPhysIntRegs;
         p-- > isa::NUM_RENAMEABLE_REGS;) {
        freeList_.push_back(static_cast<std::uint16_t>(p));
    }

    rob_.assign(cfg_.robEntries, RobEntry{});
    iq_.reserve(cfg_.iqEntries);
    sq_.assign(cfg_.sqEntries, SqEntry{});
    sqData_.assign(cfg_.sqEntries, 0);
    divBusyUntil_.assign(cfg_.complexCount, 0);
}

// ---------------------------------------------------- snapshot / restore

void
Core::fixupAfterCopy()
{
    // Restored cores never profile: the probe belongs to the golden
    // run, and so does the effect-trace sink.
    probe_ = nullptr;
    esink_ = nullptr;
    l2_.repoint(nullptr, &mem_);
    l1i_.repoint(&l2_, nullptr);
    l1d_.repoint(&l2_, nullptr);
    l1dSink_.core = this;
}

std::uint64_t
Core::deepStateBytes() const
{
    // Everything a memberwise copy duplicates byte-for-byte: the
    // register machinery, the window, the LSQ, the frontend, predictor
    // tables, cache tag/LRU metadata, and the COW chunk-pointer tables
    // themselves.
    std::uint64_t n = 0;
    n += prf_.size() * sizeof(std::uint64_t);
    n += prfReady_.size();
    n += freeList_.size() * sizeof(std::uint16_t);
    n += sizeof(renameMap_) + sizeof(commitMap_);
    n += rob_.size() * sizeof(RobEntry);
    n += iq_.size() * sizeof(std::uint32_t);
    n += completions_.size() * sizeof(Completion);
    n += sq_.size() * sizeof(SqEntry);
    n += sqData_.size() * sizeof(std::uint64_t);
    n += uopQueue_.stateBytes();
    n += divBusyUntil_.size() * sizeof(Cycle);
    n += tournament_.stateBytes() + btb_.stateBytes() + ras_.stateBytes();
    n += l2_.metaBytes() + l1i_.metaBytes() + l1d_.metaBytes();
    n += (mem_.contentBytes() / mem_.chunkBytes() + 4) * sizeof(void *);
    n += result_.output.size() +
         result_.traps.size() * sizeof(isa::TrapEvent);
    return n;
}

std::uint64_t
Core::cowStateBytes() const
{
    return mem_.contentBytes() + l2_.dataBytes() + l1i_.dataBytes() +
           l1d_.dataBytes();
}

void
Core::account(SnapshotStats &stats, bool deep) const
{
    // The predecoded text is immutable and never copied, not even by a
    // deep copy: it is shared in both modes.
    stats.bytesCopied = deepStateBytes() + (deep ? cowStateBytes() : 0);
    stats.bytesShared = (deep ? 0 : cowStateBytes()) + text_->bytes();
}

Core::Snapshot
Core::snapshot(SnapshotStats *stats, bool deep) const
{
    auto copy = std::shared_ptr<Core>(new Core(*this));
    copy->fixupAfterCopy();
    if (deep) {
        copy->mem_.detachAll();
        copy->l2_.detachData();
        copy->l1i_.detachData();
        copy->l1d_.detachData();
    }
    if (stats)
        account(*stats, deep);
    Snapshot s;
    s.state_ = std::move(copy);
    s.cycle_ = cycle_;
    return s;
}

const Core &
Core::requireState(const Snapshot &snap)
{
    MERLIN_ASSERT(snap.valid(), "restore from an empty snapshot");
    return *snap.state_;
}

Core::Core(const isa::Program &prog, const CoreConfig &cfg,
           const Snapshot &snap, SnapshotStats *stats, bool deep)
    : Core(requireState(snap))
{
    // The snapshot's memory embeds the program it ran; its predecoded
    // text records which one.
    MERLIN_ASSERT(text_->builtFrom(prog), "restoring a snapshot of '",
                  text_->name, "' into program '", prog.name, "'");
    fixupAfterCopy();
    MERLIN_ASSERT(cfg.numPhysIntRegs == cfg_.numPhysIntRegs &&
                      cfg.sqEntries == cfg_.sqEntries &&
                      cfg.lqEntries == cfg_.lqEntries &&
                      cfg.robEntries == cfg_.robEntries &&
                      cfg.iqEntries == cfg_.iqEntries &&
                      cfg.l1d.sizeBytes == cfg_.l1d.sizeBytes &&
                      cfg.l1i.sizeBytes == cfg_.l1i.sizeBytes &&
                      cfg.l2.sizeBytes == cfg_.l2.sizeBytes &&
                      cfg.memChunkBytes == cfg_.memChunkBytes,
                  "snapshot restore with mismatched structural config");
    // Run-limit knobs are the only configuration allowed to change
    // between capture and restore (the injector tightens maxCycles).
    cfg_.maxCycles = cfg.maxCycles;
    cfg_.deadlockCycles = cfg.deadlockCycles;
    cfg_.instructionWindowEnd = cfg.instructionWindowEnd;
    if (deep) {
        mem_.detachAll();
        l2_.detachData();
        l1i_.detachData();
        l1d_.detachData();
    }
    if (stats)
        account(*stats, deep);
}

// ------------------------------------------------------ state equality

bool
Core::stateEquals(const Snapshot &snap) const
{
    return stateEquals(requireState(snap));
}

bool
Core::stateEquals(const Core &o) const
{
    // Cheapest and most-divergence-prone state first, so runs that
    // have not reconverged bail out early; the big COW arrays compare
    // last and mostly by chunk identity.
    if (cycle_ != o.cycle_ || lastCommitCycle_ != o.lastCommitCycle_ ||
        nextSeq_ != o.nextSeq_ || finished_ != o.finished_ ||
        robHeadSeq_ != o.robHeadSeq_ || robTailSeq_ != o.robTailSeq_ ||
        sqNextSeq_ != o.sqNextSeq_ || sqHeadSeq_ != o.sqHeadSeq_ ||
        lqOccupancy_ != o.lqOccupancy_ || fetchPc_ != o.fetchPc_ ||
        fetchResumeCycle_ != o.fetchResumeCycle_ ||
        fetchHalted_ != o.fetchHalted_ ||
        l1dWbReadPhase_ != o.l1dWbReadPhase_ ||
        l1dWritePhase_ != o.l1dWritePhase_ ||
        l1dCtxSeq_ != o.l1dCtxSeq_) {
        return false;
    }
    if (!(stats_ == o.stats_) || !(result_ == o.result_))
        return false;
    if (prf_ != o.prf_ || prfReady_ != o.prfReady_ ||
        freeList_ != o.freeList_ ||
        !std::equal(std::begin(renameMap_), std::end(renameMap_),
                    std::begin(o.renameMap_)) ||
        !std::equal(std::begin(commitMap_), std::end(commitMap_),
                    std::begin(o.commitMap_))) {
        return false;
    }
    if (sqData_ != o.sqData_ || sq_ != o.sq_)
        return false;
    if (rob_ != o.rob_ || iq_ != o.iq_ || uopQueue_ != o.uopQueue_ ||
        divBusyUntil_ != o.divBusyUntil_) {
        return false;
    }
    // In-flight completions: the heap's internal layout depends on
    // insertion history, so compare the two queues as multisets.
    if (completions_.size() != o.completions_.size())
        return false;
    {
        const auto drain = [](auto q) {
            std::vector<Completion> v;
            v.reserve(q.size());
            while (!q.empty()) {
                v.push_back(q.top());
                q.pop();
            }
            // top() ordering ties on (cycle, seq); break them fully.
            std::sort(v.begin(), v.end(),
                      [](const Completion &a, const Completion &b) {
                          return std::tie(a.cycle, a.seq, a.robIdx,
                                          a.gen) <
                                 std::tie(b.cycle, b.seq, b.robIdx,
                                          b.gen);
                      });
            return v;
        };
        if (drain(completions_) != drain(o.completions_))
            return false;
    }
    if (!tournament_.stateEquals(o.tournament_) ||
        !btb_.stateEquals(o.btb_) || !ras_.stateEquals(o.ras_)) {
        return false;
    }
    return l1d_.stateEquals(o.l1d_) && l1i_.stateEquals(o.l1i_) &&
           l2_.stateEquals(o.l2_) && mem_.contentEquals(o.mem_);
}

// ---------------------------------------------------------------- faults

void
Core::flipRegisterFileBit(EntryIndex reg, unsigned bit)
{
    MERLIN_ASSERT(reg < prf_.size() && bit < 64, "RF flip out of range");
    prf_[reg] ^= 1ULL << bit;
}

void
Core::flipStoreQueueBit(EntryIndex slot, unsigned bit)
{
    MERLIN_ASSERT(slot < sqData_.size() && bit < 64,
                  "SQ flip out of range");
    sqData_[slot] ^= 1ULL << bit;
}

void
Core::flipL1dBit(EntryIndex word, unsigned bit)
{
    l1d_.flipBit(word, bit);
}

// ----------------------------------------------------------- arch state

std::uint64_t
Core::archRegValue(unsigned arch) const
{
    MERLIN_ASSERT(arch < isa::NUM_RENAMEABLE_REGS, "bad arch reg");
    return prf_[commitMap_[arch]];
}

isa::SegmentedMemory
Core::archMemoryView() const
{
    isa::SegmentedMemory view = mem_;
    l2_.applyDirtyLines(view);
    l1d_.applyDirtyLines(view);
    // Committed but undrained stores are architecturally performed.
    for (std::uint64_t s = sqHeadSeq_; s < sqNextSeq_; ++s) {
        const SqEntry &q = sq_[s % cfg_.sqEntries];
        if (q.valid && q.committed) {
            view.write(q.addr, q.size,
                       sqData_[s % cfg_.sqEntries]);
        }
    }
    return view;
}

// -------------------------------------------------------------- helpers

void
Core::addPendingRead(RobEntry &e, Structure s, EntryIndex entry,
                     Cycle cycle, std::uint8_t ph)
{
    if (!probe_)
        return;
    MERLIN_ASSERT(e.nPending < 4, "pending read overflow");
    e.pending[e.nPending++] = PendingRead{s, entry, cycle, ph};
}

std::uint64_t
Core::readPhysReg(RobEntry &e, std::uint16_t preg)
{
    addPendingRead(e, Structure::RegisterFile, preg, cycle_,
                   phase::RegRead);
    emitEffect(Structure::RegisterFile, preg, 0xff, false);
    return prf_[preg];
}

void
Core::setEffectSink(EffectSink *sink)
{
    esink_ = sink;
    if (esink_) {
        l1dSink_.core = this;
        l1d_.setEventSink(&l1dSink_);
    }
}

void
Core::L1dSink::onCacheWordWrite(EntryIndex word, Cycle cycle)
{
    if (core->probe_) {
        core->probe_->onWrite(Structure::L1DCache, word, cycle,
                              core->l1dWritePhase_);
    }
}

void
Core::L1dSink::onCacheWordWritebackRead(EntryIndex word, Cycle cycle,
                                        Rip rip, Upc upc)
{
    if (core->probe_) {
        core->probe_->onCommittedRead(Structure::L1DCache, word, cycle,
                                      core->l1dWbReadPhase_, rip, upc,
                                      core->l1dCtxSeq_);
    }
}

void
Core::L1dSink::onCacheWordWriteMasked(EntryIndex word, std::uint8_t mask,
                                      Cycle /*cycle*/)
{
    core->emitEffect(Structure::L1DCache, word, mask, true);
}

void
Core::L1dSink::onCacheWordReadMasked(EntryIndex word, std::uint8_t mask,
                                     Cycle /*cycle*/)
{
    core->emitEffect(Structure::L1DCache, word, mask, false);
}

void
Core::scheduleCompletion(RobEntry &e, Cycle when)
{
    completions_.push(Completion{
        when, e.seq, static_cast<std::uint32_t>(&e - rob_.data()), e.gen});
}

void
Core::terminate(isa::TerminateReason reason, int exit_code)
{
    result_.reason = reason;
    result_.exitCode = exit_code;
    result_.instret = stats_.instret;
    result_.uopsRetired = stats_.uopsRetired;
    finished_ = true;
}

void
Core::raiseTrapAtCommit(RobEntry &e)
{
    result_.traps.push_back(isa::TrapEvent{e.trap, e.rip});
    terminate(isa::TerminateReason::Trapped,
              128 + static_cast<int>(e.trap));
}

// ---------------------------------------------------------------- fetch

void
Core::pushFetchTrap(TrapKind kind)
{
    FetchedUop &f = uopQueue_.pushBack();
    f = FetchedUop{};
    f.rip = fetchPc_;
    f.fetchTrap = kind;
    f.readyAt = cycle_ + cfg_.frontendDepth;
    fetchHalted_ = true;
}

void
Core::stageFetch()
{
    if (fetchHalted_ || cycle_ < fetchResumeCycle_)
        return;
    if (uopQueue_.size() >= FETCH_QUEUE_LIMIT)
        return;

    const Cycle ready_at = cycle_ + cfg_.frontendDepth;
    for (unsigned fetched = 0; fetched < cfg_.fetchWidth; ++fetched) {
        // Mapping / alignment check: only the text segment is
        // executable.
        const TextSlot *slot = text_->at(fetchPc_);
        if (!slot) {
            pushFetchTrap(TrapKind::PcOutOfText);
            return;
        }

        Cache::AccessResult ar =
            l1i_.access(fetchPc_, false, cycle_, fetchPc_, 0);
        if (!ar.hit) {
            // Line is now resident; retry once the fill completes.
            fetchResumeCycle_ = cycle_ + ar.latency;
            return;
        }
        // The L1I holds exactly Program::text (see the file comment),
        // so the predecoded slot is what decoding its bytes would give.
        if (slot->n == 0) {
            pushFetchTrap(TrapKind::IllegalInstruction);
            return;
        }
        const unsigned n = slot->n;
        const Addr fall = fetchPc_ + isa::INSN_BYTES;

        // Branch prediction for control-flow macros (control uop is
        // always the last uop of its macro).
        const bool is_ctrl = slot->ctrl != CtrlClass::None;
        bool pred_taken = false;
        Addr pred_target = fall;
        bool has_pred_state = false;
        PredictionState pred_state;
        bool ras_valid = false;
        Ras::Snapshot ras_snap{0, 0};

        if (is_ctrl) {
            const StaticUop &ctrl = slot->uops[n - 1];
            if (slot->ctrl == CtrlClass::Cond) {
                pred_state = tournament_.predict(fetchPc_);
                has_pred_state = true;
                pred_taken = pred_state.taken;
                pred_target = pred_taken ? slot->target : fall;
            } else if (slot->ctrl == CtrlClass::Direct) {
                pred_taken = true;
                pred_target = slot->target;
            } else {
                // Indirect: JR or CALLR.
                pred_taken = true;
                if (ctrl.isReturn) {
                    ras_snap = ras_.snapshot();
                    ras_valid = true;
                    pred_target = ras_.pop();
                } else {
                    auto t = btb_.lookup(fetchPc_);
                    pred_target = t ? *t : fall;
                }
            }
            if (ctrl.isCall) {
                if (!ras_valid) {
                    ras_snap = ras_.snapshot();
                    ras_valid = true;
                }
                ras_.push(fall);
            }
        }

        for (unsigned i = 0; i < n; ++i) {
            FetchedUop &f = uopQueue_.pushBack();
            f.su = slot->uops[i];
            f.rip = fetchPc_;
            f.upc = static_cast<Upc>(i);
            f.lastUop = (i == n - 1);
            f.readyAt = ready_at;
            f.fetchTrap = TrapKind::None;
            const bool carries_pred = is_ctrl && i == n - 1;
            f.isCtrl = carries_pred;
            f.predTaken = carries_pred && pred_taken;
            f.predTarget = carries_pred ? pred_target : 0;
            f.hasPredState = carries_pred && has_pred_state;
            f.predState = carries_pred ? pred_state : PredictionState{};
            f.rasValid = carries_pred && ras_valid;
            f.rasSnap = carries_pred ? ras_snap : Ras::Snapshot{0, 0};
        }

        if (slot->halt) {
            fetchHalted_ = true;
            return;
        }
        fetchPc_ = is_ctrl ? pred_target : fall;
        if (is_ctrl && pred_target != fall)
            return; // a predicted-taken branch ends the fetch group
    }
}

// --------------------------------------------------------------- rename

void
Core::stageRename()
{
    for (unsigned n = 0; n < cfg_.renameWidth && !uopQueue_.empty(); ++n) {
        FetchedUop &f = uopQueue_.front();
        if (f.readyAt > cycle_ || robFull())
            return;

        const bool is_store = f.su.kind == UopKind::Store;
        const bool is_load = f.su.kind == UopKind::Load;
        const bool needs_iq = f.fetchTrap == TrapKind::None &&
                              f.su.kind != UopKind::Nop &&
                              f.su.kind != UopKind::Halt;

        if (needs_iq && iq_.size() >= cfg_.iqEntries)
            return;
        if (is_store && sqNextSeq_ - sqHeadSeq_ >= cfg_.sqEntries)
            return;
        if (is_load && lqOccupancy_ >= cfg_.lqEntries)
            return;
        if (f.su.dst != isa::REG_NONE && freeList_.empty())
            return;

        const SeqNum seq = robTailSeq_++;
        const std::uint32_t idx = robTailIdx_;
        robTailIdx_ = nextRobIdx(idx);
        // Every field is written below (no RobEntry{} re-zeroing: the
        // pending-read log is only read up to nPending).
        RobEntry &e = rob_[idx];
        ++e.gen;
        e.seq = seq;
        e.rip = f.rip;
        e.upc = f.upc;
        e.lastUop = f.lastUop;
        e.su = f.su;
        e.physDst = NO_PREG;
        e.prevPhys = NO_PREG;
        e.physSrc1 = f.su.src1 != isa::REG_NONE ? renameMap_[f.su.src1]
                                                : NO_PREG;
        e.physSrc2 = f.su.src2 != isa::REG_NONE ? renameMap_[f.su.src2]
                                                : NO_PREG;
        e.done = !needs_iq;
        e.inIq = false;
        e.trap = f.fetchTrap;
        e.resultValue = 0;
        e.isCtrl = f.isCtrl;
        e.predTaken = f.predTaken;
        e.actualTaken = false;
        e.predTarget = f.predTarget;
        e.actualTarget = 0;
        e.hasPredState = f.hasPredState;
        e.predState = f.predState;
        e.rasValid = f.rasValid;
        e.rasSnap = f.rasSnap;
        e.storeSeq = 0;
        e.sqSlot = -1;
        e.isLoad = is_load;
        e.loadOlderStoreSeq = is_load ? sqNextSeq_ : 0;
        e.outValue = 0;
        e.nPending = 0;

        if (f.su.dst != isa::REG_NONE) {
            e.physDst = freeList_.back();
            freeList_.pop_back();
            e.prevPhys = renameMap_[f.su.dst];
            renameMap_[f.su.dst] = e.physDst;
            prfReady_[e.physDst] = 0;
        }

        if (is_store) {
            e.storeSeq = sqNextSeq_;
            e.sqSlot = static_cast<std::int32_t>(sqNextSeq_ %
                                                 cfg_.sqEntries);
            SqEntry &q = sq_[e.sqSlot];
            q = SqEntry{};
            q.valid = true;
            q.storeSeq = sqNextSeq_;
            q.robIdx = idx;
            q.seqNum = seq;
            q.rip = f.rip;
            q.upc = f.upc;
            ++sqNextSeq_;
        }
        if (is_load)
            ++lqOccupancy_;

        if (needs_iq)
            iq_.push_back(idx);

        uopQueue_.popFront();
    }
}

// ---------------------------------------------------------------- issue

bool
Core::loadBlocked(const RobEntry &e, unsigned size, LoadCheck &ld)
{
    const Addr addr = ld.addr;
    ld.forward = false;
    if (e.loadOlderStoreSeq <= sqHeadSeq_)
        return false;
    // Scan older stores youngest-first; the closest overlap decides.
    std::uint32_t slot = static_cast<std::uint32_t>(
        (e.loadOlderStoreSeq - 1) % cfg_.sqEntries);
    for (std::uint64_t s = e.loadOlderStoreSeq; s-- > sqHeadSeq_;
         slot = slot == 0 ? cfg_.sqEntries - 1 : slot - 1) {
        const SqEntry &q = sq_[slot];
        if (!q.valid)
            continue; // squash hole (only transiently possible)
        if (!q.addrReady)
            return true; // unknown older address: conservative block
        const bool overlap =
            q.addr < addr + size && addr < q.addr + q.size;
        if (!overlap)
            continue;
        if (!q.dataReady)
            return true;
        const bool contained =
            addr >= q.addr && addr + size <= q.addr + q.size;
        if (!contained)
            return true; // partial overlap: wait for drain
        const unsigned shift =
            static_cast<unsigned>(addr - q.addr) * 8;
        ld.fwdMask = static_cast<std::uint8_t>(
            (size >= 8 ? 0xffu : (1u << size) - 1u) << (shift / 8));
        // Physical consumption of the SQ data field — recorded even
        // when the load ends up not issuing this cycle (a conservative
        // over-report; see EffectSink).
        emitEffect(Structure::StoreQueue, slot, ld.fwdMask, false);
        std::uint64_t v = sqData_[slot] >> shift;
        if (size < 8)
            v &= (1ULL << (size * 8)) - 1;
        ld.fwdValue = v;
        ld.fwdSlot = slot;
        ld.forward = true;
        return false;
    }
    return false;
}

void
Core::executeUop(RobEntry &e, const LoadCheck &ld)
{
    const StaticUop &su = e.su;
    switch (su.kind) {
      case UopKind::Alu:
      case UopKind::Mul:
      case UopKind::Div: {
        std::uint64_t a = 0;
        std::uint64_t b;
        if (e.physSrc1 != NO_PREG)
            a = readPhysReg(e, e.physSrc1);
        if (e.physSrc2 != NO_PREG) {
            b = readPhysReg(e, e.physSrc2);
        } else if (su.base == Opcode::MOVHI) {
            b = static_cast<std::uint32_t>(su.imm);
        } else {
            b = static_cast<std::uint64_t>(su.imm);
        }
        isa::AluResult r = isa::aluCompute(su.base, a, b);
        if (r.divByZero)
            e.trap = TrapKind::DivZero;
        e.resultValue = r.value;
        const unsigned lat = su.kind == UopKind::Alu ? cfg_.aluLatency
                             : su.kind == UopKind::Mul ? cfg_.mulLatency
                                                       : cfg_.divLatency;
        scheduleCompletion(e, cycle_ + lat);
        break;
      }

      case UopKind::Branch: {
        const std::uint64_t a = readPhysReg(e, e.physSrc1);
        const std::uint64_t b = readPhysReg(e, e.physSrc2);
        e.actualTaken = isa::branchTaken(su.base, a, b);
        e.actualTarget = e.actualTaken
                             ? static_cast<std::uint32_t>(su.imm)
                             : e.rip + isa::INSN_BYTES;
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Jump: {
        e.actualTaken = true;
        if (su.base == Opcode::JMP) {
            e.actualTarget = static_cast<std::uint32_t>(su.imm);
        } else {
            e.actualTarget = readPhysReg(e, e.physSrc1);
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Load: {
        // Address, permission and ordering were checked at issue this
        // cycle; executing re-reads the base register and the
        // forwarded SQ bytes, and the effect trace records both again.
        ++stats_.loadsExecuted;
        const Addr addr = ld.addr;
        addPendingRead(e, Structure::RegisterFile, e.physSrc1, cycle_,
                       phase::RegRead);
        emitEffect(Structure::RegisterFile, e.physSrc1, 0xff, false);
        if (ld.trap != TrapKind::None) {
            e.trap = ld.trap;
            scheduleCompletion(e, cycle_ + 1);
            break;
        }
        std::uint64_t value = 0;
        Cycle done_at;
        if (ld.forward) {
            emitEffect(Structure::StoreQueue, ld.fwdSlot, ld.fwdMask, false);
            value = ld.fwdValue;
            ++stats_.storeForwards;
            addPendingRead(e, Structure::StoreQueue, ld.fwdSlot, cycle_,
                           phase::SqForwardRead);
            done_at = cycle_ + cfg_.forwardLatency;
        } else {
            l1dWbReadPhase_ = phase::L1dIssueWbRead;
            l1dWritePhase_ = phase::L1dIssueWrite;
            l1dCtxSeq_ = e.seq;
            Cache::AccessResult ar =
                l1d_.access(addr, false, cycle_, e.rip, e.upc);
            const std::uint32_t off = static_cast<std::uint32_t>(
                addr & (cfg_.l1d.lineSize - 1));
            value = l1d_.readBytes(ar.set, ar.way, off, su.memSize);
            addPendingRead(e, Structure::L1DCache,
                           l1d_.wordIndex(ar.set, ar.way, off), cycle_,
                           phase::L1dLoadRead);
            if (esink_) {
                // Exact bytes consumed, per touched word (a load may
                // straddle an 8-byte word boundary).
                for (std::uint32_t b = off; b < off + su.memSize;) {
                    const std::uint32_t run = std::min<std::uint32_t>(
                        off + su.memSize, (b & ~7u) + 8);
                    std::uint8_t mask = 0;
                    for (std::uint32_t i = b; i < run; ++i)
                        mask |= static_cast<std::uint8_t>(1u << (i & 7u));
                    emitEffect(Structure::L1DCache,
                               l1d_.wordIndex(ar.set, ar.way, b), mask,
                               false);
                    b = run;
                }
            }
            done_at = cycle_ + ar.latency;
            ar.hit ? ++stats_.l1dHits : ++stats_.l1dMisses;
        }
        if (su.loadSigned) {
            value = static_cast<std::uint64_t>(
                signExtend(value, su.memSize * 8));
        }
        e.resultValue = value;
        scheduleCompletion(e, done_at);
        break;
      }

      case UopKind::Store: {
        const Addr addr = readPhysReg(e, e.physSrc1) + su.imm;
        const std::uint64_t data = readPhysReg(e, e.physSrc2);
        SqEntry &q = sq_[e.sqSlot];
        const TrapKind t = mem_.check(addr, su.memSize, true);
        if (t != TrapKind::None) {
            e.trap = t;
        } else {
            q.addr = addr;
            q.size = su.memSize;
            q.addrReady = true;
            sqData_[e.sqSlot] = data;
            q.dataReady = true;
            emitEffect(Structure::StoreQueue,
                       static_cast<EntryIndex>(e.sqSlot), 0xff, true);
            if (probe_) {
                probe_->onWrite(Structure::StoreQueue,
                                static_cast<EntryIndex>(e.sqSlot), cycle_,
                                phase::SqWrite);
            }
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Out: {
        e.outValue = readPhysReg(e, e.physSrc2);
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Trap: {
        const std::uint64_t a = readPhysReg(e, e.physSrc1);
        if (a != 0)
            e.trap = TrapKind::DetectedError;
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      default:
        panic("executeUop: unexpected uop kind");
    }
}

void
Core::stageIssue()
{
    unsigned issued = 0;
    unsigned alu_used = 0;
    unsigned complex_used = 0;
    unsigned mem_used = 0;

    for (auto it = iq_.begin();
         it != iq_.end() && issued < cfg_.issueWidth;) {
        RobEntry &e = rob_[*it];
        const bool ready =
            (e.physSrc1 == NO_PREG || prfReady_[e.physSrc1]) &&
            (e.physSrc2 == NO_PREG || prfReady_[e.physSrc2]);
        if (!ready) {
            ++it;
            continue;
        }

        // Functional-unit availability.
        unsigned div_unit = 0;
        switch (e.su.kind) {
          case UopKind::Alu:
          case UopKind::Branch:
          case UopKind::Jump:
          case UopKind::Out:
          case UopKind::Trap:
            if (alu_used >= cfg_.intAluCount) {
                ++it;
                continue;
            }
            break;
          case UopKind::Mul:
            if (complex_used >= cfg_.complexCount) {
                ++it;
                continue;
            }
            break;
          case UopKind::Div: {
            bool found = false;
            if (complex_used < cfg_.complexCount) {
                for (unsigned u = 0; u < divBusyUntil_.size(); ++u) {
                    if (divBusyUntil_[u] <= cycle_) {
                        div_unit = u;
                        found = true;
                        break;
                    }
                }
            }
            if (!found) {
                ++it;
                continue;
            }
            break;
          }
          case UopKind::Load:
          case UopKind::Store:
            if (mem_used >= cfg_.memPorts) {
                ++it;
                continue;
            }
            break;
          default:
            break;
        }

        // Memory-ordering check for loads (no pending reads recorded on
        // a blocked attempt; the final successful issue records them).
        LoadCheck ld;
        if (e.su.kind == UopKind::Load) {
            ld.addr = prf_[e.physSrc1] + e.su.imm;
            // Scheduling read: the register value decides whether the
            // load can issue this cycle, so it is physically consumed
            // even when the load ends up blocked.
            emitEffect(Structure::RegisterFile, e.physSrc1, 0xff, false);
            ld.trap = mem_.check(ld.addr, e.su.memSize, false);
            if (ld.trap == TrapKind::None &&
                loadBlocked(e, e.su.memSize, ld)) {
                ++it;
                continue;
            }
        }

        executeUop(e, ld);
        switch (e.su.kind) {
          case UopKind::Mul:
            ++complex_used;
            break;
          case UopKind::Div:
            ++complex_used;
            divBusyUntil_[div_unit] = cycle_ + cfg_.divLatency;
            break;
          case UopKind::Load:
          case UopKind::Store:
            ++mem_used;
            break;
          default:
            ++alu_used;
            break;
        }
        ++issued;
        it = iq_.erase(it);
    }
}

// ------------------------------------------------------------ writeback

void
Core::squashAfter(std::uint32_t branch_idx, Addr redirect_to)
{
    ++stats_.squashes;
    RobEntry &b = rob_[branch_idx];
    const SeqNum branch_seq = b.seq;
    std::uint32_t idx = robTailIdx_;
    for (SeqNum s = robTailSeq_; s-- > branch_seq + 1;) {
        idx = idx == 0 ? cfg_.robEntries - 1 : idx - 1;
        RobEntry &e = rob_[idx];
        ++e.gen; // invalidate in-flight completions
        e.nPending = 0;
        if (e.physDst != NO_PREG) {
            renameMap_[e.su.dst] = e.prevPhys;
            freeList_.push_back(e.physDst);
        }
        if (e.sqSlot >= 0) {
            sq_[e.sqSlot].valid = false;
            sqNextSeq_ = e.storeSeq;
        }
        if (e.isLoad)
            --lqOccupancy_;
    }
    robTailSeq_ = branch_seq + 1;
    robTailIdx_ = nextRobIdx(branch_idx);

    // Drop squashed entries from the issue queue.
    std::erase_if(iq_, [&](std::uint32_t i) {
        return rob_[i].seq > branch_seq;
    });

    // Repair speculative predictor state.
    if (b.hasPredState)
        tournament_.repairHistory(b.predState, b.actualTaken);
    if (b.rasValid) {
        ras_.restore(b.rasSnap);
        if (b.su.isCall)
            ras_.push(b.rip + isa::INSN_BYTES);
        else if (b.su.isReturn)
            ras_.pop();
    }

    fetchPc_ = redirect_to;
    fetchResumeCycle_ = cycle_ + cfg_.redirectPenalty;
    fetchHalted_ = false;
    uopQueue_.clear();
}

void
Core::stageWriteback()
{
    while (!completions_.empty() && completions_.top().cycle <= cycle_) {
        const Completion c = completions_.top();
        completions_.pop();
        RobEntry &e = rob_[c.robIdx];
        if (e.gen != c.gen)
            continue; // squashed

        if (e.physDst != NO_PREG) {
            prf_[e.physDst] = e.resultValue;
            prfReady_[e.physDst] = 1;
            emitEffect(Structure::RegisterFile, e.physDst, 0xff, true);
            if (probe_) {
                probe_->onWrite(Structure::RegisterFile, e.physDst,
                                c.cycle, phase::RegWrite);
            }
        }
        e.done = true;

        if (e.isCtrl && e.actualTarget != e.predTarget) {
            ++stats_.branchMispredicts;
            squashAfter(c.robIdx, e.actualTarget);
        }
    }
}

// --------------------------------------------------------------- commit

void
Core::stageDrainStores()
{
    if (sqHeadSeq_ >= sqNextSeq_)
        return;
    const std::uint32_t slot =
        static_cast<std::uint32_t>(sqHeadSeq_ % cfg_.sqEntries);
    SqEntry &q = sq_[slot];
    MERLIN_ASSERT(q.valid, "invalid store at SQ head");
    if (!q.committed)
        return;

    l1dWbReadPhase_ = phase::L1dDrainWbRead;
    l1dWritePhase_ = phase::L1dDrainWrite;
    l1dCtxSeq_ = q.seqNum;
    Cache::AccessResult ar = l1d_.access(q.addr, true, cycle_, q.rip,
                                         q.upc);
    const std::uint32_t off =
        static_cast<std::uint32_t>(q.addr & (cfg_.l1d.lineSize - 1));
    // Draining physically reads the low q.size bytes of the data field.
    emitEffect(Structure::StoreQueue, slot,
               static_cast<std::uint8_t>(q.size >= 8 ? 0xffu
                                                     : (1u << q.size) - 1u),
               false);
    l1d_.writeBytes(ar.set, ar.way, off, q.size, sqData_[slot], cycle_);
    if (probe_) {
        // Draining reads the SQ data field one last time.
        probe_->onCommittedRead(Structure::StoreQueue, slot, cycle_,
                                phase::SqDrainRead, q.rip, q.upc,
                                q.seqNum);
    }
    q.valid = false;
    ++sqHeadSeq_;
}

void
Core::stageCommit()
{
    for (unsigned n = 0; n < cfg_.commitWidth && !robEmpty(); ++n) {
        RobEntry &e = rob_[robHeadIdx_];
        if (!e.done)
            return;

        if (e.trap != TrapKind::None) {
            raiseTrapAtCommit(e);
            return;
        }
        if (e.su.kind == UopKind::Halt) {
            ++stats_.instret;
            ++stats_.uopsRetired;
            terminate(isa::TerminateReason::Halted,
                      static_cast<int>(e.su.imm));
            return;
        }

        if (probe_) {
            for (unsigned i = 0; i < e.nPending; ++i) {
                const PendingRead &p = e.pending[i];
                probe_->onCommittedRead(p.s, p.entry, p.cycle, p.phase,
                                        e.rip, e.upc, e.seq);
            }
        }

        if (e.su.kind == UopKind::Out) {
            std::uint8_t buf[8];
            storeLE(buf, e.outValue, 8);
            result_.output.insert(result_.output.end(), buf,
                                  buf + e.su.memSize);
        }
        if (e.su.kind == UopKind::Store)
            sq_[e.sqSlot].committed = true;
        if (e.isLoad)
            --lqOccupancy_;

        if (e.physDst != NO_PREG) {
            if (e.prevPhys != NO_PREG)
                freeList_.push_back(e.prevPhys);
            commitMap_[e.su.dst] = e.physDst;
        }

        if (e.isCtrl) {
            if (e.hasPredState) {
                ++stats_.condBranches;
                tournament_.update(e.rip, e.actualTaken, e.predState);
                if (probe_)
                    probe_->onCommitBranch(e.rip, e.actualTaken, e.seq);
            } else if (e.su.base == Opcode::JR) {
                btb_.update(e.rip, e.actualTarget);
            }
        }

        ++stats_.uopsRetired;
        if (e.lastUop) {
            ++stats_.instret;
            if (probe_)
                probe_->onCommitInstruction(e.rip, e.seq);
            if (cfg_.instructionWindowEnd != 0 &&
                stats_.instret >= cfg_.instructionWindowEnd) {
                ++robHeadSeq_;
                robHeadIdx_ = nextRobIdx(robHeadIdx_);
                lastCommitCycle_ = cycle_;
                terminate(isa::TerminateReason::WindowEnd, 0);
                return;
            }
        }

        ++robHeadSeq_;
        robHeadIdx_ = nextRobIdx(robHeadIdx_);
        lastCommitCycle_ = cycle_;
    }
}

// ----------------------------------------------------------------- tick

bool
Core::tick()
{
    if (finished_)
        return false;
    if (cycle_ >= cfg_.maxCycles) {
        terminate(isa::TerminateReason::CycleLimit, -1);
        return false;
    }
    if (cycle_ - lastCommitCycle_ > cfg_.deadlockCycles) {
        terminate(isa::TerminateReason::Deadlock, -1);
        return false;
    }

    stageCommit();
    if (finished_) {
        stats_.cycles = cycle_;
        return false;
    }
    stageDrainStores();
    stageWriteback();
    stageIssue();
    stageRename();
    stageFetch();

    ++cycle_;
    stats_.cycles = cycle_;
    return true;
}

isa::ArchResult
Core::run()
{
    while (tick()) {
    }
    return result_;
}

std::string
CoreConfig::summary() const
{
    std::string s = "OoO x" + std::to_string(issueWidth);
    s += " RF=" + std::to_string(numPhysIntRegs);
    s += " SQ=" + std::to_string(sqEntries);
    s += " LQ=" + std::to_string(lqEntries);
    s += " ROB=" + std::to_string(robEntries);
    s += " IQ=" + std::to_string(iqEntries);
    s += " L1D=" + std::to_string(l1d.sizeBytes / 1024) + "KB";
    s += " L1I=" + std::to_string(l1i.sizeBytes / 1024) + "KB";
    s += " L2=" + std::to_string(l2.sizeBytes / 1024) + "KB";
    return s;
}

} // namespace merlin::uarch
