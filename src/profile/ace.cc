#include "profile/ace.hh"

#include <algorithm>

#include "base/logging.hh"

namespace merlin::profile
{

using uarch::Structure;

StructureProfile::StructureProfile(unsigned num_entries)
    : perEntry_(num_entries)
{
}

const VulnerableInterval *
StructureProfile::find(EntryIndex entry, Cycle t) const
{
    MERLIN_ASSERT(entry < perEntry_.size(), "entry out of range");
    const auto &iv = perEntry_[entry];
    // First interval with end >= t; intervals are sorted and disjoint.
    auto it = std::lower_bound(
        iv.begin(), iv.end(), t,
        [](const VulnerableInterval &a, Cycle v) { return a.end < v; });
    if (it != iv.end() && it->start < t && t <= it->end)
        return &*it;
    return nullptr;
}

double
StructureProfile::aceAvf(Cycle total_cycles) const
{
    if (total_cycles == 0 || perEntry_.empty())
        return 0.0;
    return static_cast<double>(totalVulnerable_) /
           (static_cast<double>(perEntry_.size()) *
            static_cast<double>(total_cycles));
}

AceProfiler::AceProfiler(unsigned rf_entries, unsigned sq_entries,
                         unsigned l1d_words)
    : rf_(rf_entries), sq_(sq_entries), l1d_(l1d_words)
{
    rfEvents_.reserve(1 << 16);
    sqEvents_.reserve(1 << 12);
    l1dEvents_.reserve(1 << 14);
}

std::vector<AceProfiler::Event> &
AceProfiler::events(Structure s)
{
    switch (s) {
      case Structure::RegisterFile: return rfEvents_;
      case Structure::StoreQueue:   return sqEvents_;
      case Structure::L1DCache:     return l1dEvents_;
    }
    panic("bad structure");
}

StructureProfile &
AceProfiler::mutableProfile(Structure s)
{
    switch (s) {
      case Structure::RegisterFile: return rf_;
      case Structure::StoreQueue:   return sq_;
      case Structure::L1DCache:     return l1d_;
    }
    panic("bad structure");
}

const StructureProfile &
AceProfiler::profile(Structure s) const
{
    MERLIN_ASSERT(finalized_[static_cast<std::size_t>(s)].load(
                      std::memory_order_acquire),
                  "profile queried before finalize()");
    switch (s) {
      case Structure::RegisterFile: return rf_;
      case Structure::StoreQueue:   return sq_;
      case Structure::L1DCache:     return l1d_;
    }
    panic("bad structure");
}

void
AceProfiler::onWrite(Structure s, EntryIndex entry, Cycle cycle,
                     std::uint8_t phase)
{
    events(s).push_back(Event{cycle, 0, 0, entry, 0, phase, false});
}

void
AceProfiler::onCommittedRead(Structure s, EntryIndex entry,
                             Cycle read_cycle, std::uint8_t phase, Rip rip,
                             Upc upc, SeqNum seq)
{
    events(s).push_back(
        Event{read_cycle, rip, seq, entry, upc, phase, true});
}

void
AceProfiler::onCommitBranch(Rip rip, bool taken, SeqNum seq)
{
    branches_.push_back(BranchRecord{seq, rip, taken});
}

void
AceProfiler::finalize()
{
    for (Structure s : {Structure::RegisterFile, Structure::StoreQueue,
                        Structure::L1DCache})
        finalize(s);
}

void
AceProfiler::finalize(Structure s)
{
    const auto si = static_cast<std::size_t>(s);
    std::call_once(finalizeOnce_[si], [&] {
        auto &evs = events(s);
        StructureProfile &prof = mutableProfile(s);

        // Committed reads arrive at commit time, out of physical order;
        // restore it.  stable_sort keeps arrival order for exact ties.
        std::stable_sort(evs.begin(), evs.end(),
                         [](const Event &a, const Event &b) {
                             if (a.entry != b.entry)
                                 return a.entry < b.entry;
                             if (a.cycle != b.cycle)
                                 return a.cycle < b.cycle;
                             return a.phase < b.phase;
                         });

        EntryIndex cur = ~EntryIndex(0);
        Cycle last = 0;
        for (const Event &e : evs) {
            if (e.entry != cur) {
                cur = e.entry;
                last = 0; // implicit initial write at cycle 0
            }
            if (e.isRead) {
                if (e.cycle > last) {
                    prof.perEntry_[e.entry].push_back(VulnerableInterval{
                        last, e.cycle, e.rip, e.upc, e.seq});
                    prof.totalVulnerable_ += e.cycle - last;
                }
                last = e.cycle;
            } else {
                last = e.cycle;
            }
        }
        evs.clear();
        evs.shrink_to_fit();
        finalized_[si].store(true, std::memory_order_release);
    });
}

std::uint64_t
AceProfiler::pathSignature(SeqNum seq, unsigned depth) const
{
    // First committed branch strictly younger than the reader.
    auto it = std::upper_bound(branches_.begin(), branches_.end(), seq,
                               [](SeqNum v, const BranchRecord &b) {
                                   return v < b.seq;
                               });
    // FNV-1a over the next `depth` (rip, taken) pairs.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (unsigned i = 0; i < depth && it != branches_.end(); ++i, ++it) {
        mix(it->rip);
        mix(it->taken ? 0x9e37u : 0x79b9u);
    }
    return h;
}

} // namespace merlin::profile
