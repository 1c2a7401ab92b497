/**
 * @file
 * Persistent campaign-result store.
 *
 * Serializes every CampaignResult of a suite run to one JSON file,
 * keyed by a content hash of the producing CampaignSpec's
 * outcome-determining members (CampaignSpec::keyJson, which is also
 * the spec an entry records: engine knobs such as early_exit or
 * mem_chunk_bytes are in neither; sched::putResult writes both).
 * Suite runs get three things from it:
 *
 *   --out results.json   the suite's deliverable (all class counts,
 *                        group models and homogeneity, one entry per
 *                        campaign);
 *   cache hits           a spec whose key is already in the store is
 *                        not re-run — its stored result is returned;
 *   --resume             the store is saved after every campaign
 *                        completes, so an interrupted suite restarts
 *                        from the finished prefix, not from scratch.
 *
 * A stored result carries the campaign's answer only: class counts,
 * fault-list accounting, group models, homogeneity and quarantine
 * records.  Wall clock and engine counters (runs, early exits, replay
 * consults) describe one execution, not the question, and stay in
 * memory and in the metrics registry.  Entries are kept sorted by key
 * and doubles are written in their shortest round-trip form, so a
 * store's serialization is a pure function of the specs it answers —
 * byte-identical across runs, job counts and completion orders, with
 * no flag needed.
 *
 * Stores are written in the merlin-store-v4 shape: a "campaigns"
 * object.  A worker "selection" member that earlier v4 writers added
 * is ignored on load and left out of the next save.  Older files are
 * refused by name: merlin-store-v3 keys hashed the engine knobs too,
 * so every lookup would silently miss, and merlin-store-v2 /
 * merlin-results-v1 also carried wall clock and engine counters.  A
 * store is a recomputable cache, so delete it and re-run.
 *
 * Not internally synchronized: concurrent writers must serialize
 * access (the suite scheduler holds one mutex across put()+save()).
 */

#ifndef MERLIN_IO_RESULT_STORE_HH
#define MERLIN_IO_RESULT_STORE_HH

#include <map>
#include <string>
#include <vector>

#include "io/json.hh"
#include "merlin/campaign.hh"

namespace merlin::io
{

/**
 * CampaignResult -> JSON: every outcome field, including the
 * optionals.  The engine counters and wall-clock members are not
 * written.
 */
Json resultToJson(const core::CampaignResult &r);

/**
 * JSON -> CampaignResult; throws FatalError on malformed input.
 * Quarantine records this reader does not understand (a newer writer
 * may have extended them) are skipped: with @p skipped_quarantine set
 * they are counted there silently — load() aggregates the counts into
 * ONE warning per store — and without it each skip warns individually.
 */
core::CampaignResult
resultFromJson(const Json &j,
               std::size_t *skipped_quarantine = nullptr);

class ResultStore
{
  public:
    /** One stored campaign: the producing spec and its result. */
    struct Entry
    {
        Json spec;
        Json result;
    };

    /** What a merge() did, for reporting. */
    struct MergeStats
    {
        std::size_t added = 0;     ///< keys new to this store
        std::size_t identical = 0; ///< keys present with identical payload
        std::size_t replaced = 0;  ///< conflicts resolved force-theirs
    };

    /** @p path may be empty for a memory-only store (no load/save IO). */
    explicit ResultStore(std::string path = "");

    const std::string &path() const { return path_; }
    std::size_t size() const { return entries_.size(); }

    /**
     * Read the store file.  @return false when the file is absent (a
     * fresh store); throws FatalError when present but malformed —
     * silently dropping a corrupt store would re-run every campaign —
     * or written in a retired format (merlin-store-v3,
     * merlin-store-v2, merlin-results-v1).
     */
    bool load();

    /**
     * Atomically write the store (temp file + rename), entries sorted
     * by key.  No-op for a memory-only store.
     */
    void save() const;

    /** @return true and fill @p out when @p key is stored. */
    bool lookup(const std::string &key, core::CampaignResult &out) const;

    bool contains(const std::string &key) const;

    /** Insert or replace the entry for @p key. */
    void put(const std::string &key, Json spec,
             const core::CampaignResult &result);

    /**
     * Fold @p other into this store.  Content-hash keys make the
     * operation order-independent: a key present in both sides must
     * carry a bit-identical payload (spec and result dumps), because
     * the same spec always produces the same result — a mismatch
     * means one store is corrupt or was produced by a different
     * engine, and is fatal unless @p force_theirs resolves it by
     * taking @p other's entry.  Merging the worker stores of a
     * planned suite split therefore reproduces the single-store run
     * byte-for-byte, in any gather order.
     */
    MergeStats merge(const ResultStore &other, bool force_theirs = false);

    /** All entries, sorted by key (what toJson()/merge() iterate). */
    const std::map<std::string, Entry> &entries() const
    {
        return entries_;
    }

    /** The full store as a JSON document (what save() writes). */
    Json toJson() const;

  private:
    std::string path_;
    std::map<std::string, Entry> entries_; ///< sorted => stable dumps
};

/**
 * Load every file of @p files and fold it into @p into (see
 * ResultStore::merge for the conflict rules).  The gather half of
 * distributed dispatch: worker stores, in any order, reassemble the
 * single-host store.  fatal() on an input it cannot open — a gather
 * that silently skipped a worker's store would "succeed" with an
 * incomplete store.
 */
ResultStore::MergeStats
mergeStoreFiles(ResultStore &into, const std::vector<std::string> &files,
                bool force_theirs = false);

} // namespace merlin::io

#endif // MERLIN_IO_RESULT_STORE_HH
