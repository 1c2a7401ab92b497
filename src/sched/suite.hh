/**
 * @file
 * Campaign-suite scheduling: run many (workload x structure x config)
 * campaigns — a whole paper figure's worth — on one shared thread pool.
 *
 * Execution model.  One looping driver task per pool worker pulls
 * campaigns off a shared cursor (so at most `jobs` campaigns are
 * resident at a time), runs each campaign's golden/profile and
 * grouping phases (profiles of different campaigns overlap), then
 * fans its injections into the SAME pool at per-injection granularity
 * through a base::TaskGroup.  The pool's queue therefore interleaves
 * injections of every in-flight campaign, and a driver whose chain
 * runs dry frees its worker to execute the queued injections of the
 * campaigns still running — cross-campaign work stealing without any
 * dedicated balancer.  Outcomes are a pure function of their fault,
 * so the suite's results are bit-identical for any --jobs value and
 * any schedule.
 *
 * Persistence.  With a store path set, every finished campaign is
 * written (atomically) to a ResultStore keyed by the content hash of
 * the spec's outcome-determining members; reuseCached turns matching
 * stored entries into cache hits that skip the campaign entirely,
 * which is also how an interrupted suite resumes.  The engine knobs
 * (early_exit, replay, checkpoint_interval, max_checkpoints,
 * mem_chunk_bytes) are not part of that key, so a re-run that only
 * changes how fast the engine gets there is a plain cache hit.
 * Stored results carry outcomes only (no wall clock, no engine
 * counters), so two runs of the same suite write byte-identical
 * stores by default.  Engine telemetry goes to the metrics registry
 * (--metrics) instead.
 */

#ifndef MERLIN_SCHED_SUITE_HH
#define MERLIN_SCHED_SUITE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/json.hh"
#include "merlin/campaign.hh"
#include "workloads/workloads.hh"

namespace merlin::io
{
class ResultStore;
} // namespace merlin::io

namespace merlin::sched
{

/**
 * Everything that defines one campaign of a suite — a value type, so
 * it can be hashed, serialized into manifests/results, and compared.
 * The job count is deliberately NOT part of a spec, and the engine
 * knobs are part of the spec but not of its key: neither changes the
 * result, so neither may change the cache key.
 */
struct CampaignSpec
{
    enum class Mode : std::uint8_t
    {
        Estimate,     ///< MeRLiN estimate only (representatives)
        Truth,        ///< + ground-truth sweep of every survivor
        GroupingOnly, ///< fault-list reduction only, no injections
    };

    std::string workload; ///< bundled workload name (workloads::)
    uarch::Structure structure = uarch::Structure::RegisterFile;

    // Core geometry of the target structures (the rest of the core
    // keeps CoreConfig defaults, as everywhere in the evaluation).
    unsigned regs = 256;
    unsigned sqEntries = 64;
    unsigned l1dKb = 64;
    /** Instruction window; nullopt = the workload's suggested window. */
    std::optional<std::uint64_t> window;

    core::SamplingSpec sampling;
    core::GroupingOptions grouping;
    std::uint64_t seed = 1;
    Cycle checkpointInterval =
        faultsim::RunnerOptions::kDefaultCheckpointInterval;
    unsigned maxCheckpoints =
        faultsim::RunnerOptions::kDefaultMaxCheckpoints;
    /**
     * Engine knobs (with checkpointInterval and maxCheckpoints above):
     * the runner honours them, manifests and toJson() carry them, but
     * key() and the stored spec leave them out (isEngineKnob), because
     * they never change campaign outcomes — early exit and the
     * golden-trace replay fast path are classification-preserving, the
     * checkpoint cadence only picks where injections resume, and the
     * chunk size only shapes COW detach cost.  timeoutFactor is NOT an
     * engine knob: it moves the Timeout classification boundary (the
     * paper's rule is the default 3), so it stays in the key.
     */
    bool earlyExit = true;
    bool replay = true;
    unsigned timeoutFactor =
        faultsim::RunnerOptions::kDefaultTimeoutFactor;
    std::uint32_t memChunkBytes = isa::SegmentedMemory::kDefaultChunkBytes;

    Mode mode = Mode::Estimate;
    bool relyzer = false;   ///< Relyzer grouping baseline (Fig. 17)
    unsigned pathDepth = 5; ///< Relyzer control-path depth

    /** Campaign configuration for @p w (resolves the window). */
    core::CampaignConfig
    campaignConfig(const workloads::BuiltWorkload &w) const;

    /** Canonical JSON, every member in fixed order (manifests). */
    io::Json toJson() const;

    /**
     * toJson() minus the engine knobs, other members in the same
     * order: the hash input of key(), and the spec the result store
     * and wire `result` replies record.
     */
    io::Json keyJson() const;

    /** Inverse of toJson(); unknown members are fatal(). */
    static CampaignSpec fromJson(const io::Json &j);

    /**
     * Content hash of the spec (16 hex digits, FNV-1a over
     * keyJson()): the ResultStore key.
     */
    std::string key() const;

    bool operator==(const CampaignSpec &o) const;
};

/**
 * Parse a suite manifest: `{"defaults": {...}, "campaigns": [{...}]}`
 * where every campaign entry overrides the (optional) defaults object
 * member-by-member.  Member names match CampaignSpec::toJson().
 */
std::vector<CampaignSpec> parseManifest(const io::Json &manifest);

/** Is @p name a CampaignSpec JSON member (a manifest knob)? */
bool isSpecMember(const std::string &name);

/** Is @p name an engine knob: a spec member key() leaves out? */
bool isEngineKnob(const std::string &name);

/**
 * Store @p result under @p spec's key, recording the spec as the key
 * sees it (keyJson(), no engine knobs) so a stored spec always hashes
 * to its key.  Write campaigns into a store through this, not through
 * ResultStore::put.
 */
void putResult(io::ResultStore &store, const CampaignSpec &spec,
               const core::CampaignResult &result);

/**
 * Split a suite into @p n worker shares (`suite --plan n`): the
 * distinct spec keys in first-seen order, dealt round-robin, so a
 * repeated spec lands in exactly one share.  The shares are disjoint
 * and cover every distinct key, so the workers' stores merge back
 * into exactly the single-host store.  fatal() when @p n is 0 or
 * exceeds the number of distinct keys (a worker would get nothing).
 */
std::vector<std::vector<CampaignSpec>>
planShares(const std::vector<CampaignSpec> &specs, std::uint64_t n);

struct SuiteOptions
{
    /** Shared-pool worker threads (0 = hardware concurrency). */
    unsigned jobs = 1;
    /**
     * Result-store path; empty = keep results in memory only.  The
     * store is the suite's one deliverable: its outcome journals sit
     * beside it at `<storePath>.journal/`, and the stores of the
     * workers of a planned split merge (`merlin_cli store merge`)
     * into the single-host store byte for byte.
     */
    std::string storePath;
    /**
     * Reuse stored results for matching spec keys instead of
     * re-running (--resume / cache hits).  Off = re-run everything and
     * overwrite.
     */
    bool reuseCached = false;
    /**
     * Per-injection real-wall-clock watchdog in seconds (0 = off),
     * and what to do when the quarantine guard fires.  Operational
     * knobs, deliberately NOT spec members: a quarantined injection
     * is counted Crash either way, so they never change the bytes a
     * clean campaign stores — only whether a sick one survives.
     */
    double injectWallLimit = 0.0;
    bool quarantineFail = false;
    /**
     * Live-progress outputs (strictly out-of-band, never part of the
     * spec or the stored bytes): a periodic stderr line and/or an
     * atomically-rewritten progress.json sampled every
     * progressInterval seconds.  Both off by default.
     */
    double progressInterval = 1.0;
    bool progressStderr = false;
    std::string progressPath;
};

struct SuiteResult
{
    /** One result per spec, in spec order. */
    std::vector<core::CampaignResult> results;
    /** Which specs were served from the store without running. */
    std::vector<bool> cached;
    std::uint64_t campaignsRun = 0;
    /**
     * Injections this run simulated or replayed from journals (cache
     * hits excluded) — the numerator of the suite's injections/sec.
     */
    std::uint64_t injectionsSimulated = 0;
    double wallSeconds = 0.0;
};

/** Runs a list of CampaignSpecs as one shared-pool suite. */
class SuiteScheduler
{
  public:
    explicit SuiteScheduler(std::vector<CampaignSpec> specs,
                            SuiteOptions opts = {});

    /**
     * Execute the suite.  Campaign failures (e.g. an unknown workload
     * name) propagate as exceptions after the remaining campaigns
     * finish.
     */
    SuiteResult run();

    const std::vector<CampaignSpec> &specs() const { return specs_; }

  private:
    std::vector<CampaignSpec> specs_;
    SuiteOptions opts_;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_SUITE_HH
