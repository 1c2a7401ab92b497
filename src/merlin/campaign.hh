/**
 * @file
 * Campaign orchestration: the complete MeRLiN flow of Figure 2.
 *
 *   Preprocessing        golden run with the ACE-like profiler attached,
 *                        then statistical fault-list creation;
 *   Fault List Reduction ACE-like prune + two-step grouping;
 *   Injection Campaign   inject the reduced list, classify against the
 *                        golden run, extrapolate group outcomes.
 *
 * The same object can also run the baselines the paper compares against:
 * the full post-ACE fault list (for accuracy/homogeneity figures) and
 * Relyzer's control-equivalence heuristic (Figure 17).
 *
 * The profiled golden run does not depend on the target structure: one
 * pass records the ACE events and replay effects of RF, SQ and L1D
 * together.  It is therefore a GoldenArtifact of its own, which
 * Campaign::prepare either builds privately (standalone campaigns) or
 * borrows from a caller that shares one pass across the structures of
 * a (workload, core config, window) — CampaignService does.  Sharing is
 * byte-safe: the golden pass draws nothing from the campaign's seeded
 * Rng.  Grouping-only campaigns never inject, so their pass records
 * neither checkpoints nor an effect trace.
 */

#ifndef MERLIN_MERLIN_CAMPAIGN_HH
#define MERLIN_MERLIN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faultsim/runner.hh"
#include "merlin/grouping.hh"
#include "merlin/report.hh"
#include "merlin/theory.hh"
#include "merlin/sampling.hh"
#include "profile/ace.hh"
#include "uarch/config.hh"

namespace merlin::core
{

/** Everything a campaign needs besides the program. */
struct CampaignConfig
{
    uarch::Structure target = uarch::Structure::RegisterFile;
    uarch::CoreConfig core;
    SamplingSpec sampling;
    GroupingOptions grouping;
    std::uint64_t seed = 1;

    /**
     * Worker threads for the injection campaign (0 = hardware
     * concurrency).  Results are bit-identical for any value.
     */
    unsigned jobs = 1;
    /** Golden-run checkpoint cadence in cycles (0 = disabled). */
    Cycle checkpointInterval =
        faultsim::RunnerOptions::kDefaultCheckpointInterval;
    /** Bound on retained checkpoints (the cadence doubles past it). */
    unsigned maxCheckpoints =
        faultsim::RunnerOptions::kDefaultMaxCheckpoints;
    /**
     * End faulty runs at the first golden checkpoint whose state they
     * provably reconverged with (classification-preserving; off only
     * for A/B validation).
     */
    bool earlyExit = true;
    /**
     * Golden-trace replay fast path: skip each injection's
     * pre-divergence head off the recorded effect trace
     * (classification-preserving; off only for A/B validation).
     */
    bool replay = true;
    /** Timeout budget multiplier (the paper's rule is 3x golden). */
    unsigned timeoutFactor =
        faultsim::RunnerOptions::kDefaultTimeoutFactor;
    /**
     * Real-wall-clock watchdog per faulty run in seconds (0 = off);
     * see RunnerOptions::wallClockLimit.  A trip quarantines the
     * injection instead of hanging the campaign.
     */
    double injectWallLimit = 0.0;
    /** Abort the campaign on the first quarantined injection. */
    bool quarantineFail = false;
    /** TEST-ONLY per-cycle hook; see RunnerOptions::injectHook. */
    std::function<void(const faultsim::Fault &, Cycle)> injectHook;
};

/** Outcome of one campaign. */
struct CampaignResult
{
    // Golden-run facts.
    Cycle goldenCycles = 0;
    std::uint64_t goldenInstret = 0;
    double aceAvf = 0.0; ///< ACE-like AVF (upper bound on injection AVF)

    // Fault-list accounting.
    std::uint64_t initialFaults = 0;
    std::uint64_t aceMasked = 0;   ///< pruned by the ACE-like step
    std::uint64_t survivors = 0;   ///< faults in vulnerable intervals
    std::uint64_t numGroups = 0;
    std::uint64_t injections = 0;  ///< representatives actually injected

    // MeRLiN's estimate, extrapolated to the full initial list
    // (ACE-pruned faults counted Masked).
    ClassCounts merlinEstimate;
    // Same estimate restricted to the post-ACE survivors.
    ClassCounts merlinSurvivorEstimate;

    // Ground truth over survivors (only when injectAll was requested).
    std::optional<ClassCounts> survivorTruth;
    std::optional<HomogeneityReport> homogeneity;
    /** Per-group sizes and non-masking rates (Section 4.4.5 model). */
    std::vector<GroupModel> groupModels;

    // Speedups exactly as the paper reports them (fault-count ratios;
    // one injection run costs the same with or without MeRLiN).
    double speedupAce = 0.0;   ///< initial / survivors
    double speedupTotal = 0.0; ///< initial / injections

    // Engine telemetry of the run that produced this result: the
    // counters and wall-clock fields below are in-memory facts, never
    // persisted (the store keeps outcomes only), so they read zero on
    // a result loaded from a store.

    // Early-exit accounting (faulty runs that provably reconverged
    // with the golden state and were cut short).
    std::uint64_t injectionRuns = 0; ///< distinct faulty runs simulated
    std::uint64_t earlyExits = 0;    ///< of which ended at a checkpoint

    // Replay-fast-path accounting (golden-trace consults).
    std::uint64_t replayMasked = 0;   ///< proved dead, zero simulation
    std::uint64_t replayHandoffs = 0; ///< diverged into full simulation
    std::uint64_t replayCyclesSkipped = 0; ///< full-sim cycles avoided
    std::uint64_t replayHeadCycles = 0;    ///< pre-divergence head total

    /**
     * Injections the quarantine guard caught (escaped simulator
     * exceptions, wall-clock-watchdog trips), sorted by (fault key,
     * reason).  Each counted Crash in the class distributions; the
     * campaign completed despite them.  Empty in the common case.
     */
    std::vector<faultsim::QuarantineRecord> quarantine;

    // Wall-clock facts for Figure 11 / Table 3.
    double profileSeconds = 0.0;     ///< golden + profiling run
    double injectionSeconds = 0.0;   ///< total time injecting reps
    double secondsPerInjection = 0.0;

    /** Fraction of simulated runs cut short by early exit. */
    double
    earlyExitRate() const
    {
        return injectionRuns ? static_cast<double>(earlyExits) /
                                   static_cast<double>(injectionRuns)
                             : 0.0;
    }

    /** Fraction of replay-consulted runs that diverged into full sim. */
    double
    replayDivergenceRate() const
    {
        const std::uint64_t consulted = replayMasked + replayHandoffs;
        return consulted ? static_cast<double>(replayHandoffs) /
                               static_cast<double>(consulted)
                         : 0.0;
    }

    /** Fraction of the total pre-divergence head replay skipped. */
    double
    replaySkipRate() const
    {
        return replayHeadCycles
                   ? static_cast<double>(replayCyclesSkipped) /
                         static_cast<double>(replayHeadCycles)
                   : 0.0;
    }

    /** Truth over the full initial list (survivorTruth + ACE Masked). */
    ClassCounts fullTruth() const;

    /** FIT rate from MeRLiN's estimate. */
    double merlinFit(std::uint64_t bits,
                     double raw_fit_per_bit = 0.01) const;
};

/**
 * The structure-independent product of one profiled golden pass: the
 * GoldenRun (checkpoints, effect trace, architectural result) and the
 * ACE profiler that recorded all three structures.  Immutable once
 * built, except that each structure's profile is finalized on first
 * demand, once, from whichever thread asks first — so campaigns of
 * different targets may borrow one artifact concurrently, and each pays
 * only for its own target's finalize.
 */
class GoldenArtifact
{
  public:
    /**
     * Run the golden pass a campaign under @p cfg needs.  With
     * @p grouping_only the pass records no checkpoints and no effect
     * trace (nothing will be injected); otherwise it honours the
     * checkpoint and replay knobs of @p cfg.
     */
    static std::shared_ptr<const GoldenArtifact>
    build(const isa::Program &prog, const CampaignConfig &cfg,
          bool grouping_only);

    /** The golden reference; injections keep it alive on their own. */
    const std::shared_ptr<const faultsim::GoldenRun> &
    golden() const
    {
        return golden_;
    }

    /** Wall-clock seconds of the golden pass. */
    double seconds() const { return seconds_; }

    /** @p s's vulnerable intervals, finalized on first demand. */
    const profile::StructureProfile &profile(uarch::Structure s) const;

    /** The profiler itself (branch trace for Relyzer grouping). */
    const profile::AceProfiler &profiler() const { return *profiler_; }

  private:
    GoldenArtifact() = default;

    std::shared_ptr<const faultsim::GoldenRun> golden_;
    /** Not const: profile() finalizes through it (thread-safe). */
    std::unique_ptr<profile::AceProfiler> profiler_;
    double seconds_ = 0.0;
};

/**
 * A campaign paused between its phases: profiling/grouping done
 * (phases 1-2), injections (phase 3) not yet run.  Produced by
 * Campaign::prepare(); hand `faults` to any injection driver — the
 * in-process injectBatch, or the suite scheduler's shared pool — then
 * fold the outcomes back with Campaign::finish().
 */
struct PreparedCampaign
{
    /** Phase 1-2 fields filled; phase 3 fields still empty. */
    CampaignResult result;
    GroupingResult grouping;
    /**
     * All faults phase 3 must inject: the group representatives first
     * (numRepFaults of them), then — when ground truth was requested —
     * every survivor.  Duplicates are expected; batch dedup collapses
     * them.  Empty for grouping-only campaigns.
     */
    std::vector<faultsim::Fault> faults;
    std::size_t numRepFaults = 0;
    bool injectAll = false;
    bool groupingOnly = false;
};

/** Drives one (program, structure, configuration) campaign. */
class Campaign
{
  public:
    Campaign(const isa::Program &prog, const CampaignConfig &cfg);

    /**
     * Run the full MeRLiN flow.
     *
     * @param inject_all_survivors also inject every post-ACE fault to
     *        obtain ground truth (expensive; used by the accuracy and
     *        homogeneity experiments).
     */
    CampaignResult run(bool inject_all_survivors = false);

    /**
     * Run with Relyzer's control-equivalence heuristic instead of
     * MeRLiN's step 2 (Section 4.4.4 comparison).
     */
    CampaignResult runRelyzer(bool inject_all_survivors = false,
                              unsigned path_depth = 5);

    /**
     * Profile + prune + group but skip all injections: sufficient for
     * the speedup figures (8-13), which only need fault-list reduction
     * ratios.  Class distributions in the result are empty.
     */
    CampaignResult runGroupingOnly(bool relyzer = false,
                                   unsigned path_depth = 5);

    /**
     * Phases 1-2 only: profiled golden run, fault sampling, ACE prune +
     * grouping.  Afterwards goldenRun()/runner() are valid and the
     * returned faults can be injected by an external driver; fold the
     * outcomes back with finish().  run()/runRelyzer()/runGroupingOnly()
     * are thin wrappers over this split.
     *
     * @param golden a borrowed golden pass of this program under this
     *        campaign's core config and window, built by
     *        GoldenArtifact::build with the same @p grouping_only;
     *        null = run a private one.  The campaign keeps only the
     *        GoldenRun, not the artifact, past prepare().
     */
    PreparedCampaign
    prepare(bool inject_all = false, bool relyzer = false,
            unsigned path_depth = 5, bool grouping_only = false,
            std::shared_ptr<const GoldenArtifact> golden = nullptr);

    /**
     * Phase 3 epilogue: @p outcomes must hold the outcome of
     * prep.faults[i] at index i (any injection driver; outcomes are a
     * pure function of the fault, so any schedule gives the same
     * result).  @p injection_seconds is the caller-measured wall clock
     * of the injection phase.
     */
    CampaignResult finish(PreparedCampaign prep,
                          const std::vector<faultsim::Outcome> &outcomes,
                          double injection_seconds = 0.0) const;

    /** The golden reference (valid after prepare()/run()/...). */
    const faultsim::GoldenRun &
    goldenRun() const
    {
        MERLIN_ASSERT(golden_ != nullptr, "campaign not prepared");
        return *golden_;
    }

    /** The injection harness (valid after prepare()/run()/...). */
    const faultsim::InjectionRunner &
    runner() const
    {
        MERLIN_ASSERT(runner_ != nullptr, "campaign not prepared");
        return *runner_;
    }

  private:
    CampaignResult runImpl(bool inject_all, bool relyzer,
                           unsigned path_depth, bool grouping_only);

    const isa::Program &prog_;
    CampaignConfig cfg_;
    std::shared_ptr<const faultsim::GoldenRun> golden_;
    std::unique_ptr<faultsim::InjectionRunner> runner_;
};

} // namespace merlin::core

#endif // MERLIN_MERLIN_CAMPAIGN_HH
