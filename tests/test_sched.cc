/**
 * @file
 * Suite-scheduler tests: spec hashing/serialization, manifest parsing,
 * the store-backed cache-hit/resume path, agreement with directly-run
 * campaigns, and the headline determinism property — byte-identical
 * suite output for any job count and any spec order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "obs/metrics.hh"
#include "sched/suite.hh"
#include "workloads/workloads.hh"

namespace merlin::sched
{
namespace
{

using io::Json;

// ------------------------------------------------------ CampaignSpec

TEST(CampaignSpec, KeyIsAPureFunctionOfTheSpecValue)
{
    CampaignSpec a;
    a.workload = "qsort";
    CampaignSpec b;
    b.workload = "qsort";
    EXPECT_EQ(a.key(), b.key());
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.key().size(), 16u);
}

TEST(CampaignSpec, EveryFieldChangesTheKey)
{
    CampaignSpec base;
    base.workload = "qsort";
    const std::string k = base.key();

    CampaignSpec s = base;
    s.workload = "fft";
    EXPECT_NE(s.key(), k);
    s = base;
    s.structure = uarch::Structure::StoreQueue;
    EXPECT_NE(s.key(), k);
    s = base;
    s.regs = 128;
    EXPECT_NE(s.key(), k);
    s = base;
    s.window = 1000;
    EXPECT_NE(s.key(), k);
    s = base;
    s.sampling = core::specFixed(99);
    EXPECT_NE(s.key(), k);
    s = base;
    s.seed = 2;
    EXPECT_NE(s.key(), k);
    s = base;
    s.mode = CampaignSpec::Mode::Truth;
    EXPECT_NE(s.key(), k);
    s = base;
    s.relyzer = true;
    EXPECT_NE(s.key(), k);
    s = base;
    s.grouping.maxGroupSize = 7;
    EXPECT_NE(s.key(), k);
    s = base;
    s.earlyExit = false;
    EXPECT_NE(s.key(), k);
    s = base;
    s.replay = false;
    EXPECT_NE(s.key(), k);
}

TEST(CampaignSpec, JsonRoundTrip)
{
    CampaignSpec s;
    s.workload = "sha";
    s.structure = uarch::Structure::L1DCache;
    s.regs = 128;
    s.sqEntries = 16;
    s.l1dKb = 32;
    s.window = 5000;
    s.sampling = core::specFixed(1234);
    s.grouping.split = core::GroupingOptions::Split::Nibble;
    s.grouping.maxGroupSize = 50;
    s.grouping.repsPerGroup = 3;
    s.seed = 99;
    s.checkpointInterval = 256;
    s.maxCheckpoints = 8;
    s.mode = CampaignSpec::Mode::Truth;
    s.relyzer = true;
    s.pathDepth = 7;

    const CampaignSpec r = CampaignSpec::fromJson(
        Json::parse(s.toJson().dump()));
    EXPECT_TRUE(s == r);
    EXPECT_EQ(s.key(), r.key());
}

TEST(CampaignSpec, StatisticalSamplingRoundTrips)
{
    CampaignSpec s;
    s.workload = "fft";
    s.sampling.confidence = 0.99;
    s.sampling.errorMargin = 0.01;
    const CampaignSpec r = CampaignSpec::fromJson(
        Json::parse(s.toJson().dump()));
    EXPECT_FALSE(r.sampling.fixedCount.has_value());
    EXPECT_DOUBLE_EQ(r.sampling.confidence, 0.99);
    EXPECT_DOUBLE_EQ(r.sampling.errorMargin, 0.01);
}

TEST(Manifest, DefaultsMergeIntoEveryCampaign)
{
    const Json m = Json::parse(R"({
        "defaults": {"faults": 500, "seed": 3, "structure": "sq"},
        "campaigns": [
            {"workload": "qsort"},
            {"workload": "fft", "structure": "rf", "seed": 4}
        ]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].workload, "qsort");
    EXPECT_EQ(specs[0].structure, uarch::Structure::StoreQueue);
    EXPECT_EQ(specs[0].sampling.fixedCount, 500u);
    EXPECT_EQ(specs[0].seed, 3u);
    EXPECT_EQ(specs[1].structure, uarch::Structure::RegisterFile);
    EXPECT_EQ(specs[1].seed, 4u);
    EXPECT_EQ(specs[1].sampling.fixedCount, 500u);
}

TEST(Manifest, CampaignSamplingStyleOverridesDefaultsStyle)
{
    // defaults fix a fault count; one campaign opts into statistical
    // sampling instead — its choice must not be shadowed by the
    // inherited 'faults'.
    const Json m = Json::parse(R"({
        "defaults": {"faults": 2000},
        "campaigns": [
            {"workload": "qsort"},
            {"workload": "fft", "confidence": 0.99,
             "error_margin": 0.01},
            {"workload": "sha", "faults": 50}
        ]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].sampling.fixedCount, 2000u);
    EXPECT_FALSE(specs[1].sampling.fixedCount.has_value());
    EXPECT_DOUBLE_EQ(specs[1].sampling.confidence, 0.99);
    EXPECT_DOUBLE_EQ(specs[1].sampling.errorMargin, 0.01);
    EXPECT_EQ(specs[2].sampling.fixedCount, 50u);
}

TEST(Manifest, IntegralDoublesAreAcceptedForIntegerKnobs)
{
    const Json m = Json::parse(R"({
        "campaigns": [{"workload": "qsort", "regs": 128.0,
                       "faults": 2e3}]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].regs, 128u);
    EXPECT_EQ(specs[0].sampling.fixedCount, 2000u);
}

TEST(Manifest, RejectsTyposAndMissingFields)
{
    EXPECT_THROW(parseManifest(Json::parse("[]")), FatalError);
    EXPECT_THROW(parseManifest(Json::parse("{\"campaigns\":[]}")),
                 FatalError);
    // Unknown member: almost certainly a misspelled knob.
    EXPECT_THROW(
        parseManifest(Json::parse(
            "{\"campaigns\":[{\"workload\":\"qsort\",\"fautls\":5}]}")),
        FatalError);
    // Campaign without a workload.
    EXPECT_THROW(
        parseManifest(Json::parse("{\"campaigns\":[{\"seed\":1}]}")),
        FatalError);
    // Bad COW chunk granularity must fail at parse time, not as an
    // assertion deep inside core construction mid-suite.
    EXPECT_THROW(
        parseManifest(Json::parse(
            "{\"campaigns\":[{\"workload\":\"qsort\","
            "\"mem_chunk_bytes\":100}]}")),
        FatalError);
    EXPECT_THROW(
        parseManifest(Json::parse(
            "{\"campaigns\":[{\"workload\":\"qsort\","
            "\"mem_chunk_bytes\":32}]}")),
        FatalError);
}

// ---------------------------------------------------- SuiteScheduler

/** The test suite: 4 small campaigns spanning modes and structures. */
std::vector<CampaignSpec>
testSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(150);
    s.seed = 7;
    s.mode = CampaignSpec::Mode::Truth;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 7;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 7;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "stringsearch";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(2000);
    s.seed = 7;
    s.mode = CampaignSpec::Mode::GroupingOnly;
    specs.push_back(s);
    return specs;
}

std::string
storeBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class SuiteFixture : public ::testing::Test
{
  protected:
    std::string
    storePath(const char *name)
    {
        std::string p =
            testing::TempDir() + "merlin_suite_" + name + ".json";
        created_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_)
            std::remove(p.c_str());
    }

    std::vector<std::string> created_;
};

TEST_F(SuiteFixture, MatchesDirectlyRunCampaigns)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    SuiteResult suite = SuiteScheduler(specs, opts).run();
    ASSERT_EQ(suite.results.size(), specs.size());
    EXPECT_EQ(suite.campaignsRun, specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto w = workloads::buildWorkload(specs[i].workload);
        core::Campaign camp(w.program, specs[i].campaignConfig(w));
        core::CampaignResult direct;
        switch (specs[i].mode) {
          case CampaignSpec::Mode::Truth:
            direct = camp.run(true);
            break;
          case CampaignSpec::Mode::Estimate:
            direct = camp.run(false);
            break;
          case CampaignSpec::Mode::GroupingOnly:
            direct = camp.runGroupingOnly();
            break;
        }
        EXPECT_EQ(suite.results[i].merlinEstimate.counts,
                  direct.merlinEstimate.counts)
            << "campaign " << i;
        EXPECT_EQ(suite.results[i].injections, direct.injections);
        EXPECT_EQ(suite.results[i].survivors, direct.survivors);
        if (direct.survivorTruth) {
            ASSERT_TRUE(suite.results[i].survivorTruth);
            EXPECT_EQ(suite.results[i].survivorTruth->counts,
                      direct.survivorTruth->counts);
        }
    }
}

/**
 * The acceptance property: a suite of >= 4 campaigns produces
 * byte-identical serialized results for jobs 1 vs 4 and for a
 * shuffled spec order.
 */
TEST_F(SuiteFixture, ByteIdenticalAcrossJobsAndSpecOrder)
{
    const auto specs = testSpecs();
    ASSERT_GE(specs.size(), 4u);

    SuiteOptions opts;
    opts.jobs = 1;
    opts.storePath = storePath("j1");
    SuiteScheduler(specs, opts).run();

    opts.jobs = 4;
    opts.storePath = storePath("j4");
    SuiteScheduler(specs, opts).run();

    // Shuffled order (deterministically), still 4 jobs.
    auto shuffled = specs;
    std::rotate(shuffled.begin(), shuffled.begin() + 2, shuffled.end());
    std::swap(shuffled[0], shuffled[1]);
    opts.storePath = storePath("shuf");
    SuiteScheduler(shuffled, opts).run();

    const std::string j1 = storeBytes(created_[0]);
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, storeBytes(created_[1])) << "jobs 1 vs 4 differ";
    EXPECT_EQ(j1, storeBytes(created_[2])) << "spec order leaked in";
}

/**
 * Engine-knob invariance at suite level: early-exit on/off and any
 * COW chunk granularity must leave every campaign OUTCOME bit-
 * identical, for jobs 1 and 4.  (Whole-store comparison is the wrong
 * tool here: the knobs are part of the spec, so the keys legitimately
 * differ — the claim is about the fault classifications.)
 */
TEST_F(SuiteFixture, OutcomesInvariantToEarlyExitAndChunkSize)
{
    std::vector<CampaignSpec> base;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 5;
    s.mode = CampaignSpec::Mode::Truth;
    base.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 5;
    base.push_back(s);

    const auto variant = [&](bool early_exit,
                             std::uint32_t chunk_bytes) {
        auto specs = base;
        for (auto &sp : specs) {
            sp.earlyExit = early_exit;
            sp.memChunkBytes = chunk_bytes;
        }
        return specs;
    };
    const auto runSuite = [&](std::vector<CampaignSpec> specs,
                              unsigned jobs) {
        SuiteOptions opts;
        opts.jobs = jobs;
        return SuiteScheduler(std::move(specs), opts).run();
    };

    const SuiteResult ref = runSuite(variant(true, 4096), 4);
    const SuiteResult no_exit = runSuite(variant(false, 4096), 1);
    const SuiteResult fine = runSuite(variant(true, 256), 4);
    const SuiteResult coarse = runSuite(variant(true, 64 * 1024), 1);

    const auto expectSameOutcomes = [&](const SuiteResult &got,
                                        const char *what) {
        for (std::size_t i = 0; i < base.size(); ++i) {
            const auto &a = ref.results[i];
            const auto &b = got.results[i];
            EXPECT_EQ(a.merlinEstimate.counts, b.merlinEstimate.counts)
                << what << " campaign " << i;
            EXPECT_EQ(a.merlinSurvivorEstimate.counts,
                      b.merlinSurvivorEstimate.counts)
                << what << " campaign " << i;
            EXPECT_EQ(a.initialFaults, b.initialFaults);
            EXPECT_EQ(a.aceMasked, b.aceMasked);
            EXPECT_EQ(a.survivors, b.survivors);
            EXPECT_EQ(a.numGroups, b.numGroups);
            EXPECT_EQ(a.injections, b.injections);
            EXPECT_EQ(a.injectionRuns, b.injectionRuns);
            ASSERT_EQ(a.survivorTruth.has_value(),
                      b.survivorTruth.has_value());
            if (a.survivorTruth) {
                EXPECT_EQ(a.survivorTruth->counts,
                          b.survivorTruth->counts)
                    << what << " campaign " << i;
            }
        }
    };
    expectSameOutcomes(no_exit, "early-exit off");
    expectSameOutcomes(fine, "256B chunks");
    expectSameOutcomes(coarse, "64KB chunks");

    // With the exit disabled the counter must be hard zero; enabled,
    // the knob must be recorded as having done something somewhere.
    std::uint64_t exits = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(no_exit.results[i].earlyExits, 0u);
        EXPECT_EQ(ref.results[i].earlyExits, fine.results[i].earlyExits)
            << "early-exit count depends on chunk size";
        exits += ref.results[i].earlyExits;
    }
    EXPECT_GT(exits, 0u);
}

/**
 * Replay-knob invariance, the acceptance grid for the golden-trace
 * fast path: replay {on,off} x early-exit {on,off} x jobs {1,4}.
 * Per knob config the serialized store must be byte-identical across
 * job counts; across knob configs every serialized campaign result
 * must be byte-identical too (the store holds outcomes only), and the
 * in-memory injection-run count must match.  earlyExits is NOT
 * compared across replay variants: a dead flip that full simulation
 * would early-exit is classified Masked by the replay shortcut without
 * ever reaching a reconvergence checkpoint, so the counter
 * legitimately differs — which is why it stays out of the store.
 */
TEST_F(SuiteFixture, OutcomesInvariantToReplayEarlyExitAndJobs)
{
    std::vector<CampaignSpec> base;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 5;
    s.mode = CampaignSpec::Mode::Truth;
    base.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 5;
    base.push_back(s);

    // L1D lines live far longer than registers or SQ slots, and the
    // tight checkpoint cadence puts checkpoints between a fault and
    // its first read — the case where the handoff actually skips
    // head cycles instead of degenerating to the classic resume.
    s = CampaignSpec{};
    s.workload = "qsort";
    s.structure = uarch::Structure::L1DCache;
    s.l1dKb = 16;
    s.window = 0;
    s.sampling = core::specFixed(80);
    s.seed = 5;
    s.checkpointInterval = 64;
    base.push_back(s);

    struct Config
    {
        bool replay;
        bool earlyExit;
        const char *name;
    };
    const Config configs[] = {
        {true, true, "r1e1"},
        {true, false, "r1e0"},
        {false, true, "r0e1"},
        {false, false, "r0e0"},
    };

    std::vector<SuiteResult> results;
    for (const Config &cfg : configs) {
        auto specs = base;
        for (auto &sp : specs) {
            sp.replay = cfg.replay;
            sp.earlyExit = cfg.earlyExit;
        }
        SuiteOptions opts;
        opts.jobs = 1;
        opts.storePath =
            storePath((std::string(cfg.name) + "_j1").c_str());
        SuiteScheduler(specs, opts).run();

        opts.jobs = 4;
        opts.storePath =
            storePath((std::string(cfg.name) + "_j4").c_str());
        results.push_back(SuiteScheduler(specs, opts).run());

        const std::string j1 =
            storeBytes(created_[created_.size() - 2]);
        EXPECT_FALSE(j1.empty());
        EXPECT_EQ(j1, storeBytes(created_.back()))
            << cfg.name << ": jobs 1 vs 4 stores differ";
    }

    const SuiteResult &ref = results[0];
    for (std::size_t c = 1; c < results.size(); ++c) {
        for (std::size_t i = 0; i < base.size(); ++i) {
            const auto &a = ref.results[i];
            const auto &b = results[c].results[i];
            EXPECT_EQ(io::resultToJson(a).dump(),
                      io::resultToJson(b).dump())
                << configs[c].name << " campaign " << i;
            EXPECT_EQ(a.merlinEstimate.counts, b.merlinEstimate.counts)
                << configs[c].name << " campaign " << i;
            EXPECT_EQ(a.merlinSurvivorEstimate.counts,
                      b.merlinSurvivorEstimate.counts)
                << configs[c].name << " campaign " << i;
            EXPECT_EQ(a.initialFaults, b.initialFaults);
            EXPECT_EQ(a.survivors, b.survivors);
            EXPECT_EQ(a.injections, b.injections);
            EXPECT_EQ(a.injectionRuns, b.injectionRuns);
            ASSERT_EQ(a.survivorTruth.has_value(),
                      b.survivorTruth.has_value());
            if (a.survivorTruth) {
                EXPECT_EQ(a.survivorTruth->counts,
                          b.survivorTruth->counts)
                    << configs[c].name << " campaign " << i;
            }
        }
    }

    // The replay counters record what actually happened: with the
    // knob on every injection run was consulted (shortcut or
    // handoff); with it off the counters are hard zero.  Campaign
    // survivors are by construction faults whose entry IS read (the
    // ACE-like analysis already dropped the dead flips without
    // simulating them), so here the trace mostly hands off — the
    // Masked shortcut itself is pinned by the runner-level tests.
    std::uint64_t consulted = 0;
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (std::size_t c = 0; c < 2; ++c) { // replay-on configs
            const auto &r = results[c].results[i];
            EXPECT_EQ(r.replayMasked + r.replayHandoffs,
                      r.injectionRuns)
                << configs[c].name << " campaign " << i;
            consulted += r.replayMasked + r.replayHandoffs;
            skipped += r.replayCyclesSkipped;
        }
        for (std::size_t c = 2; c < 4; ++c) { // replay-off configs
            const auto &r = results[c].results[i];
            EXPECT_EQ(r.replayMasked, 0u) << configs[c].name;
            EXPECT_EQ(r.replayHandoffs, 0u) << configs[c].name;
            EXPECT_EQ(r.replayCyclesSkipped, 0u) << configs[c].name;
        }
    }
    EXPECT_GT(consulted, 0u);
    EXPECT_GT(skipped, 0u) << "replay never skipped any head cycles";
}

TEST_F(SuiteFixture, ResumeServesCachedResultsWithoutRerunning)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = storePath("resume");
    opts.reuseCached = true;

    SuiteResult first = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(first.campaignsRun, specs.size());

    SuiteResult second = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(second.campaignsRun, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(second.cached[i]);
        EXPECT_EQ(second.results[i].merlinEstimate.counts,
                  first.results[i].merlinEstimate.counts);
    }

    // Prove the cache is authoritative: doctor one stored entry and
    // watch the doctored value come back instead of a re-run.
    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    core::CampaignResult doctored = first.results[0];
    doctored.injections = 424242;
    store.put(specs[0].key(), specs[0].toJson(), doctored);
    store.save();

    SuiteResult third = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(third.campaignsRun, 0u);
    EXPECT_EQ(third.results[0].injections, 424242u);
}

TEST_F(SuiteFixture, PartialStoreResumesOnlyTheMissingCampaigns)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = storePath("partial");
    opts.reuseCached = true;

    // Simulate an interrupted run: only the first two campaigns made
    // it into the store.
    SuiteResult full = SuiteScheduler(specs, opts).run();
    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    io::ResultStore partial(opts.storePath);
    core::CampaignResult r;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(store.lookup(specs[static_cast<std::size_t>(i)].key(), r));
        partial.put(specs[static_cast<std::size_t>(i)].key(),
                    specs[static_cast<std::size_t>(i)].toJson(), r);
    }
    partial.save();

    SuiteResult resumed = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(resumed.campaignsRun, specs.size() - 2);
    EXPECT_TRUE(resumed.cached[0]);
    EXPECT_TRUE(resumed.cached[1]);
    EXPECT_FALSE(resumed.cached[2]);
    EXPECT_FALSE(resumed.cached[3]);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resumed.results[i].merlinEstimate.counts,
                  full.results[i].merlinEstimate.counts);
    }
}

// --------------------------------------------- sectioned campaigns

/**
 * The section-eligible pair (Estimate mode, one representative per
 * group): fft on the register file and on the store queue.
 */
std::vector<CampaignSpec>
sectionSpecs()
{
    const auto all = testSpecs();
    return {all[1], all[2]};
}

/**
 * Turning sectioning on must not move a byte of any campaign entry:
 * the composed result of a cold sectioned run equals the unsectioned
 * run's, and ineligible specs (Truth, GroupingOnly) fall back to the
 * plain path untouched.
 */
TEST_F(SuiteFixture, ColdSectionedRunComposesTheUnsectionedResults)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = storePath("sec_off");
    SuiteScheduler(specs, opts).run();

    opts.sections = 4;
    opts.storePath = storePath("sec_on");
    const SuiteResult sectioned = SuiteScheduler(specs, opts).run();

    io::ResultStore off(created_[0]), on(created_[1]);
    ASSERT_TRUE(off.load());
    ASSERT_TRUE(on.load());
    // Campaign entries byte-identical; only the sectioned store grows
    // section tables (one per eligible spec).
    EXPECT_EQ(off.toJson().at("campaigns").dump(2),
              on.toJson().at("campaigns").dump(2));
    EXPECT_EQ(off.sectionTables().size(), 0u);
    EXPECT_EQ(on.sectionTables().size(), 2u);

    // A cold run consults no cache: eligible specs miss every
    // section, ineligible specs stay out of the accounting.
    ASSERT_EQ(sectioned.sectionsMissed.size(), specs.size());
    EXPECT_EQ(sectioned.sectionsMissed[0], 0u); // Truth: ineligible
    EXPECT_EQ(sectioned.sectionsMissed[1], 4u);
    EXPECT_EQ(sectioned.sectionsMissed[2], 4u);
    EXPECT_EQ(sectioned.sectionsMissed[3], 0u); // GroupingOnly
    EXPECT_EQ(sectioned.sectionsHit[1], 0u);
}

/**
 * A whole-campaign cache hit under --sections counts as an
 * all-sections hit — which is how a store written without --sections
 * (no section tables at all) is promoted into the sectioned
 * accounting.
 */
TEST_F(SuiteFixture, FullEntryHitPromotesToAllSectionsHit)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.reuseCached = true;
    opts.storePath = storePath("promote");
    SuiteScheduler(specs, opts).run(); // unsectioned: no tables

    opts.sections = 4;
    const SuiteResult warm = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(warm.campaignsRun, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(warm.cached[i]);
        EXPECT_EQ(warm.sectionsMissed[i], 0u);
    }
    EXPECT_EQ(warm.sectionsHit[0], 0u); // Truth: ineligible
    EXPECT_EQ(warm.sectionsHit[1], 4u);
    EXPECT_EQ(warm.sectionsHit[2], 4u);
    EXPECT_EQ(warm.sectionsHit[3], 0u); // GroupingOnly
}

/**
 * The tentpole acceptance grid: doctor a cold sectioned store down to
 * a partial table (campaign entries gone, even-indexed sections
 * gone), resume, and require (a) only the missing sections'
 * representatives re-ran, (b) the composed result and the final store
 * BYTES equal the cold run's — for jobs {1,4} x sections {1,4,16}.
 */
TEST_F(SuiteFixture, PartialSectionHitsComposeByteIdenticalStores)
{
    const auto specs = sectionSpecs();
    obs::Counter &injectRuns =
        obs::Registry::global().counter("inject.runs");
    for (const unsigned jobs : {1u, 4u}) {
        for (const unsigned S : {1u, 4u, 16u}) {
            const std::string name = "grid_j" + std::to_string(jobs) +
                                     "_s" + std::to_string(S);
            SuiteOptions opts;
            opts.jobs = jobs;
            opts.sections = S;
            opts.storePath = storePath(name.c_str());

            const std::uint64_t runs0 = injectRuns.total();
            const SuiteResult cold = SuiteScheduler(specs, opts).run();
            const std::uint64_t coldRuns = injectRuns.total() - runs0;
            const std::string coldBytes = storeBytes(opts.storePath);
            ASSERT_FALSE(coldBytes.empty());

            // Doctor the store into a partial-hit shape.
            io::ResultStore store(opts.storePath);
            ASSERT_TRUE(store.load());
            for (const CampaignSpec &sp : specs)
                ASSERT_TRUE(store.erase(sp.key()));
            std::vector<std::pair<std::string,
                                  io::ResultStore::SectionTable>>
                doctored;
            for (const auto &[key, table] : store.sectionTables()) {
                auto t = table;
                for (unsigned s = 0; s < S; s += 2)
                    t.entries.erase(s);
                doctored.emplace_back(key, std::move(t));
            }
            ASSERT_EQ(doctored.size(), specs.size());
            for (auto &[key, t] : doctored)
                store.putSectionTable(key, std::move(t));
            store.save();

            opts.reuseCached = true;
            const std::uint64_t runs1 = injectRuns.total();
            const SuiteResult warm = SuiteScheduler(specs, opts).run();
            const std::uint64_t warmRuns = injectRuns.total() - runs1;

            EXPECT_EQ(warm.campaignsRun, specs.size());
            const std::uint32_t hits = S / 2; // odd indices survived
            for (std::size_t i = 0; i < specs.size(); ++i) {
                EXPECT_EQ(warm.sectionsHit[i], hits) << name;
                EXPECT_EQ(warm.sectionsMissed[i], S - hits) << name;
                EXPECT_EQ(warm.results[i].merlinEstimate.counts,
                          cold.results[i].merlinEstimate.counts)
                    << name << " campaign " << i;
            }
            // Strictly fewer injections when any section was served
            // (S == 1 degenerates to a full re-run)...
            if (S > 1) {
                EXPECT_LT(warmRuns, coldRuns) << name;
            } else {
                EXPECT_EQ(warmRuns, coldRuns) << name;
            }
            // ...yet the final store is the cold store, byte for byte.
            EXPECT_EQ(storeBytes(opts.storePath), coldBytes) << name;
        }
    }
}

/**
 * A stored table cut from a different golden run must be refused, not
 * silently composed into nonsense.
 */
TEST_F(SuiteFixture, MismatchedGoldenRunFailsTheSectionedResume)
{
    const auto specs = sectionSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.sections = 4;
    opts.storePath = storePath("golden_mismatch");
    SuiteScheduler(specs, opts).run();

    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    for (const CampaignSpec &sp : specs)
        ASSERT_TRUE(store.erase(sp.key()));
    std::vector<std::pair<std::string, io::ResultStore::SectionTable>>
        doctored;
    for (const auto &[key, table] : store.sectionTables()) {
        auto t = table;
        t.goldenCycles += 1;
        doctored.emplace_back(key, std::move(t));
    }
    for (auto &[key, t] : doctored)
        store.putSectionTable(key, std::move(t));
    store.save();

    opts.reuseCached = true;
    EXPECT_THROW(SuiteScheduler(specs, opts).run(), FatalError);
}

TEST_F(SuiteFixture, UnknownWorkloadFailsTheSuite)
{
    CampaignSpec s;
    s.workload = "no_such_workload";
    s.sampling = core::specFixed(10);
    SuiteOptions opts;
    opts.jobs = 2;
    EXPECT_THROW(SuiteScheduler({s}, opts).run(), std::exception);
}

} // namespace
} // namespace merlin::sched
