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
#include <optional>
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
    // The timeout rule moves the Timeout boundary: it is a question
    // member, not an engine knob.
    s = base;
    s.timeoutFactor = 5;
    EXPECT_NE(s.key(), k);
}

TEST(CampaignSpec, EngineKnobsStayOutOfTheKeyAndTheStoredSpec)
{
    CampaignSpec base;
    base.workload = "qsort";
    CampaignSpec s = base;
    s.checkpointInterval = 64;
    s.maxCheckpoints = 8;
    s.earlyExit = false;
    s.replay = false;
    s.memChunkBytes = 256;
    EXPECT_EQ(s.key(), base.key());
    EXPECT_EQ(s.keyJson().dump(), base.keyJson().dump());
    EXPECT_FALSE(s == base); // still different specs

    // keyJson() is toJson() minus exactly the five knobs, the other
    // members in the same order; toJson() keeps them for manifests.
    Json expect = s.toJson();
    for (const char *knob : {"checkpoint_interval", "max_checkpoints",
                             "early_exit", "replay", "mem_chunk_bytes"}) {
        EXPECT_TRUE(isEngineKnob(knob)) << knob;
        EXPECT_TRUE(expect.erase(knob)) << knob;
    }
    EXPECT_EQ(s.keyJson().dump(), expect.dump());
    EXPECT_FALSE(isEngineKnob("timeout_factor"));
    EXPECT_FALSE(isEngineKnob("seed"));
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
 * Engine-knob invariance, the acceptance grid for the content key:
 * replay {on,off} x early-exit {on,off}, plus checkpoint_interval
 * {64, 512, 4096}, max_checkpoints {8, 128} and mem_chunk_bytes
 * {256, 4096, 65536}, each at jobs {1, 4}.  The knobs never change an
 * outcome and are not part of the key or the stored spec, so every
 * run must write the SAME store bytes, and the in-memory
 * injection-run count must match.  A resume under other knobs then
 * serves every campaign from the store.  earlyExits is compared only
 * between variants that differ in mem_chunk_bytes alone: a dead flip
 * that full simulation would early-exit is classified Masked by the
 * replay shortcut without ever reaching a reconvergence checkpoint,
 * and the checkpoint cadence decides where reconvergence can be seen
 * — which is why the counter stays out of the store.
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

    // Unset optionals keep each base spec's own value.
    struct Config
    {
        bool replay;
        bool earlyExit;
        std::optional<Cycle> checkpointInterval;
        std::optional<unsigned> maxCheckpoints;
        std::optional<std::uint32_t> memChunkBytes;
        const char *name;
    };
    const Config configs[] = {
        {true, true, {}, {}, {}, "r1e1"},
        {true, false, {}, {}, {}, "r1e0"},
        {false, true, {}, {}, {}, "r0e1"},
        {false, false, {}, {}, {}, "r0e0"},
        {true, true, 64, 8, 256, "r1e1_c64_m8_k256"},
        {true, true, 512, 128, 65536, "r1e1_c512_m128_k64k"},
        {false, true, 4096, 8, 4096, "r0e1_c4096_m8_k4k"},
        {true, false, 4096, 128, 256, "r1e0_c4096_m128_k256"},
        {true, true, {}, {}, 256, "r1e1_k256"},
    };
    const auto variant = [&](const Config &cfg) {
        auto specs = base;
        for (auto &sp : specs) {
            sp.replay = cfg.replay;
            sp.earlyExit = cfg.earlyExit;
            sp.checkpointInterval =
                cfg.checkpointInterval.value_or(sp.checkpointInterval);
            sp.maxCheckpoints =
                cfg.maxCheckpoints.value_or(sp.maxCheckpoints);
            sp.memChunkBytes = cfg.memChunkBytes.value_or(sp.memChunkBytes);
        }
        return specs;
    };

    std::vector<SuiteResult> results;
    std::string refBytes;
    for (const Config &cfg : configs) {
        for (const unsigned jobs : {1u, 4u}) {
            SuiteOptions opts;
            opts.jobs = jobs;
            opts.storePath = storePath(
                (std::string(cfg.name) + "_j" + std::to_string(jobs))
                    .c_str());
            SuiteResult r = SuiteScheduler(variant(cfg), opts).run();
            const std::string bytes = storeBytes(opts.storePath);
            EXPECT_FALSE(bytes.empty());
            if (refBytes.empty())
                refBytes = bytes;
            EXPECT_EQ(bytes, refBytes)
                << cfg.name << " jobs " << jobs
                << ": store differs from r1e1 jobs 1";
            if (jobs == 4)
                results.push_back(std::move(r));
        }
    }

    const SuiteResult &ref = results[0];
    for (std::size_t c = 1; c < results.size(); ++c) {
        for (std::size_t i = 0; i < base.size(); ++i) {
            const auto &a = ref.results[i];
            const auto &b = results[c].results[i];
            EXPECT_EQ(io::resultToJson(a).dump(),
                      io::resultToJson(b).dump())
                << configs[c].name << " campaign " << i;
            EXPECT_EQ(a.injectionRuns, b.injectionRuns)
                << configs[c].name << " campaign " << i;
        }
    }

    // With the exit disabled the counter must be hard zero; enabled,
    // the knob must be recorded as having done something somewhere.
    // The replay counters likewise record what actually happened:
    // with the knob on every injection run was consulted (shortcut or
    // handoff); with it off they are hard zero.  Campaign survivors
    // are by construction faults whose entry IS read (the ACE-like
    // analysis already dropped the dead flips without simulating
    // them), so here the trace mostly hands off — the Masked shortcut
    // itself is pinned by the runner-level tests.
    std::uint64_t consulted = 0;
    std::uint64_t skipped = 0;
    for (std::size_t c = 0; c < results.size(); ++c) {
        std::uint64_t exits = 0;
        for (const core::CampaignResult &r : results[c].results) {
            exits += r.earlyExits;
            if (configs[c].replay) {
                EXPECT_EQ(r.replayMasked + r.replayHandoffs,
                          r.injectionRuns)
                    << configs[c].name;
                consulted += r.replayMasked + r.replayHandoffs;
                skipped += r.replayCyclesSkipped;
            } else {
                EXPECT_EQ(r.replayMasked, 0u) << configs[c].name;
                EXPECT_EQ(r.replayHandoffs, 0u) << configs[c].name;
                EXPECT_EQ(r.replayCyclesSkipped, 0u) << configs[c].name;
            }
        }
        if (configs[c].earlyExit)
            EXPECT_GT(exits, 0u) << configs[c].name;
        else
            EXPECT_EQ(exits, 0u) << configs[c].name;
    }
    EXPECT_GT(consulted, 0u);
    EXPECT_GT(skipped, 0u) << "replay never skipped any head cycles";

    // The chunk granularity only decides how snapshot memory is
    // copied, so a campaign whose spec differs from r1e1's in
    // mem_chunk_bytes alone must exit early exactly as often.
    std::size_t chunkOnly = 0;
    const auto refSpecs = variant(configs[0]);
    for (std::size_t c = 1; c < results.size(); ++c) {
        const auto specs = variant(configs[c]);
        for (std::size_t i = 0; i < base.size(); ++i) {
            CampaignSpec sp = specs[i];
            sp.memChunkBytes = refSpecs[i].memChunkBytes;
            if (sp.toJson().dump() != refSpecs[i].toJson().dump())
                continue;
            ++chunkOnly;
            EXPECT_EQ(results[c].results[i].earlyExits,
                      ref.results[i].earlyExits)
                << configs[c].name << " campaign " << i
                << ": early-exit count depends on chunk size";
        }
    }
    // r1e1_k256 for every campaign, r1e1_c512_m128_k64k for the two
    // at the default checkpoint cadence.
    EXPECT_EQ(chunkOnly, base.size() + 2);

    // A resume under other knobs is a whole-store hit: nothing is
    // simulated and the store keeps its bytes.
    obs::Counter &injectRuns =
        obs::Registry::global().counter("inject.runs");
    const std::uint64_t runs0 = injectRuns.total();
    SuiteOptions opts;
    opts.jobs = 4;
    opts.reuseCached = true;
    opts.storePath = created_.front();
    const SuiteResult warm =
        SuiteScheduler(variant(configs[4]), opts).run();
    EXPECT_EQ(warm.campaignsRun, 0u);
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_TRUE(warm.cached[i]) << "campaign " << i;
    EXPECT_EQ(injectRuns.total() - runs0, 0u);
    EXPECT_EQ(storeBytes(opts.storePath), refBytes);
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
    putResult(store, specs[0], doctored);
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
        putResult(partial, specs[static_cast<std::size_t>(i)], r);
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
