/**
 * @file
 * CampaignService tests: the process-lifetime campaign engine behind
 * merlin_serve and (as a thin wrapper) the batch suite.  The headline
 * property is single-flight coalescing — N concurrent submissions of
 * one spec cost ONE simulation, and every subscriber receives the
 * byte-identical result — plus warm-cache serving, queued-submission
 * cancellation, shutdown refusal, batch-wrapper equivalence, and the
 * golden-artifact cache: one golden pass per (workload, core config,
 * window), shared across structures and freed once no job needs it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/result_store.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/service.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

/** One small, fast campaign (same shape the suite tests use). */
CampaignSpec
smallSpec(std::uint64_t seed = 7)
{
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(150);
    s.seed = seed;
    return s;
}

CampaignService::Config
memoryConfig(unsigned jobs, bool paused)
{
    CampaignService::Config cfg;
    cfg.jobs = jobs;
    cfg.startPaused = paused;
    return cfg;
}

/** A qsort campaign of @p s at the default core size and window. */
CampaignSpec
qsortSpec(uarch::Structure s, std::uint64_t seed,
          CampaignSpec::Mode mode = CampaignSpec::Mode::Estimate)
{
    CampaignSpec spec;
    spec.workload = "qsort";
    spec.structure = s;
    spec.sampling = core::specFixed(
        mode == CampaignSpec::Mode::GroupingOnly ? 2000 : 150);
    spec.seed = seed;
    spec.mode = mode;
    return spec;
}

std::string
readAndRemove(const std::string &path)
{
    std::stringstream ss;
    {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        ss << in.rdbuf();
    }
    std::remove(path.c_str());
    return ss.str();
}

/**
 * Queue every spec of @p specs on one paused service of @p jobs
 * workers, then run them into a fresh store; returns the store bytes.
 * Checks that no golden artifact outlives the drain.
 */
std::string
storeOfOneService(const std::vector<CampaignSpec> &specs, unsigned jobs)
{
    const std::string path = testing::TempDir() + "merlin_golden.json";
    std::remove(path.c_str());
    CampaignService::Config cfg = memoryConfig(jobs, /*paused=*/true);
    cfg.storePath = path;
    {
        CampaignService svc(cfg);
        std::vector<CampaignService::TicketPtr> tickets;
        for (const CampaignSpec &spec : specs)
            tickets.push_back(svc.submit(spec, {}));
        EXPECT_GT(svc.stats().goldenResident, 0u);
        svc.resume();
        for (const auto &t : tickets)
            EXPECT_EQ(t->wait(), CampaignService::State::Done);
        svc.drain();
        EXPECT_EQ(svc.stats().goldenResident, 0u);
    }
    return readAndRemove(path);
}

/** The store of @p specs run one by one, each in its own service. */
std::string
storeOfSeparateServices(const std::vector<CampaignSpec> &specs)
{
    const std::string path = testing::TempDir() + "merlin_golden_ref.json";
    std::remove(path.c_str());
    for (const CampaignSpec &spec : specs) {
        CampaignService::Config cfg = memoryConfig(1, /*paused=*/false);
        cfg.storePath = path;
        cfg.loadStore = true;
        CampaignService svc(cfg);
        auto t = svc.submit(spec, {});
        EXPECT_EQ(t->wait(), CampaignService::State::Done);
    }
    return readAndRemove(path);
}

obs::Counter &
goldenRuns()
{
    return obs::Registry::global().counter("golden.runs");
}

obs::Counter &
goldenShared()
{
    return obs::Registry::global().counter("golden.shared");
}

TEST(CampaignService, SingleFlightCoalescesIdenticalSpecs)
{
    // The satellite acceptance test: N threads submit the same spec;
    // inject.runs is paid once and every subscriber's result dump is
    // byte-identical.
    constexpr int kClients = 6;
    auto &injectRuns = obs::Registry::global().counter("inject.runs");
    const std::uint64_t runs0 = injectRuns.total();

    CampaignService svc(memoryConfig(2, /*paused=*/true));
    const CampaignSpec spec = smallSpec();
    // The last client's spec differs only in engine knobs: same key,
    // so it must land on the same job.
    CampaignSpec knobs = spec;
    knobs.earlyExit = false;
    knobs.replay = false;
    knobs.memChunkBytes = 256;
    ASSERT_EQ(knobs.key(), spec.key());

    std::vector<CampaignService::TicketPtr> tickets(kClients);
    {
        // Concurrent submissions while the (paused) service cannot
        // settle any of them: all six must land on ONE job.
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i) {
            threads.emplace_back([&, i] {
                CampaignService::SubmitOptions opts;
                opts.client = "client-" + std::to_string(i);
                tickets[i] = svc.submit(
                    i == kClients - 1 ? knobs : spec, opts);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    for (const auto &t : tickets)
        ASSERT_NE(t, nullptr);

    svc.resume();
    std::vector<std::string> dumps;
    int coalesced = 0;
    for (const auto &t : tickets) {
        ASSERT_EQ(t->wait(), CampaignService::State::Done);
        const auto &o = t->outcome();
        EXPECT_FALSE(o.cached);
        coalesced += o.coalesced ? 1 : 0;
        dumps.push_back(io::resultToJson(o.result).dump());
    }
    // One primary, kClients - 1 subscribers; identical bytes for all.
    EXPECT_EQ(coalesced, kClients - 1);
    for (const auto &d : dumps)
        EXPECT_EQ(d, dumps.front());

    const auto stats = svc.stats();
    EXPECT_EQ(stats.submitted, std::uint64_t(kClients));
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.coalesced, std::uint64_t(kClients - 1));
    EXPECT_EQ(stats.cacheHits, 0u);

    // The simulation ran once: the global injection counter moved by
    // exactly the one campaign's run count.
    EXPECT_EQ(injectRuns.total() - runs0,
              tickets.front()->outcome().result.injectionRuns);
}

TEST(CampaignService, WarmCacheServesRepeatSubmissionWithoutRunning)
{
    auto &injectRuns = obs::Registry::global().counter("inject.runs");
    CampaignService svc(memoryConfig(2, /*paused=*/false));
    const CampaignSpec spec = smallSpec(11);

    CampaignService::SubmitOptions opts;
    opts.reuseCached = true;
    auto cold = svc.submit(spec, opts);
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(cold->wait(), CampaignService::State::Done);
    EXPECT_FALSE(cold->outcome().cached);

    // Same spec again: a store hit, zero additional injections, and
    // the identical result bytes.
    const std::uint64_t runs0 = injectRuns.total();
    auto warm = svc.submit(spec, opts);
    ASSERT_NE(warm, nullptr);
    ASSERT_EQ(warm->wait(), CampaignService::State::Done);
    EXPECT_TRUE(warm->outcome().cached);
    EXPECT_EQ(injectRuns.total() - runs0, 0u);
    EXPECT_EQ(io::resultToJson(warm->outcome().result).dump(),
              io::resultToJson(cold->outcome().result).dump());

    // A spec that differs only in engine knobs is the same question:
    // another store hit, still nothing simulated.
    CampaignSpec knobs = spec;
    knobs.earlyExit = false;
    knobs.replay = false;
    knobs.memChunkBytes = 65536;
    auto variant = svc.submit(knobs, opts);
    ASSERT_NE(variant, nullptr);
    ASSERT_EQ(variant->wait(), CampaignService::State::Done);
    EXPECT_TRUE(variant->outcome().cached);
    EXPECT_EQ(injectRuns.total() - runs0, 0u);
    EXPECT_EQ(io::resultToJson(variant->outcome().result).dump(),
              io::resultToJson(cold->outcome().result).dump());

    const auto stats = svc.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cacheHits, 2u);

    // keyState: a settled key reads Done (from the store).
    CampaignService::State st;
    ASSERT_TRUE(svc.keyState(spec.key(), st));
    EXPECT_EQ(st, CampaignService::State::Done);
    EXPECT_FALSE(svc.keyState("0000000000000000", st));
}

TEST(CampaignService, CancelRemovesQueuedSubmission)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    CampaignService::SubmitOptions opts;
    auto ticket = svc.submit(smallSpec(13), opts);
    ASSERT_NE(ticket, nullptr);
    EXPECT_EQ(ticket->state(), CampaignService::State::Queued);

    EXPECT_TRUE(svc.cancel(ticket));
    EXPECT_EQ(ticket->wait(), CampaignService::State::Cancelled);
    // Cancelling a settled ticket is a no-op, not an error.
    EXPECT_FALSE(svc.cancel(ticket));

    svc.resume();
    svc.drain();
    EXPECT_EQ(svc.stats().cancelled, 1u);
    EXPECT_EQ(svc.stats().executed, 0u);
}

TEST(CampaignService, ShutdownRefusesNewSubmissionsAndCancelsQueued)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    CampaignService::SubmitOptions opts;
    auto queued = svc.submit(smallSpec(17), opts);
    ASSERT_NE(queued, nullptr);

    svc.beginShutdown(/*cancel_queued=*/true);
    EXPECT_TRUE(svc.draining());
    EXPECT_EQ(svc.submit(smallSpec(19), opts), nullptr);
    EXPECT_EQ(queued->wait(), CampaignService::State::Cancelled);
    svc.resume();
    svc.drain();
    EXPECT_EQ(svc.stats().goldenResident, 0u);
}

TEST(CampaignService, SubscribeAttachesToInflightKey)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    const CampaignSpec spec = smallSpec(23);
    CampaignService::SubmitOptions opts;
    auto primary = svc.submit(spec, opts);
    ASSERT_NE(primary, nullptr);

    auto sub = svc.subscribe(spec.key());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->key(), primary->key());
    EXPECT_EQ(svc.subscribe("0000000000000000"), nullptr);

    svc.resume();
    ASSERT_EQ(primary->wait(), CampaignService::State::Done);
    ASSERT_EQ(sub->wait(), CampaignService::State::Done);
    EXPECT_TRUE(sub->outcome().coalesced);
    EXPECT_EQ(io::resultToJson(sub->outcome().result).dump(),
              io::resultToJson(primary->outcome().result).dump());
}

TEST(CampaignService, UnknownWorkloadFailsTheTicketNotTheService)
{
    CampaignService svc(memoryConfig(1, /*paused=*/false));
    CampaignSpec bad = smallSpec();
    bad.workload = "no-such-workload";
    CampaignService::SubmitOptions opts;
    auto ticket = svc.submit(bad, opts);
    ASSERT_NE(ticket, nullptr);
    EXPECT_EQ(ticket->wait(), CampaignService::State::Failed);
    EXPECT_NE(ticket->error(), nullptr);

    // The service survives: the next submission runs normally.
    auto good = svc.submit(smallSpec(29), opts);
    ASSERT_NE(good, nullptr);
    EXPECT_EQ(good->wait(), CampaignService::State::Done);
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(CampaignService, BatchWrapperMatchesDirectServiceSubmissions)
{
    // The refactor contract seen from above: SuiteScheduler (now a
    // submit-all-and-wait wrapper) returns the same result bytes as
    // direct service submissions of the same specs.
    std::vector<CampaignSpec> specs{smallSpec(31), smallSpec(37)};
    specs[1].workload = "fft";

    SuiteOptions sopts;
    sopts.jobs = 2;
    SuiteResult batch = SuiteScheduler(specs, sopts).run();

    CampaignService svc(memoryConfig(2, /*paused=*/false));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        CampaignService::SubmitOptions opts;
        auto t = svc.submit(specs[i], opts);
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->wait(), CampaignService::State::Done);
        EXPECT_EQ(io::resultToJson(t->outcome().result).dump(),
                  io::resultToJson(batch.results[i]).dump())
            << "spec " << i;
    }
}

TEST(CampaignService, OneGoldenPassServesEveryStructure)
{
    // The golden pass does not depend on the target structure, so the
    // three campaigns of one (workload, core config, window) share one
    // pass — and store exactly the bytes they store when each runs
    // alone, at any pool size.
    const std::vector<CampaignSpec> specs{
        qsortSpec(uarch::Structure::RegisterFile, 41),
        qsortSpec(uarch::Structure::StoreQueue, 43),
        qsortSpec(uarch::Structure::L1DCache, 47)};

    std::uint64_t runs0 = goldenRuns().total();
    const std::string alone = storeOfSeparateServices(specs);
    EXPECT_EQ(goldenRuns().total() - runs0, 3u);

    for (unsigned jobs : {1u, 4u}) {
        runs0 = goldenRuns().total();
        const std::uint64_t shared0 = goldenShared().total();
        EXPECT_EQ(storeOfOneService(specs, jobs), alone) << "jobs " << jobs;
        EXPECT_EQ(goldenRuns().total() - runs0, 1u) << "jobs " << jobs;
        EXPECT_EQ(goldenShared().total() - shared0, 2u) << "jobs " << jobs;
    }
}

TEST(CampaignService, GroupingOnlyPassesRecordNoCheckpointsOrTrace)
{
    // Grouping-only campaigns never inject: their golden pass captures
    // no checkpoint and records no effect trace.  The store is the
    // same at any pool size, traced or not.
    std::vector<CampaignSpec> specs;
    for (uarch::Structure s :
         {uarch::Structure::RegisterFile, uarch::Structure::StoreQueue,
          uarch::Structure::L1DCache})
        specs.push_back(
            qsortSpec(s, 53, CampaignSpec::Mode::GroupingOnly));
    CampaignSpec fft = specs[0];
    fft.workload = "fft";
    specs.push_back(fft);

    obs::Histogram &capture =
        obs::Registry::global().histogram("snapshot.capture_us");
    const std::uint64_t captures0 = capture.snapshot().count;
    const std::uint64_t runs0 = goldenRuns().total();
    obs::TraceWriter::global().start(""); // collect only
    const std::string traced = storeOfOneService(specs, 4);
    const io::Json trace = obs::TraceWriter::global().toJson();
    obs::TraceWriter::global().finish();

    EXPECT_EQ(capture.snapshot().count - captures0, 0u);
    EXPECT_EQ(goldenRuns().total() - runs0, 2u); // qsort, fft
    unsigned goldens = 0;
    for (const io::Json &e : trace.at("traceEvents").items()) {
        const std::string cat = e.strOr("cat", "");
        const std::string name = e.strOr("name", "");
        EXPECT_NE(cat, "replay") << name; // no effect trace recorded
        if (cat == "campaign" && name.rfind("golden ", 0) == 0)
            ++goldens;
    }
    EXPECT_EQ(goldens, 2u);

    EXPECT_EQ(storeOfOneService(specs, 1), traced);
    EXPECT_EQ(storeOfSeparateServices(specs), traced);
}

TEST(CampaignService, InjectingAndGroupingOnlyCampaignsDoNotShareAPass)
{
    // Same workload, core config and window, but a grouping-only pass
    // records no checkpoints or trace, so an injecting campaign must
    // not borrow it (nor the other way round).
    const CampaignSpec estimate =
        qsortSpec(uarch::Structure::RegisterFile, 59);
    CampaignSpec grouping = estimate;
    grouping.mode = CampaignSpec::Mode::GroupingOnly;

    std::vector<std::string> alone;
    for (const CampaignSpec &spec : {estimate, grouping}) {
        CampaignService svc(memoryConfig(1, /*paused=*/false));
        auto t = svc.submit(spec, {});
        ASSERT_EQ(t->wait(), CampaignService::State::Done);
        alone.push_back(io::resultToJson(t->outcome().result).dump());
    }

    const std::uint64_t runs0 = goldenRuns().total();
    const std::uint64_t shared0 = goldenShared().total();
    CampaignService svc(memoryConfig(2, /*paused=*/true));
    auto te = svc.submit(estimate, {});
    auto tg = svc.submit(grouping, {});
    EXPECT_EQ(svc.stats().goldenResident, 2u);
    svc.resume();
    ASSERT_EQ(te->wait(), CampaignService::State::Done);
    ASSERT_EQ(tg->wait(), CampaignService::State::Done);
    EXPECT_EQ(goldenRuns().total() - runs0, 2u);
    EXPECT_EQ(goldenShared().total() - shared0, 0u);
    EXPECT_EQ(io::resultToJson(te->outcome().result).dump(), alone[0]);
    EXPECT_EQ(io::resultToJson(tg->outcome().result).dump(), alone[1]);
}

TEST(CampaignService, CancelledAndFailedJobsReleaseTheirGoldenDemand)
{
    // An artifact is resident exactly while a queued or running job
    // needs it: jobs that are cancelled before running, or fail before
    // borrowing, must give their demand back.
    CampaignService svc(memoryConfig(2, /*paused=*/true));
    CampaignSpec bad = smallSpec(61);
    bad.workload = "no-such-workload";
    auto rf = svc.submit(qsortSpec(uarch::Structure::RegisterFile, 67), {});
    auto sq = svc.submit(qsortSpec(uarch::Structure::StoreQueue, 71), {});
    auto lone = svc.submit(smallSpec(73), {}); // regs 128: its own pass
    auto failed = svc.submit(bad, {});
    EXPECT_EQ(svc.stats().goldenResident, 3u);

    // rf and sq share a pass: cancelling one keeps it for the other.
    EXPECT_TRUE(svc.cancel(sq));
    EXPECT_EQ(svc.stats().goldenResident, 3u);
    EXPECT_TRUE(svc.cancel(lone));
    EXPECT_EQ(svc.stats().goldenResident, 2u);

    const std::uint64_t runs0 = goldenRuns().total();
    svc.resume();
    EXPECT_EQ(rf->wait(), CampaignService::State::Done);
    EXPECT_EQ(failed->wait(), CampaignService::State::Failed);
    svc.drain();
    EXPECT_EQ(goldenRuns().total() - runs0, 1u);
    EXPECT_EQ(svc.stats().goldenResident, 0u);
}

} // namespace
} // namespace merlin::sched
