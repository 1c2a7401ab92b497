/**
 * @file
 * Distributed-dispatch tests: the planShares laws (disjoint shares
 * covering every distinct spec key, repeated specs planned once, too
 * many workers refused) and the headline scatter/gather property —
 * the stores of planned worker manifests merged back are
 * byte-identical to the single-host store for any worker count, job
 * count and gather order, also when a worker resumes from a store
 * that holds the whole suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

using io::Json;

// -------------------------------------------------------- planShares

/** A spread of distinct specs, cheap to hash (never run). */
std::vector<CampaignSpec>
manySpecs(std::size_t n)
{
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
        CampaignSpec s;
        s.workload = i % 2 ? "fft" : "qsort";
        s.seed = i + 1;
        specs.push_back(s);
    }
    return specs;
}

TEST(PlanShares, SharesAreDisjointAndCoverEveryDistinctKey)
{
    const auto specs = manySpecs(23);
    for (std::uint64_t n : {1u, 2u, 3u, 5u, 23u}) {
        const auto shares = planShares(specs, n);
        ASSERT_EQ(shares.size(), n);
        std::map<std::string, unsigned> owners;
        std::size_t smallest = specs.size(), largest = 0;
        for (const auto &share : shares) {
            smallest = std::min(smallest, share.size());
            largest = std::max(largest, share.size());
            for (const CampaignSpec &s : share)
                ++owners[s.key()];
        }
        // Every spec belongs to exactly one worker ...
        ASSERT_EQ(owners.size(), specs.size()) << "n " << n;
        for (const CampaignSpec &s : specs)
            EXPECT_EQ(owners[s.key()], 1u) << "n " << n;
        // ... and round-robin keeps the shares within one of each
        // other, manifest order preserved inside a share.
        EXPECT_LE(largest - smallest, 1u) << "n " << n;
        for (std::uint64_t w = 0; w < n; ++w) {
            for (std::size_t j = 0; j < shares[w].size(); ++j)
                EXPECT_TRUE(shares[w][j] == specs[w + j * n])
                    << "n " << n << " worker " << w << " slot " << j;
        }
    }
}

TEST(PlanShares, RepeatedSpecLandsInExactlyOneShare)
{
    // Spec 0 three times (once as a knob-only variant, which asks the
    // same question and so has the same key), spec 2 twice.
    auto specs = manySpecs(4);
    CampaignSpec variant = specs[0];
    variant.earlyExit = false;
    variant.memChunkBytes = 1024;
    ASSERT_EQ(variant.key(), specs[0].key());
    specs.push_back(specs[0]);
    specs.insert(specs.begin() + 1, variant);
    specs.push_back(specs[3]); // the original spec 2
    for (std::uint64_t n : {1u, 2u, 3u, 4u}) {
        std::map<std::string, unsigned> owners;
        std::size_t planned = 0;
        for (const auto &share : planShares(specs, n)) {
            planned += share.size();
            for (const CampaignSpec &s : share)
                ++owners[s.key()];
        }
        EXPECT_EQ(planned, 4u) << "n " << n;
        ASSERT_EQ(owners.size(), 4u) << "n " << n;
        for (const auto &[key, count] : owners)
            EXPECT_EQ(count, 1u) << "n " << n << " key " << key;
    }
    // The first occurrence is the one planned: spec 0 as written, not
    // its knob-only variant.
    EXPECT_TRUE(planShares(specs, 1)[0][0] == specs[0]);
}

TEST(PlanShares, MoreWorkersThanDistinctKeysIsFatal)
{
    auto specs = manySpecs(3);
    specs.push_back(specs[1]); // 4 entries, 3 distinct keys
    EXPECT_THROW(planShares(specs, 0), FatalError);
    EXPECT_THROW(planShares(specs, 4), FatalError);
    EXPECT_EQ(planShares(specs, 3).size(), 3u);
}

TEST(PlanShares, PlannedManifestRoundTripsTheShare)
{
    // What `suite --plan n` writes: a manifest whose campaigns are
    // the share's specs, fully resolved.  Parsing it back must yield
    // exactly the share's spec keys, in order.
    const auto share = planShares(manySpecs(9), 2)[1];
    Json camps = Json::array();
    for (const CampaignSpec &s : share)
        camps.push(s.toJson());
    Json manifest = Json::object();
    manifest.set("campaigns", camps);
    const auto parsed = parseManifest(Json::parse(manifest.dump(2)));
    ASSERT_EQ(parsed.size(), share.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_TRUE(parsed[i] == share[i]);
}

// ------------------------------------------- scatter/gather suites

/** Four small campaigns spanning structures — fast enough to run the
 *  partition matrix below. */
std::vector<CampaignSpec>
suiteSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "qsort";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);
    return specs;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class DispatchFixture : public ::testing::Test
{
  protected:
    /** Merge @p stores forward and reverse; both must equal @p ref. */
    void
    expectMergesTo(std::vector<std::string> stores, const std::string &ref,
                   const std::string &tag)
    {
        for (const bool reverse : {false, true}) {
            if (reverse)
                std::reverse(stores.begin(), stores.end());
            const std::string merged_path =
                scratch(tag + (reverse ? "_rev" : "_fwd") + ".json");
            io::ResultStore merged(merged_path);
            io::mergeStoreFiles(merged, stores);
            merged.save();
            EXPECT_EQ(fileBytes(merged_path), ref)
                << tag << (reverse ? " reverse" : " forward");
        }
    }

    std::string
    scratch(const std::string &name)
    {
        const std::string p = testing::TempDir() + "merlin_sel_" + name;
        created_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_) {
            std::error_code ec;
            std::filesystem::remove_all(p, ec);
            std::filesystem::remove_all(p + ".journal", ec);
        }
    }

    std::vector<std::string> created_;
};

/** How many campaigns the store at @p path holds. */
std::size_t
storeSize(const std::string &path)
{
    io::ResultStore store(path);
    EXPECT_TRUE(store.load()) << path;
    return store.size();
}

/**
 * The acceptance property: plan the suite into n worker manifests,
 * each worker writing its own store; merging the worker stores (in
 * forward or reverse gather order) reproduces the single-host store
 * byte-for-byte, for n in {1,2,3} x jobs in {1,4}.  The manifest
 * repeats one campaign, which the plan hands to one worker only.
 */
TEST_F(DispatchFixture, MergedWorkerStoresMatchSingleHostBytes)
{
    auto specs = suiteSpecs();
    specs.push_back(specs[1]);

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    for (std::uint64_t n : {1u, 2u, 3u}) {
        const auto shares = planShares(specs, n);
        for (unsigned jobs : {1u, 4u}) {
            const std::string tag =
                std::to_string(n) + "_" + std::to_string(jobs);
            std::vector<std::string> stores;
            for (std::uint64_t w = 0; w < n; ++w) {
                SuiteOptions opts;
                opts.jobs = jobs;
                opts.storePath =
                    scratch(tag + "_w" + std::to_string(w) + ".json");
                SuiteScheduler(shares[w], opts).run();
                // Every planned campaign stored (what dispatch.sh
                // checks before it merges).
                EXPECT_EQ(storeSize(opts.storePath), shares[w].size())
                    << tag << " worker " << w;
                stores.push_back(opts.storePath);
            }
            expectMergesTo(stores, ref, tag);
        }
    }
}

/**
 * A worker resuming from a store that holds the whole suite — here
 * the single-host store copied to every worker — serves its share
 * from the cache and keeps the other shares' entries in its store.
 * Identical keys carry identical payloads, so the worker stores still
 * merge to the single-host bytes.
 */
TEST_F(DispatchFixture, ResumeFromTheFullStoreMergesToTheReference)
{
    const auto specs = suiteSpecs();

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("seed_ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    const auto shares = planShares(specs, 2);
    std::vector<std::string> stores;
    for (std::uint64_t w = 0; w < 2; ++w) {
        SuiteOptions opts;
        opts.jobs = 2;
        opts.reuseCached = true;
        opts.storePath =
            scratch("seed_w" + std::to_string(w) + ".json");
        // Seed the worker store with the FULL single-host store.
        std::filesystem::copy_file(ref_opts.storePath, opts.storePath);

        SuiteResult r = SuiteScheduler(shares[w], opts).run();
        stores.push_back(opts.storePath);

        // Every planned spec came from the cache; nothing re-ran.
        EXPECT_EQ(r.campaignsRun, 0u);
        for (std::size_t i = 0; i < shares[w].size(); ++i)
            EXPECT_TRUE(r.cached[i]) << "worker " << w << " spec " << i;

        // The seed's other campaigns stay in the worker store (the
        // surplus dispatch.sh's count check refuses).
        EXPECT_EQ(storeSize(opts.storePath), specs.size())
            << "worker " << w;
    }
    expectMergesTo(stores, ref, "seeded");
}

} // namespace
} // namespace merlin::sched
