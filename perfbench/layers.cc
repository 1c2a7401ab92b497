/**
 * @file
 * Layer driver for the benchmark's traced run.
 *
 * Drives a suite manifest through each module's public functions, one
 * call at a time, and times every call from here — no span is added
 * inside src/.  The pipeline mirrors what CampaignService runs for one
 * campaign (Campaign::prepare, the injection batch, the store save and
 * the outcome journal), but campaigns run one after another with only
 * the injections fanned out, so each layer's time is its own:
 *
 *   workloads  buildWorkload (once per distinct workload)
 *   faultsim   golden run with the AceProfiler, replay recording and
 *              checkpoints exactly as the product configures it;
 *              planBatch + inject + finishBatch on a --jobs pool
 *   profile    AceProfiler::finalize
 *   merlin     sampleFaults, groupFaults, and the majority-vote fold of
 *              Campaign::finish (mirrored here: finish() needs the
 *              Campaign's private runner)
 *   io         ResultStore put + save, OutcomeJournal open/append/remove
 *
 * After that pipeline (outside its wall time) A/B probes on one spec per
 * workload time a bare Core::run and the golden run with and without
 * the profiler and the replay recorder.
 *
 *   perfbench_layers build MANIFEST
 *       build every workload the manifest names; prints {"build_ms":..}
 *   perfbench_layers trace MANIFEST WORKDIR [JOBS]
 *       run the pipeline; writes WORKDIR/store.json, WORKDIR/trace.json
 *       (Chrome trace_event spans) and prints one JSON object with the
 *       per-layer metrics and every campaign's class counts.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/threadpool.hh"
#include "faultsim/runner.hh"
#include "io/journal.hh"
#include "io/json.hh"
#include "io/result_store.hh"
#include "merlin/campaign.hh"
#include "merlin/grouping.hh"
#include "merlin/sampling.hh"
#include "obs/metrics.hh"
#include "profile/ace.hh"
#include "sched/suite.hh"
#include "tools/cli_spec.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace merlin;
using Clock = std::chrono::steady_clock;
using io::Json;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * One timed call: layer, name, interval, the span that caused it and
 * the campaign (request) it belongs to.
 */
struct SpanRec
{
    std::string layer;
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    std::size_t thread = 0;
};

/** In-memory span log, written out once at the end. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    double
    usNow() const
    {
        return secondsBetween(origin_, Clock::now()) * 1e6;
    }

    int
    add(SpanRec rec)
    {
        rec.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(std::move(rec));
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id, double end_us)
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].endUs = end_us;
    }

    /** Campaign index stamped on every span opened from here on. */
    std::uint64_t request = 0;

    /** Sum of the durations of spans with no parent (main thread). */
    double
    topLevelUs() const
    {
        double t = 0.0;
        for (const SpanRec &s : spans_)
            if (s.parent < 0)
                t += s.endUs - s.startUs;
        return t;
    }

    /** Total duration of every span named @p name of @p layer. */
    double
    totalUs(const std::string &layer, const std::string &name) const
    {
        double t = 0.0;
        for (const SpanRec &s : spans_)
            if (s.layer == layer && s.name == name)
                t += s.endUs - s.startUs;
        return t;
    }

    /** Chrome trace_event JSON ("X" complete events). */
    Json
    toChromeTrace() const
    {
        std::map<std::size_t, unsigned> tids;
        Json events = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            const unsigned tid =
                tids.emplace(s.thread, static_cast<unsigned>(tids.size()))
                    .first->second;
            Json e = Json::object();
            e.set("name", s.name);
            e.set("cat", s.layer);
            e.set("ph", "X");
            e.set("ts", s.startUs);
            e.set("dur", s.endUs - s.startUs);
            e.set("pid", std::uint64_t(1));
            e.set("tid", std::uint64_t(tid));
            Json args = Json::object();
            args.set("id", std::uint64_t(i));
            args.set("request", s.request);
            if (s.parent >= 0)
                args.set("parent", std::uint64_t(s.parent));
            e.set("args", args);
            events.push(e);
        }
        Json doc = Json::object();
        doc.set("traceEvents", events);
        return doc;
    }

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

/** Records [construction, destruction) as one span. */
class Timed
{
  public:
    Timed(SpanLog &log, const char *layer, const char *name,
          int parent = -1)
        : log_(log), start_(log.usNow()),
          id_(log.add({layer, name, start_, start_, parent, log.request, 0}))
    {
    }

    ~Timed() { log_.close(id_, log_.usNow()); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    int id() const { return id_; }
    double elapsedUs() const { return log_.usNow() - start_; }

  private:
    SpanLog &log_;
    double start_;
    int id_;
};

unsigned
entriesOf(uarch::Structure s, const uarch::CoreConfig &cfg)
{
    switch (s) {
      case uarch::Structure::RegisterFile: return cfg.numPhysIntRegs;
      case uarch::Structure::StoreQueue:   return cfg.sqEntries;
      case uarch::Structure::L1DCache:     return cfg.l1d.totalWords();
    }
    return 0;
}

/** The RunnerOptions Campaign::prepare derives from a config. */
faultsim::RunnerOptions
runnerOptionsOf(const core::CampaignConfig &cfg)
{
    faultsim::RunnerOptions r;
    r.checkpointInterval = cfg.checkpointInterval;
    r.maxCheckpoints = cfg.maxCheckpoints;
    r.earlyExit = cfg.earlyExit;
    r.replay = cfg.replay;
    r.timeoutFactor = cfg.timeoutFactor;
    return r;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = std::min(
        v.size() - 1, static_cast<std::size_t>(q * (v.size() - 1) + 0.5));
    return v[i];
}

Json
countsJson(const core::ClassCounts &c)
{
    Json a = Json::array();
    for (std::uint64_t n : c.counts)
        a.push(n);
    return a;
}

std::uint64_t
counterOf(const obs::MetricsSnapshot &s, const std::string &name)
{
    for (const auto &[n, v] : s.counters)
        if (n == name)
            return v;
    return 0;
}

obs::HistogramSnapshot
histogramOf(const obs::MetricsSnapshot &s, const std::string &name)
{
    for (const auto &[n, h] : s.histograms)
        if (n == name)
            return h;
    return {};
}

int
cmdBuild(const std::string &manifest)
{
    const auto t0 = Clock::now();
    const std::vector<sched::CampaignSpec> specs =
        tools::loadManifestFile(manifest);
    std::set<std::string> names;
    for (const sched::CampaignSpec &s : specs)
        names.insert(s.workload);
    for (const std::string &n : names)
        (void)workloads::buildWorkload(n);
    Json out = Json::object();
    out.set("build_ms", secondsBetween(t0, Clock::now()) * 1e3);
    out.set("workloads", std::uint64_t(names.size()));
    out.set("campaigns", std::uint64_t(specs.size()));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

/** Work counters summed over the pipeline's campaigns. */
struct Totals
{
    std::uint64_t goldenRuns = 0;
    std::uint64_t goldenCycles = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t initial = 0;
    std::uint64_t aceMasked = 0;
    std::uint64_t groups = 0;
    std::uint64_t injections = 0;
    std::uint64_t runs = 0;
    std::uint64_t earlyExits = 0;
    std::uint64_t replayMasked = 0;
    std::uint64_t replayHandoffs = 0;
    std::uint64_t replaySkipped = 0;
    std::uint64_t replayHead = 0;
    std::uint64_t aliases = 0;
    std::uint64_t quarantined = 0;
};

/** A/B probe timings summed over one spec per workload. */
struct Probe
{
    double bareS = 0.0;
    std::uint64_t bareCycles = 0;
    double plainS = 0.0;   ///< golden, no profiler, no replay
    double profS = 0.0;    ///< golden + AceProfiler, no replay
    double replayS = 0.0;  ///< golden + AceProfiler + replay (product)
};

/** Shortest of @p reps timings of @p fn (seconds). */
template <typename F>
double
bestOf(unsigned reps, F &&fn)
{
    double best = 1e300;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, secondsBetween(t0, Clock::now()));
    }
    return best;
}

void
probeWorkload(const workloads::BuiltWorkload &w,
              const core::CampaignConfig &cfg, Probe &p)
{
    constexpr unsigned kReps = 3;
    const isa::Program &prog = w.program;
    std::uint64_t cycles = 0;
    p.bareS += bestOf(kReps, [&] {
        uarch::Core core(prog, cfg.core);
        core.run();
        cycles = core.stats().cycles;
    });
    p.bareCycles += cycles;

    faultsim::RunnerOptions plain = runnerOptionsOf(cfg);
    plain.replay = false;
    const faultsim::InjectionRunner plain_runner(prog, cfg.core, plain);
    p.plainS += bestOf(kReps, [&] { (void)plain_runner.golden(); });
    p.profS += bestOf(kReps, [&] {
        profile::AceProfiler prof(cfg.core.numPhysIntRegs,
                                  cfg.core.sqEntries,
                                  cfg.core.l1d.totalWords());
        (void)plain_runner.golden(&prof);
    });
    const faultsim::InjectionRunner product_runner(prog, cfg.core,
                                                   runnerOptionsOf(cfg));
    p.replayS += bestOf(kReps, [&] {
        profile::AceProfiler prof(cfg.core.numPhysIntRegs,
                                  cfg.core.sqEntries,
                                  cfg.core.l1d.totalWords());
        (void)product_runner.golden(&prof);
    });
}

int
cmdTrace(const std::string &manifest, const std::string &workdir,
         unsigned jobs)
{
    namespace fs = std::filesystem;
    const std::vector<sched::CampaignSpec> specs =
        tools::loadManifestFile(manifest);
    fs::create_directories(fs::path(workdir) / "journal");
    const std::string store_path = (fs::path(workdir) / "store.json").string();
    fs::remove(store_path);

    base::ThreadPool pool(jobs);
    obs::Registry::global().reset();

    const auto origin = Clock::now();
    SpanLog log(origin);
    Totals tot;
    std::vector<double> inject_us;
    std::mutex inject_mu;
    std::vector<double> journal_us;
    std::vector<double> save_ms;
    io::ResultStore store(store_path);
    std::map<std::string, workloads::BuiltWorkload> built;
    Json campaigns = Json::array();

    for (const sched::CampaignSpec &spec : specs) {
        log.request = static_cast<std::uint64_t>(campaigns.size());
        if (spec.relyzer)
            fatal("perfbench_layers: relyzer specs are not benchmarked");
        auto wit = built.find(spec.workload);
        if (wit == built.end()) {
            Timed t(log, "workloads", "build");
            wit = built.emplace(spec.workload,
                                workloads::buildWorkload(spec.workload))
                      .first;
        }
        const workloads::BuiltWorkload &w = wit->second;
        const core::CampaignConfig cfg = spec.campaignConfig(w);
        const std::string key = spec.key();

        // ---- golden run (faultsim), exactly as Campaign::prepare ----
        std::unique_ptr<faultsim::InjectionRunner> runner;
        profile::AceProfiler profiler(cfg.core.numPhysIntRegs,
                                      cfg.core.sqEntries,
                                      cfg.core.l1d.totalWords());
        faultsim::GoldenRun golden;
        {
            Timed t(log, "faultsim", "golden");
            runner = std::make_unique<faultsim::InjectionRunner>(
                w.program, cfg.core, runnerOptionsOf(cfg));
            golden = runner->golden(&profiler);
        }
        {
            Timed t(log, "profile", "finalize");
            profiler.finalize();
        }
        ++tot.goldenRuns;
        tot.goldenCycles += golden.stats.cycles;
        tot.checkpoints += golden.checkpoints.size();
        if (golden.trace)
            tot.traceBytes += golden.trace->memoryBytes();
        const profile::StructureProfile &prof = profiler.profile(cfg.target);

        // ---- sampling and grouping (merlin) ----
        Rng rng(cfg.seed);
        std::vector<faultsim::Fault> initial;
        {
            Timed t(log, "merlin", "sample");
            initial = core::sampleFaults(cfg.target,
                                         entriesOf(cfg.target, cfg.core),
                                         golden.stats.cycles, cfg.sampling,
                                         rng);
        }
        core::GroupingResult grouping;
        {
            Timed t(log, "merlin", "group");
            grouping = core::groupFaults(initial, prof, cfg.grouping, rng);
        }

        core::CampaignResult res;
        res.goldenCycles = golden.stats.cycles;
        res.goldenInstret = golden.stats.instret;
        res.aceAvf = prof.aceAvf(golden.stats.cycles);
        res.initialFaults = initial.size();
        res.aceMasked = grouping.aceMasked;
        res.survivors = grouping.survivors.size();
        res.numGroups = grouping.groups.size();
        res.injections = grouping.numInjections();
        tot.initial += res.initialFaults;
        tot.aceMasked += res.aceMasked;
        tot.groups += res.numGroups;

        const bool grouping_only =
            spec.mode == sched::CampaignSpec::Mode::GroupingOnly;
        const bool inject_all = spec.mode == sched::CampaignSpec::Mode::Truth;
        std::optional<io::OutcomeJournal> journal;
        if (!grouping_only) {
            // Phase-3 work list in Campaign::prepare's order:
            // representatives, then every survivor for ground truth.
            std::vector<faultsim::Fault> faults;
            for (const core::FaultGroup &g : grouping.groups)
                for (std::uint32_t rep : g.representatives)
                    faults.push_back(grouping.survivors[rep].fault);
            const std::size_t num_reps = faults.size();
            if (inject_all)
                for (const core::FaultGroup &g : grouping.groups)
                    for (std::uint32_t m : g.members)
                        faults.push_back(grouping.survivors[m].fault);
            tot.injections += faults.size();

            // ---- injection batch (faultsim) + journal (io) ----
            journal.emplace(
                (fs::path(workdir) / "journal" / (key + ".journal")).string(),
                key);
            std::vector<faultsim::Outcome> outcomes;
            {
                Timed t(log, "faultsim", "inject");
                const int batch = t.id();
                {
                    Timed tj(log, "io", "journal_open", batch);
                    journal->open();
                }
                faultsim::BatchPlan plan = runner->planBatch(faults);
                tot.aliases += plan.aliases.size();
                pool.parallelFor(plan.work.size(), [&](std::uint64_t i) {
                    const std::uint32_t idx = plan.work[i];
                    faultsim::InjectDetail detail;
                    const double t0 = log.usNow();
                    plan.outcomes[idx] =
                        runner->inject(faults[idx], golden, &detail);
                    const double t1 = log.usNow();
                    journal->append(plan.keys[idx], plan.outcomes[idx],
                                   detail);
                    const double t2 = log.usNow();
                    log.add({"faultsim", "injection", t0, t1, batch,
                             log.request, 0});
                    log.add({"io", "journal_append", t1, t2, batch,
                             log.request, 0});
                    std::lock_guard<std::mutex> lk(inject_mu);
                    inject_us.push_back(t1 - t0);
                    journal_us.push_back(t2 - t1);
                });
                runner->finishBatch(plan);
                {
                    Timed tj(log, "io", "journal_close", batch);
                    journal->close();
                }
                outcomes = std::move(plan.outcomes);
            }

            // ---- Campaign::finish's fold (merlin) ----
            {
                Timed t(log, "merlin", "finish");
                std::size_t at = 0;
                for (const core::FaultGroup &g : grouping.groups) {
                    std::array<std::uint32_t, faultsim::NUM_OUTCOMES>
                        votes{};
                    for (std::size_t r = 0; r < g.representatives.size();
                         ++r)
                        ++votes[static_cast<unsigned>(outcomes[at++])];
                    const auto o = static_cast<faultsim::Outcome>(
                        std::max_element(votes.begin(), votes.end()) -
                        votes.begin());
                    res.merlinEstimate.add(o, g.members.size());
                    res.merlinSurvivorEstimate.add(o, g.members.size());
                }
                res.merlinEstimate.add(faultsim::Outcome::Masked,
                                       res.aceMasked);
                if (inject_all) {
                    core::ClassCounts truth;
                    for (std::size_t i = num_reps; i < outcomes.size(); ++i)
                        truth.add(outcomes[i]);
                    res.survivorTruth = truth;
                }
            }
            const faultsim::InjectionStats is = runner->injectionStats();
            res.injectionRuns = is.runs;
            res.earlyExits = is.earlyExits;
            res.replayMasked = is.replayMasked;
            res.replayHandoffs = is.replayHandoffs;
            res.replayCyclesSkipped = is.replayCyclesSkipped;
            res.replayHeadCycles = is.replayHeadCycles;
            res.quarantine = runner->quarantineRecords();
            tot.runs += is.runs;
            tot.earlyExits += is.earlyExits;
            tot.replayMasked += is.replayMasked;
            tot.replayHandoffs += is.replayHandoffs;
            tot.replaySkipped += is.replayCyclesSkipped;
            tot.replayHead += is.replayHeadCycles;
            tot.quarantined += is.quarantined;

        }

        // ---- persist (io), then retire the journal ----
        {
            Timed t(log, "io", "store_save");
            store.put(key, spec.toJson(), res);
            store.save();
            save_ms.push_back(t.elapsedUs() / 1e3);
        }
        if (journal) {
            Timed t(log, "io", "journal_remove");
            journal->remove();
        }

        Json c = Json::object();
        c.set("spec", spec.toJson());
        c.set("initial_faults", res.initialFaults);
        c.set("ace_masked", res.aceMasked);
        c.set("survivors", res.survivors);
        c.set("num_groups", res.numGroups);
        c.set("injections", res.injections);
        c.set("merlin_estimate", countsJson(res.merlinEstimate));
        if (res.survivorTruth)
            c.set("survivor_truth", countsJson(*res.survivorTruth));
        c.set("quarantined", std::uint64_t(res.quarantine.size()));
        campaigns.push(c);
    }
    const double wall_s = secondsBetween(origin, Clock::now());
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();

    // io: reading back the store the pipeline wrote.
    double load_ms = 0.0;
    {
        io::ResultStore reload(store_path);
        const auto t0 = Clock::now();
        reload.load();
        load_ms = secondsBetween(t0, Clock::now()) * 1e3;
    }

    // A/B probes, outside the pipeline's wall time.
    Probe probe;
    std::set<std::string> probed;
    for (const sched::CampaignSpec &spec : specs) {
        if (!probed.insert(spec.workload).second)
            continue;
        const workloads::BuiltWorkload &w = built.at(spec.workload);
        probeWorkload(w, spec.campaignConfig(w), probe);
    }

    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const obs::HistogramSnapshot capture =
        histogramOf(snap, "snapshot.capture_us");
    const obs::HistogramSnapshot restore =
        histogramOf(snap, "snapshot.restore_us");
    double journal_mean = 0.0;
    for (double v : journal_us)
        journal_mean += v;
    journal_mean = journal_us.empty() ? 0.0 : journal_mean / journal_us.size();
    double save_mean = 0.0;
    for (double v : save_ms)
        save_mean += v;
    save_mean = save_ms.empty() ? 0.0 : save_mean / save_ms.size();
    const std::uint64_t sim_runs = tot.runs - tot.replayMasked;

    Json m = Json::object();
    m.set("workloads.build_ms", log.totalUs("workloads", "build") / 1e3);
    m.set("uarch.core_mcycles_per_s",
          ratio(static_cast<double>(probe.bareCycles), probe.bareS) / 1e6);
    m.set("uarch.golden_cycles", tot.goldenCycles);
    m.set("profile.ace_overhead_frac", ratio(probe.profS, probe.plainS) - 1);
    m.set("profile.finalize_ms", log.totalUs("profile", "finalize") / 1e3);
    m.set("replay.record_overhead_frac",
          ratio(probe.replayS, probe.profS) - 1);
    m.set("replay.trace_bytes", tot.traceBytes);
    m.set("replay.masked_ratio",
          ratio(static_cast<double>(tot.replayMasked),
                static_cast<double>(tot.replayMasked + tot.replayHandoffs)));
    m.set("replay.skip_ratio", ratio(static_cast<double>(tot.replaySkipped),
                                     static_cast<double>(tot.replayHead)));
    m.set("faultsim.golden_s", log.totalUs("faultsim", "golden") / 1e6);
    m.set("faultsim.golden_runs", tot.goldenRuns);
    m.set("faultsim.checkpoints", tot.checkpoints);
    m.set("faultsim.capture_us_mean", capture.mean());
    m.set("faultsim.capture_bytes_copied",
          counterOf(snap, "snapshot.capture_bytes_copied"));
    m.set("faultsim.inject_s", log.totalUs("faultsim", "inject") / 1e6);
    m.set("faultsim.inject_us_p50", percentile(inject_us, 0.50));
    m.set("faultsim.inject_us_p99", percentile(inject_us, 0.99));
    m.set("faultsim.injections", tot.injections);
    m.set("faultsim.sim_runs", sim_runs);
    m.set("faultsim.early_exit_ratio",
          ratio(static_cast<double>(tot.earlyExits),
                static_cast<double>(sim_runs)));
    m.set("faultsim.dedup_aliases", tot.aliases);
    m.set("faultsim.quarantined", tot.quarantined);
    m.set("faultsim.restore_us_mean", restore.mean());
    m.set("faultsim.restore_bytes_copied",
          counterOf(snap, "snapshot.restore_bytes_copied"));
    m.set("merlin.sample_ms", log.totalUs("merlin", "sample") / 1e3);
    m.set("merlin.group_ms", log.totalUs("merlin", "group") / 1e3);
    m.set("merlin.finish_ms", log.totalUs("merlin", "finish") / 1e3);
    m.set("merlin.ace_prune_ratio",
          ratio(static_cast<double>(tot.aceMasked),
                static_cast<double>(tot.initial)));
    m.set("merlin.groups", tot.groups);
    m.set("io.store_save_ms_mean", save_mean);
    m.set("io.store_bytes",
          std::uint64_t(fs::exists(store_path) ? fs::file_size(store_path)
                                               : 0));
    m.set("io.store_load_ms", load_ms);
    m.set("io.journal_append_us_mean", journal_mean);
    m.set("io.journal_fsyncs", counterOf(snap, "journal.fsyncs"));
    m.set("obs.unattributed_frac",
          ratio(wall_s * 1e6 - log.topLevelUs(), wall_s * 1e6));

    tools::writeTextFile((fs::path(workdir) / "trace.json").string(),
                         log.toChromeTrace().dump() + "\n");

    Json out = Json::object();
    out.set("wall_s", wall_s);
    out.set("metrics", m);
    out.set("campaigns", campaigns);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string cmd = argc > 1 ? argv[1] : "";
        if (cmd == "build" && argc == 3)
            return cmdBuild(argv[2]);
        if (cmd == "trace" && (argc == 4 || argc == 5)) {
            const unsigned jobs =
                argc == 5 ? static_cast<unsigned>(std::stoul(argv[4])) : 1;
            return cmdTrace(argv[2], argv[3], std::max(1u, jobs));
        }
        std::fprintf(stderr,
                     "usage: perfbench_layers build MANIFEST\n"
                     "       perfbench_layers trace MANIFEST WORKDIR "
                     "[JOBS]\n");
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
}
