/**
 * @file
 * aitax_perfbench — the repository benchmark's measuring program.
 *
 *   aitax_perfbench run --workload W --seed N --seconds S --trace 0|1
 *                       --cli PATH [--size full|tiny]
 *   aitax_perfbench setup --workload W --seed N [--size full|tiny]
 *
 * `run` prints human-readable lines, then one JSON line
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, measured with no phase timer; with
 * --trace 1 they are the per-layer ones, from phase-timed passes
 * alternated with untimed ones. `setup` prints one set-up time in
 * seconds (run.py repeats it to report a median). Exit status is 0
 * only when every output check passed. perfbench/RATIONALE.md says
 * why each workload and metric exists.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "replica.h"
#include "sweep/campaign.h"
#include "sweep/snapshot_cache.h"
#include "sweep/sweep_runner.h"
#include "workloads.h"

namespace {

using namespace aitax;
using namespace aitax::perfbench;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::stable_sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0-100) of @p sorted. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(i, sorted.size() - 1)];
}

/**
 * The highest percentile with at least 10 samples beyond it: p99 from
 * 1000 samples, p90 from 100. Percentiles are whole or tenths.
 */
double
tailPercentile(std::size_t samples)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0})
        if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    return 50.0;
}

/** "min/median/max" of pass walls, for the human-readable lines. */
std::string
spread(std::vector<double> v)
{
    if (v.empty())
        return "-";
    std::stable_sort(v.begin(), v.end());
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.3f/%.3f/%.3f s", v.front(),
                  median(v), v.back());
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
reportCsv(const verify::ScenarioResult &r)
{
    std::ostringstream os;
    r.report.renderCsv(os);
    return os.str();
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** What a pass keeps of one scenario's result. */
struct Record
{
    bool ok = false;
    double e2eMs = 0.0;
    double stageMs[core::kAllStages.size()] = {};
    double aiTaxFrac = 0.0;
    std::uint64_t events = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t traceHash = 0;

    /** The outputs runScenario's callers read. */
    bool sameOutputs(const Record &o) const
    {
        return ok && o.ok && e2eMs == o.e2eMs && events == o.events &&
               traceBytes == o.traceBytes && traceHash == o.traceHash;
    }

    bool operator==(const Record &o) const
    {
        return sameOutputs(o) && aiTaxFrac == o.aiTaxFrac &&
               std::equal(std::begin(stageMs), std::end(stageMs),
                          std::begin(o.stageMs));
    }
};

/** Consume the result as the verify tier does: hash the trace. */
Record
recordOf(const verify::ScenarioResult &r)
{
    Record rec;
    rec.ok = true;
    rec.e2eMs = r.report.endToEndMeanMs();
    for (std::size_t i = 0; i < core::kAllStages.size(); ++i)
        rec.stageMs[i] = r.report.stageMeanMs(core::kAllStages[i]);
    rec.aiTaxFrac = r.report.aiTaxFraction();
    rec.events = r.eventsExecuted;
    rec.traceBytes = r.chromeTraceJson.size();
    rec.traceHash = fnv1a(r.chromeTraceJson);
    return rec;
}

/** Fast-engine outputs of a scenario sampled for the Reference check. */
struct Kept
{
    std::string csv;
    std::string trace;
    std::uint64_t events = 0;
};

struct Pass
{
    double wall = 0.0;
    /** Per-call runScenario latency (untimed passes only). */
    std::vector<double> latencyMs;
    std::vector<Record> records;
    /** Phase spans (phase-timed passes only). */
    std::vector<PhaseSample> phases;
    sweep::SnapshotCacheStats cache;

    std::uint64_t events() const
    {
        std::uint64_t n = 0;
        for (const Record &r : records)
            n += r.events;
        return n;
    }
    std::uint64_t traceBytes() const
    {
        std::uint64_t n = 0;
        for (const Record &r : records)
            n += r.traceBytes;
        return n;
    }
    template <typename F> double sumPhase(F field) const
    {
        double s = 0.0;
        for (const PhaseSample &p : phases)
            s += field(p);
        return s;
    }
};

/**
 * Run corpus[@p begin, @p end) on @p threads SweepRunner workers into
 * @p pass, adding to its wall time. The snapshot cache carries over
 * from the pass's earlier slices. @p kept, if given, receives the full
 * outputs of every @p keep_stride-th index.
 */
void
runSlice(Pass &pass, const std::vector<verify::Scenario> &corpus,
         int threads, std::size_t begin, std::size_t end,
         std::vector<Kept> *kept = nullptr, std::size_t keep_stride = 1)
{
    const bool phased = !pass.phases.empty();
    sweep::SweepRunner runner(threads);
    const auto start = Clock::now();
    runner.forEach(end - begin, [&](std::size_t k) {
        const std::size_t i = begin + k;
        try {
            verify::ScenarioResult r;
            if (phased) {
                r = runScenarioPhased(corpus[i], pass.phases[i]);
            } else {
                const auto t0 = Clock::now();
                r = verify::runScenario(corpus[i]);
                pass.latencyMs[i] = 1e3 * secondsSince(t0);
            }
            pass.records[i] = recordOf(r);
            if (kept != nullptr && i % keep_stride == 0)
                (*kept)[i] = {reportCsv(r), std::move(r.chromeTraceJson),
                              r.eventsExecuted};
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: scenario %zu threw: %s\n", i,
                         e.what());
        }
    });
    pass.wall += secondsSince(start);
    pass.cache = sweep::snapshotCacheStatsNow();
}

/** A pass with no scenario run yet, from an empty snapshot cache like a
 *  fresh user process. */
Pass
startPass(std::size_t n, bool phased)
{
    Pass pass;
    pass.records.resize(n);
    if (phased)
        pass.phases.resize(n);
    else
        pass.latencyMs.resize(n);
    sweep::snapshotCacheClearForTest();
    return pass;
}

/** One whole pass over the corpus; see runSlice(). */
Pass
runPass(const std::vector<verify::Scenario> &corpus, int threads,
        bool phased, std::vector<Kept> *kept = nullptr,
        std::size_t keep_stride = 1)
{
    Pass pass = startPass(corpus.size(), phased);
    runSlice(pass, corpus, threads, 0, corpus.size(), kept, keep_stride);
    return pass;
}

std::size_t
failedRecords(const Pass &pass)
{
    return static_cast<std::size_t>(
        std::count_if(pass.records.begin(), pass.records.end(),
                      [](const Record &r) { return !r.ok; }));
}

bool
sameCache(const sweep::SnapshotCacheStats &a,
          const sweep::SnapshotCacheStats &b)
{
    return a.hits == b.hits && a.misses == b.misses && a.stores == b.stores;
}

/** The campaign's aggregate, built in-process in chunk order. */
std::string
expectedReport(const std::string &identity,
               const std::vector<Record> &records)
{
    sweep::CampaignAggregate total;
    for (std::size_t b = 0; b < records.size(); b += kCampaignChunk) {
        sweep::CampaignAggregate chunk;
        const std::size_t e = std::min(
            records.size(), b + static_cast<std::size_t>(kCampaignChunk));
        for (std::size_t i = b; i < e; ++i)
            chunk.addScenario({records[i].e2eMs, records[i].events});
        total.merge(chunk);
    }
    return sweep::campaignReportJson(identity, total);
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

struct Options
{
    std::string mode;
    Workload workload = Workload::SeedSweep;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string cli;
    Size size = Size::Full;
};

class Run
{
  public:
    explicit Run(const Options &opts) : opts_(opts) {}

    int
    execute()
    {
        const Setup setup =
            setupWorkload(opts_.workload, opts_.seed, opts_.size);
        corpus_ = &setup.corpus;
        setupSeconds_ = setup.seconds;
        if (opts_.workload == Workload::FuzzCampaign)
            runCampaignWorkload();
        else
            runInProcess();
        printResult();
        return failed_ == 0 ? 0 : 1;
    }

  private:
    std::size_t n() const { return corpus_->size(); }

    void
    metric(const char *name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }

    void
    fail(std::size_t scenarios, const std::string &why)
    {
        failed_ += scenarios;
        std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
    }

    /** Count a pass's scenarios as attempted and its errors as failed. */
    const Pass &
    take(Pass pass, std::vector<Pass> &into)
    {
        attempted_ += pass.records.size();
        if (const std::size_t bad = failedRecords(pass))
            fail(bad, std::to_string(bad) + " scenario(s) threw");
        into.push_back(std::move(pass));
        return into.back();
    }

    /**
     * Every pass must repeat the first one's outputs, counts and
     * snapshot-cache tallies exactly: the simulator is deterministic
     * and every pass starts from an empty cache.
     */
    void
    checkRepeats(const std::vector<Pass> &passes, const char *kind)
    {
        for (std::size_t p = 1; p < passes.size(); ++p) {
            std::size_t diff = 0;
            for (std::size_t i = 0; i < n(); ++i)
                diff += passes[p].records[i].ok &&
                        !(passes[p].records[i] == passes[0].records[i]);
            if (diff > 0)
                fail(diff, std::to_string(diff) + " scenario(s) of " +
                               kind + " pass " + std::to_string(p) +
                               " differ from pass 0");
            if (!sameCache(passes[p].cache, passes[0].cache))
                fail(n(), std::string("snapshot-cache counts of ") + kind +
                              " pass " + std::to_string(p) +
                              " differ from pass 0");
        }
    }

    /**
     * Re-run every @p stride-th scenario on the Reference engine: report
     * CSV, trace bytes and event count must equal the Fast engine's.
     */
    void
    referenceCheck(const std::vector<Kept> &kept, std::size_t stride)
    {
        std::size_t runs = 0;
        for (std::size_t i = 0; i < n(); i += stride, ++runs) {
            ++attempted_;
            try {
                const verify::ScenarioResult r = verify::runScenario(
                    (*corpus_)[i], sim::EngineMode::Reference);
                if (r.eventsExecuted != kept[i].events ||
                    r.chromeTraceJson != kept[i].trace ||
                    reportCsv(r) != kept[i].csv)
                    fail(1, "scenario " + std::to_string(i) +
                                " differs between Fast and Reference");
            } catch (const std::exception &e) {
                fail(1, "Reference scenario " + std::to_string(i) +
                            " threw: " + e.what());
            }
        }
        std::printf("perfbench: Reference engine re-ran %zu sampled "
                    "scenarios\n",
                    runs);
    }

    /** Phase-timed records must equal the untimed ones, scenario by
     *  scenario: the replica times the same program runScenario runs. */
    void
    replicaCheck(const Pass &phased, const Pass &untimed)
    {
        std::size_t diff = 0;
        for (std::size_t i = 0; i < n(); ++i)
            diff += phased.records[i].ok && untimed.records[i].ok &&
                    !phased.records[i].sameOutputs(untimed.records[i]);
        if (diff > 0)
            fail(diff, std::to_string(diff) +
                           " phase-timed scenario(s) differ from "
                           "runScenario (events, E2E mean or trace bytes)");
        if (!sameCache(phased.cache, untimed.cache))
            fail(n(), "phase-timed snapshot-cache counts differ from "
                      "runScenario's");
    }

    void
    latencyMetrics(const std::vector<Pass> &untimed)
    {
        std::vector<double> p50, tail;
        const double p = tailPercentile(n());
        for (const Pass &pass : untimed) {
            std::vector<double> sorted = pass.latencyMs;
            std::stable_sort(sorted.begin(), sorted.end());
            p50.push_back(percentile(sorted, 50.0));
            tail.push_back(percentile(sorted, p));
        }
        metric("scenario_ms_p50", median(p50), "ms");
        metric("scenario_ms_tail", median(tail), "ms");
        std::printf("perfbench: scenario_ms_tail is p%g of %zu "
                    "runScenario calls per pass, median of %zu pass(es)\n",
                    p, n(), untimed.size());
    }

    /** Timed passes until the budget is spent (at least one). */
    template <typename F>
    void
    forBudget(F pass_fn)
    {
        const auto start = Clock::now();
        do
            pass_fn();
        while (secondsSince(start) < opts_.seconds);
    }

    /**
     * After a run's first untimed pass: phase-timed and untimed passes
     * in ABBA order (P U U P P U ...), which cancels drift and order
     * effects, until the budget counted from @p start is spent and at
     * least one phase-timed pass has run.
     */
    void
    alternatePasses(std::vector<Pass> &untimed, std::vector<Pass> &phased,
                    int threads, Clock::time_point start)
    {
        for (std::size_t i = 0;
             phased.empty() || secondsSince(start) < opts_.seconds; ++i) {
            const bool timed = i % 4 == 0 || i % 4 == 3;
            take(runPass(*corpus_, threads, timed), timed ? phased : untimed);
        }
    }

    void
    runInProcess()
    {
        const int threads = passThreads(opts_.workload);
        std::vector<Pass> untimed, phased;
        // The Reference sample: every 32nd scenario, at least 4.
        const std::size_t stride =
            std::clamp<std::size_t>(n() / 4, 1, 32);
        std::vector<Kept> kept(n());

        if (opts_.trace == 0) {
            std::vector<Kept> *keep = &kept;
            forBudget([&] {
                take(runPass(*corpus_, threads, false, keep, stride),
                     untimed);
                keep = nullptr;
            });
            metric("scenarios_per_s", passMedian(untimed, [&](const Pass &p) {
                       return ratio(static_cast<double>(n()), p.wall);
                   }), "1/s");
            metric("sim_events_per_s", passMedian(untimed, [](const Pass &p) {
                       return ratio(static_cast<double>(p.events()), p.wall);
                   }), "1/s");
            latencyMetrics(untimed);
            metric("setup_s", setupSeconds_, "s");
        } else {
            const auto start = Clock::now();
            take(runPass(*corpus_, threads, false, &kept, stride), untimed);
            // Peak RSS of one pass from a fresh process: later passes
            // grow it with allocator state, not with work.
            const double rss = peakRssMb(RUSAGE_SELF);
            alternatePasses(untimed, phased, threads, start);
            metric("peak_rss_mb", rss, "MB");
            for (const Pass &p : phased)
                replicaCheck(p, untimed.front());
            layerMetrics(untimed, phased, threads);
        }
        checkRepeats(untimed, "untimed");
        checkRepeats(phased, "phase-timed");
        referenceCheck(kept, stride);
        std::printf("perfbench: %s seed=%llu: %zu scenarios x %zu untimed "
                    "+ %zu phase-timed pass(es) on %d thread(s); pass "
                    "wall min/median/max %s untimed, %s phase-timed\n",
                    workloadName(opts_.workload),
                    static_cast<unsigned long long>(opts_.seed), n(),
                    untimed.size(), phased.size(), threads,
                    spread(passWalls(untimed)).c_str(),
                    spread(passWalls(phased)).c_str());
    }

    /** One campaign over the corpus, as `aitax_cli campaign` runs it. */
    sweep::CampaignSummary
    runCampaignOnce(const std::string &identity)
    {
        sweep::CampaignConfig cfg;
        cfg.scenarios = static_cast<int>(n());
        cfg.chunk = kCampaignChunk;
        cfg.shards = kCampaignWorkers;
        cfg.identity = identity;
        cfg.corpusSpec = identity;
        cfg.workerCmd = {opts_.cli, "sweep-serve", "--seed",
                         std::to_string(opts_.seed), "--jobs", "1",
                         "--engine", "fast"};
        attempted_ += n();
        return sweep::runCampaign(cfg);
    }

    /** A campaign must complete, unaided, with the expected report. */
    void
    checkCampaign(const sweep::CampaignSummary &sum, const std::string &report,
                  const std::string &expected)
    {
        if (sum.status != sweep::CampaignStatus::Ok)
            fail(n(), "campaign did not complete: " + sum.error);
        else if (report != expected)
            fail(n(), "campaign report differs from the in-process "
                      "aggregate");
        else if (sum.chunksRedispatched > 0)
            fail(std::min(n(), static_cast<std::size_t>(
                                   sum.chunksRedispatched * kCampaignChunk)),
                 "campaign re-dispatched " +
                     std::to_string(sum.chunksRedispatched) + " chunk(s)");
    }

    void
    runCampaignWorkload()
    {
        const std::string identity =
            campaignIdentity(opts_.seed, static_cast<int>(n()));
        const int threads = passThreads(opts_.workload);
        std::vector<Pass> untimed, phased;

        if (opts_.trace == 0) {
            // The in-process pass every campaign report is checked
            // against, in slices between the first campaign passes, so
            // its latencies sample the whole run rather than its start.
            constexpr std::size_t kSlices = 3;
            Pass base = startPass(n(), false);
            std::vector<sweep::CampaignSummary> sums;
            std::vector<double> walls;
            std::vector<std::string> reports;
            std::size_t slice = 0;
            const auto start = Clock::now();
            while (slice < kSlices || secondsSince(start) < opts_.seconds) {
                if (slice < kSlices) {
                    runSlice(base, *corpus_, threads, n() * slice / kSlices,
                             n() * (slice + 1) / kSlices);
                    ++slice;
                }
                const auto t0 = Clock::now();
                sums.push_back(runCampaignOnce(identity));
                walls.push_back(secondsSince(t0));
                reports.push_back(
                    sweep::campaignReportJson(identity, sums.back().aggregate));
            }
            take(std::move(base), untimed);
            const std::string expected =
                expectedReport(identity, untimed.front().records);
            for (std::size_t i = 0; i < sums.size(); ++i)
                checkCampaign(sums[i], reports[i], expected);
            std::vector<double> sps, eps;
            for (std::size_t i = 0; i < walls.size(); ++i) {
                sps.push_back(ratio(static_cast<double>(n()), walls[i]));
                eps.push_back(ratio(
                    static_cast<double>(sums[i].aggregate.events), walls[i]));
            }
            metric("scenarios_per_s", median(sps), "1/s");
            metric("sim_events_per_s", median(eps), "1/s");
            latencyMetrics(untimed);
            metric("setup_s", setupSeconds_, "s");
            std::printf("perfbench: fuzz-campaign seed=%llu: %zu campaign "
                        "pass(es) of %zu scenarios, %d workers, chunk %d, "
                        "wall min/median/max %s; latency from the "
                        "in-process check pass\n",
                        static_cast<unsigned long long>(opts_.seed),
                        walls.size(), n(), kCampaignWorkers, kCampaignChunk,
                        spread(walls).c_str());
        } else {
            const auto start = Clock::now();
            const sweep::CampaignSummary sum = runCampaignOnce(identity);
            const double wall = secondsSince(start);
            // The largest worker of the one campaign: both were reaped.
            const double rss = peakRssMb(RUSAGE_CHILDREN);
            take(runPass(*corpus_, threads, false), untimed);
            checkCampaign(sum,
                          sweep::campaignReportJson(identity, sum.aggregate),
                          expectedReport(identity, untimed.front().records));
            alternatePasses(untimed, phased, threads, start);
            for (const Pass &p : phased)
                replicaCheck(p, untimed.front());
            metric("peak_rss_mb", rss, "MB");
            layerMetrics(untimed, phased, threads, &sum, wall);
            std::printf("perfbench: fuzz-campaign seed=%llu: 1 campaign "
                        "pass of %zu scenarios in %.3f s; %zu untimed + %zu "
                        "phase-timed in-process pass(es) on %d thread(s), "
                        "wall min/median/max %s untimed, %s phase-timed\n",
                        static_cast<unsigned long long>(opts_.seed), n(), wall,
                        untimed.size(), phased.size(), threads,
                        spread(passWalls(untimed)).c_str(),
                        spread(passWalls(phased)).c_str());
        }
        checkRepeats(untimed, "untimed");
        checkRepeats(phased, "phase-timed");
    }

    static std::vector<double>
    passWalls(const std::vector<Pass> &passes)
    {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(p.wall);
        return v;
    }

    static double totalSeconds(const Pass &p)
    {
        return p.sumPhase([](const PhaseSample &s) { return s.total; });
    }

    template <typename F>
    static double
    passMedian(const std::vector<Pass> &passes, F f)
    {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(f(p));
        return median(v);
    }

    static double
    phaseMedian(const std::vector<Pass> &phased, double PhaseSample::*span)
    {
        return passMedian(phased, [span](const Pass &p) {
            return p.sumPhase([span](const PhaseSample &s) { return s.*span; });
        });
    }

    /** Per-layer metrics; @p fleet is the campaign's one pass, if any. */
    void
    layerMetrics(const std::vector<Pass> &untimed,
                 const std::vector<Pass> &phased, int threads,
                 const sweep::CampaignSummary *fleet = nullptr,
                 double fleet_wall = 0.0)
    {
        const Pass &p0 = phased.front();
        const auto count = [&p0](auto field) {
            return p0.sumPhase([&](const PhaseSample &s) {
                return static_cast<double>(field(s));
            });
        };
        const double total = passMedian(phased, totalSeconds);
        const double serialize = phaseMedian(phased, &PhaseSample::serialize);
        const double loop = phaseMedian(phased, &PhaseSample::loop);
        const double soc = phaseMedian(phased, &PhaseSample::socConstruct);
        const double app = phaseMedian(phased, &PhaseSample::appConstruct);
        const double warmup = phaseMedian(phased, &PhaseSample::warmup);
        const double restore = phaseMedian(phased, &PhaseSample::restore);

        metric("trace.serialize_s", serialize, "s");
        metric("trace.bytes", static_cast<double>(p0.traceBytes()), "bytes");
        metric("trace.serialize_share", passMedian(phased, [](const Pass &p) {
                   return ratio(p.sumPhase([](const PhaseSample &s) {
                                    return s.serialize;
                                }),
                                totalSeconds(p));
               }),
               "ratio");

        metric("sim.loop_s", loop, "s");
        metric("sim.events", static_cast<double>(p0.events()), "count");
        metric("sim.ns_per_event",
               ratio(1e9 * loop, count([](const PhaseSample &s) {
                         return s.loopEvents;
                     })),
               "ns");
        metric("sim.front_cache_hit_ratio",
               ratio(count([](const PhaseSample &s) {
                         return s.frontCacheHits;
                     }),
                     count([](const PhaseSample &s) {
                         return s.poppedEvents;
                     })),
               "ratio");

        metric("soc.construct_s", soc, "s");
        metric("app.construct_s", app, "s");

        const sweep::SnapshotCacheStats &c = p0.cache;
        metric("sweep.snapshot_hits", static_cast<double>(c.hits), "count");
        metric("sweep.snapshot_misses", static_cast<double>(c.misses),
               "count");
        metric("sweep.snapshot_stores", static_cast<double>(c.stores),
               "count");
        metric("sweep.snapshot_hit_ratio",
               ratio(static_cast<double>(c.hits),
                     static_cast<double>(c.hits + c.misses)),
               "ratio");
        metric("app.warmup_s", warmup, "s");
        metric("app.warmups",
               count([](const PhaseSample &s) { return s.warmedUp; }),
               "count");
        metric("soc.restore_s", restore, "s");
        metric("soc.restores",
               count([](const PhaseSample &s) { return s.restored; }),
               "count");
        metric("verify.collect_s", phaseMedian(phased, &PhaseSample::collect),
               "s");
        metric("verify.teardown_s",
               phaseMedian(phased, &PhaseSample::teardown), "s");

        // The fleet counters exist only for the campaign; 0 elsewhere.
        metric("sweep.fleet_efficiency",
               fleet ? ratio(total, fleet_wall * kCampaignWorkers) : 0.0,
               "ratio");
        metric("sweep.chunks_run", fleet ? fleet->chunksRun : 0, "count");
        metric("sweep.chunks_redispatched",
               fleet ? fleet->chunksRedispatched : 0, "count");
        metric("sweep.workers_lost", fleet ? fleet->workersLost : 0,
               "count");

        // The campaign's merge layer, timed over every workload's
        // outcomes; the reports must repeat exactly too.
        const std::string identity =
            campaignIdentity(opts_.seed, static_cast<int>(n()));
        std::vector<double> agg;
        std::vector<std::string> reports;
        for (const Pass &p : untimed) {
            const auto t0 = Clock::now();
            reports.push_back(expectedReport(identity, p.records));
            agg.push_back(secondsSince(t0));
            if (reports.back() != reports.front())
                fail(n(), "aggregate report differs from pass 0's");
        }
        metric("sweep.aggregate_s", median(agg), "s");
        metric("sweep.pool_efficiency", passMedian(phased, [&](const Pass &p) {
                   return ratio(totalSeconds(p), p.wall * threads);
               }),
               "ratio");

        const std::vector<Record> &recs = untimed.front().records;
        const auto mean = [&recs](auto field) {
            double s = 0.0;
            for (const Record &r : recs)
                s += field(r);
            return s / static_cast<double>(recs.size());
        };
        metric("core.e2e_ms_mean",
               mean([](const Record &r) { return r.e2eMs; }), "ms");
        const char *stage_names[] = {"core.capture_ms_mean",
                                     "core.pre_ms_mean",
                                     "core.inference_ms_mean",
                                     "core.post_ms_mean"};
        for (std::size_t i = 0; i < core::kAllStages.size(); ++i)
            metric(stage_names[i],
                   mean([i](const Record &r) { return r.stageMs[i]; }), "ms");
        metric("core.ai_tax_frac_mean",
               mean([](const Record &r) { return r.aiTaxFrac; }), "ratio");

        // A run's first untimed pass is a cold start (arena and
        // allocator growth); the phase-timed passes are compared with
        // the warm ones.
        std::vector<double> calls, walls;
        for (std::size_t i = untimed.size() > 1 ? 1 : 0; i < untimed.size();
             ++i) {
            double s = 0.0;
            for (double ms : untimed[i].latencyMs)
                s += ms / 1e3;
            calls.push_back(s);
            walls.push_back(untimed[i].wall);
        }
        metric("phase.accounted_frac",
               ratio(passMedian(phased,
                                [](const Pass &p) {
                                    return p.sumPhase([](const PhaseSample &s) {
                                        return s.spans();
                                    });
                                }),
                     median(calls)),
               "ratio");
        metric("probe_overhead_frac",
               ratio(median(passWalls(phased)), median(walls)) - 1.0,
               "ratio");
        std::printf("perfbench: phase shares of runScenario host time: "
                    "serialize %.3f, loop %.3f, construct %.3f, "
                    "warm-up/restore %.3f\n",
                    ratio(serialize, total), ratio(loop, total),
                    ratio(soc + app, total), ratio(warmup + restore, total));
    }

    void
    printResult() const
    {
        std::string out = "{\"correct\": ";
        out += failed_ == 0 ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            char num[40];
            std::snprintf(num, sizeof num, "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            out += std::string(i ? ", \"" : "\"") + m.name +
                   "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
                   "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }

    Options opts_;
    const std::vector<verify::Scenario> *corpus_ = nullptr;
    double setupSeconds_ = 0.0;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<Metric> metrics_;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: aitax_perfbench run --workload W --seed N "
                 "--seconds S --trace 0|1 --cli PATH [--size full|tiny]\n"
                 "       aitax_perfbench setup --workload W --seed N "
                 "[--size full|tiny]\n"
                 "workloads: fuzz-campaign seed-sweep loaded-app\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options o;
    o.mode = argv[1];
    if (o.mode != "run" && o.mode != "setup")
        usage();
    bool have_workload = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload")
            have_workload = parseWorkload(val, o.workload);
        else if (arg == "--seed")
            o.seed = std::strtoull(val.c_str(), &end, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(val.c_str(), &end);
        else if (arg == "--trace")
            o.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
        else if (arg == "--cli")
            o.cli = val;
        else if (arg == "--size" && (val == "full" || val == "tiny"))
            o.size = val == "full" ? Size::Full : Size::Tiny;
        else
            usage();
        if (end != nullptr && (*end != '\0' || end == val.c_str()))
            usage();
    }
    if (!have_workload || (o.trace != 0 && o.trace != 1) ||
        !(o.seconds > 0.0) ||
        (o.mode == "run" && o.workload == Workload::FuzzCampaign &&
         o.cli.empty()))
        usage();
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        if (opts.mode == "setup") {
            const Setup s = setupWorkload(opts.workload, opts.seed, opts.size);
            std::printf("%.17g\n", s.seconds);
            return 0;
        }
        Run run(opts);
        return run.execute();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
