/**
 * @file
 * Fleet-scale campaign verification (ctest -L verify).
 *
 * Proves the determinism contract one level above the thread pool:
 * the campaign aggregate report is byte-identical at any
 * --shards N x --jobs M split, survives a mid-campaign worker crash
 * (chunk re-dispatch) and a coordinator interruption + --resume with
 * the same bytes, and the mergeable StreamingDistribution sketch that
 * makes online aggregation possible is merge-order independent and
 * within its documented error of the sample-retaining Distribution.
 *
 * Campaigns here drive the real aitax_cli `sweep-serve` worker over
 * the real fork/exec pipe protocol (AITAX_CLI_PATH is baked in by the
 * build), so what this suite passes is what production campaigns run.
 * Its report is also pinned to an in-process fold of full
 * verify::runScenario results, which the workers' report-only runs
 * must reproduce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/random.h"
#include "stats/distribution.h"
#include "stats/streaming_distribution.h"
#include "sweep/campaign.h"
#include "verify/scenario.h"

namespace aitax {
namespace {

// --- StreamingDistribution: merge algebra and error bound ------------

/** Seeded latency-shaped samples (lognormal around ~30 ms). */
std::vector<double>
seededSamples(std::uint64_t seed, int n)
{
    sim::RandomStream rng(seed, "campaign-test");
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(30.0 * rng.lognormalFactor(0.5));
    return out;
}

stats::StreamingDistribution
sketchOf(const std::vector<double> &xs)
{
    stats::StreamingDistribution d;
    for (double x : xs)
        d.add(x);
    return d;
}

TEST(StreamingDistribution, MergeIsAssociativeAndCommutative)
{
    const auto a = sketchOf(seededSamples(1, 400));
    const auto b = sketchOf(seededSamples(2, 700));
    const auto c = sketchOf(seededSamples(3, 150));

    // (a + b) + c
    stats::StreamingDistribution abc = a;
    abc.merge(b);
    abc.merge(c);
    // a + (b + c)
    stats::StreamingDistribution bc = b;
    bc.merge(c);
    stats::StreamingDistribution a_bc = a;
    a_bc.merge(bc);
    // c + b + a
    stats::StreamingDistribution cba = c;
    cba.merge(b);
    cba.merge(a);

    // Counters are exactly merge-order independent: count, extremes
    // and every percentile. The moment sums are only FP-commutative
    // (which is why the campaign merges in canonical chunk order for
    // byte-stable reports) — near, not bit-equal, across orders.
    for (const auto *other : {&a_bc, &cba}) {
        EXPECT_EQ(abc.count(), other->count());
        EXPECT_EQ(abc.min(), other->min());
        EXPECT_EQ(abc.max(), other->max());
        for (double p : {1.0, 25.0, 50.0, 90.0, 99.0})
            EXPECT_EQ(abc.percentile(p), other->percentile(p))
                << "p" << p;
        EXPECT_NEAR(abc.sum(), other->sum(), abc.sum() * 1e-12);
    }
    EXPECT_EQ(abc.count(), 1250u);

    // Same merge order twice IS bit-identical — the property the
    // campaign's canonical chunk-order merging relies on.
    stats::StreamingDistribution abc2 = a;
    abc2.merge(b);
    abc2.merge(c);
    EXPECT_TRUE(abc.identicalTo(abc2));

    // Merging mirrors adding every sample to one sketch.
    std::vector<double> all = seededSamples(1, 400);
    for (double x : seededSamples(2, 700))
        all.push_back(x);
    for (double x : seededSamples(3, 150))
        all.push_back(x);
    const auto whole = sketchOf(all);
    EXPECT_EQ(whole.count(), abc.count());
    EXPECT_EQ(whole.min(), abc.min());
    EXPECT_EQ(whole.max(), abc.max());
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0})
        EXPECT_EQ(whole.percentile(p), abc.percentile(p)) << "p" << p;
}

TEST(StreamingDistribution, WithinDocumentedErrorOfExactDistribution)
{
    const auto xs = seededSamples(42, 10000);
    stats::Distribution exact;
    stats::StreamingDistribution sketch;
    for (double x : xs) {
        exact.add(x);
        sketch.add(x);
    }

    // Extremes and count are exact; the mean agrees up to summation
    // order (Distribution's accumulator may sum in a different
    // association than the sketch's running sum).
    EXPECT_EQ(sketch.count(), 10000u);
    EXPECT_NEAR(sketch.mean(), exact.mean(),
                exact.mean() * 1e-9);
    EXPECT_EQ(sketch.min(), exact.min());
    EXPECT_EQ(sketch.max(), exact.max());

    // Quantiles: the sketch answers with a value within
    // kRelativeAccuracy of a sample whose rank is exact; the exact
    // Distribution interpolates between adjacent order statistics, so
    // allow twice the sketch's own bound to cover that gap.
    const double tol = 2.0 * stats::StreamingDistribution::kRelativeAccuracy;
    for (double p : {1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
        const double e = exact.percentile(p);
        const double s = sketch.percentile(p);
        EXPECT_NEAR(s, e, e * tol) << "p" << p;
    }
}

TEST(StreamingDistribution, SerializeRoundTripsBitExactly)
{
    const auto d = sketchOf(seededSamples(9, 2000));
    stats::StreamingDistribution back;
    std::string err;
    ASSERT_TRUE(stats::StreamingDistribution::deserialize(d.serialize(),
                                                          back, &err))
        << err;
    EXPECT_TRUE(back.identicalTo(d));
    EXPECT_EQ(back.serialize(), d.serialize());

    stats::StreamingDistribution empty;
    ASSERT_TRUE(stats::StreamingDistribution::deserialize(
        empty.serialize(), back, &err))
        << err;
    EXPECT_TRUE(back.identicalTo(empty));

    EXPECT_FALSE(
        stats::StreamingDistribution::deserialize("sd2 c=1", back, &err));
    EXPECT_FALSE(stats::StreamingDistribution::deserialize(
        "sd1 c=2 s=1 q=1 lo=1 hi=1 b=0:1", back, &err))
        << "bucket total disagreeing with count must be rejected";
}

// --- Campaigns over the real sweep-serve worker ----------------------

#ifndef AITAX_CLI_PATH
#error "build must define AITAX_CLI_PATH"
#endif

constexpr int kScenarios = 48;
constexpr int kChunk = 8;
constexpr std::uint64_t kSeed = 77;

sweep::CampaignConfig
campaignConfig(int shards, int jobs)
{
    sweep::CampaignConfig cfg;
    cfg.scenarios = kScenarios;
    cfg.chunk = kChunk;
    cfg.shards = shards;
    cfg.identity = "corpus=fuzz seed=" + std::to_string(kSeed) +
                   " scenarios=" + std::to_string(kScenarios) +
                   " chunk=" + std::to_string(kChunk) +
                   " faults=0 engine=fast";
    // Exercise the v2 spec handshake on every pipe campaign: the
    // worker re-resolves its corpus from this line and must produce
    // the same bytes as its argv-bound binding.
    cfg.corpusSpec = cfg.identity;
    cfg.workerCmd = {AITAX_CLI_PATH,
                     "sweep-serve",
                     "--seed",
                     std::to_string(kSeed),
                     "--jobs",
                     std::to_string(jobs)};
    return cfg;
}

std::string
reportOf(const sweep::CampaignSummary &sum,
         const sweep::CampaignConfig &cfg)
{
    return sweep::campaignReportJson(cfg.identity, sum.aggregate);
}

/** The uninterrupted single-process reference report. */
const std::string &
baselineReport()
{
    static const std::string report = [] {
        const auto cfg = campaignConfig(1, 1);
        const auto sum = sweep::runCampaign(cfg);
        EXPECT_EQ(sum.status, sweep::CampaignStatus::Ok) << sum.error;
        return reportOf(sum, cfg);
    }();
    return report;
}

TEST(Campaign, AggregateByteIdenticalAcrossShardAndJobSplits)
{
    const std::string &base = baselineReport();
    ASSERT_FALSE(base.empty());
    for (const int shards : {2, 4}) {
        for (const int jobs : {1, 8}) {
            const auto cfg = campaignConfig(shards, jobs);
            const auto sum = sweep::runCampaign(cfg);
            ASSERT_EQ(sum.status, sweep::CampaignStatus::Ok)
                << sum.error;
            EXPECT_EQ(reportOf(sum, cfg), base)
                << "shards=" << shards << " jobs=" << jobs;
            EXPECT_EQ(sum.chunksRun, kScenarios / kChunk);
        }
    }
}

/**
 * Workers run each scenario report-only. Their report must equal the
 * one folded in-process from full runScenario results, merged in chunk
 * order as the coordinator merges, so skipping the trace changes no
 * aggregated byte.
 */
TEST(Campaign, WorkerReportEqualsInProcessFullRuns)
{
    sweep::CampaignAggregate total;
    for (int b = 0; b < kScenarios; b += kChunk) {
        sweep::CampaignAggregate chunk;
        for (int i = b; i < std::min(kScenarios, b + kChunk); ++i) {
            const verify::ScenarioResult r = verify::runScenario(
                verify::fuzzScenario(kSeed, i), sim::EngineMode::Fast,
                verify::ResultRequest::Full);
            ASSERT_FALSE(r.chromeTraceJson.empty());
            chunk.addScenario({r.report.endToEndMeanMs(), r.eventsExecuted});
        }
        total.merge(chunk);
    }
    EXPECT_EQ(sweep::campaignReportJson(campaignConfig(1, 1).identity, total),
              baselineReport());
}

TEST(Campaign, WorkerCrashIsReDispatchedByteExactly)
{
    auto cfg = campaignConfig(2, 1);
    cfg.killWorkerAfterRanges = 2; // worker 0 dies on its 2nd chunk
    const auto sum = sweep::runCampaign(cfg);
    ASSERT_EQ(sum.status, sweep::CampaignStatus::Ok) << sum.error;
    EXPECT_GE(sum.workersLost, 1);
    EXPECT_GE(sum.chunksRedispatched, 1);
    EXPECT_EQ(reportOf(sum, cfg), baselineReport());
}

TEST(Campaign, InterruptAndResumeReproducesBytes)
{
    // Interrupt at several different chunk frontiers; every resumed
    // completion must reproduce the uninterrupted bytes.
    for (const int stop_after : {1, 3}) {
        const std::string manifest =
            testing::TempDir() + "aitax_campaign_resume_" +
            std::to_string(stop_after) + ".txt";
        std::remove(manifest.c_str());

        auto cfg = campaignConfig(2, 1);
        cfg.checkpointPath = manifest;
        cfg.stopAfterChunks = stop_after;
        const auto interrupted = sweep::runCampaign(cfg);
        ASSERT_EQ(interrupted.status, sweep::CampaignStatus::Interrupted)
            << interrupted.error;
        EXPECT_GE(interrupted.chunksRun, stop_after);
        EXPECT_LT(interrupted.chunksRun, kScenarios / kChunk);

        auto resume_cfg = campaignConfig(2, 1);
        resume_cfg.checkpointPath = manifest;
        resume_cfg.resume = true;
        resume_cfg.stopAfterChunks = -1;
        const auto resumed = sweep::runCampaign(resume_cfg);
        ASSERT_EQ(resumed.status, sweep::CampaignStatus::Ok)
            << resumed.error;
        EXPECT_EQ(resumed.chunksResumed, interrupted.chunksRun);
        EXPECT_EQ(resumed.chunksRun + resumed.chunksResumed,
                  kScenarios / kChunk);
        EXPECT_EQ(reportOf(resumed, resume_cfg), baselineReport())
            << "stop_after=" << stop_after;
        std::remove(manifest.c_str());
    }
}

TEST(Campaign, ResumeRejectsForeignManifest)
{
    const std::string manifest =
        testing::TempDir() + "aitax_campaign_foreign.txt";
    std::remove(manifest.c_str());

    auto cfg = campaignConfig(1, 1);
    cfg.checkpointPath = manifest;
    cfg.stopAfterChunks = 1;
    ASSERT_EQ(sweep::runCampaign(cfg).status,
              sweep::CampaignStatus::Interrupted);

    // Same manifest, different campaign identity: must refuse rather
    // than silently merge another campaign's partials.
    auto other = campaignConfig(1, 1);
    other.identity = "corpus=fuzz seed=78 scenarios=48 chunk=8 "
                     "faults=0 engine=fast";
    other.checkpointPath = manifest;
    other.resume = true;
    const auto sum = sweep::runCampaign(other);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("different campaign"), std::string::npos)
        << sum.error;
    std::remove(manifest.c_str());
}

TEST(Campaign, AggregateSerializationRoundTrips)
{
    sweep::CampaignAggregate agg;
    for (int i = 0; i < 100; ++i) {
        sweep::ScenarioOutcome o;
        o.e2eMeanMs = 10.0 + static_cast<double>(i) * 0.37;
        o.events = 1000 + static_cast<std::uint64_t>(i);
        agg.addScenario(o);
    }
    sweep::CampaignAggregate back;
    std::string err;
    ASSERT_TRUE(sweep::CampaignAggregate::deserialize(agg.serialize(),
                                                      back, &err))
        << err;
    EXPECT_EQ(back.serialize(), agg.serialize());
    EXPECT_EQ(back.scenarios, agg.scenarios);
    EXPECT_EQ(back.events, agg.events);
    EXPECT_EQ(back.checksumMs, agg.checksumMs);
    EXPECT_TRUE(back.latencyMs.identicalTo(agg.latencyMs));
}

} // namespace
} // namespace aitax
