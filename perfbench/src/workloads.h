/**
 * @file
 * The benchmark's workloads: corpus generation from the benchmark seed
 * and the set-up every run pays before its first timed scenario.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/scenario.h"

namespace aitax::perfbench {

enum class Workload
{
    /** sweep::runCampaign over the aitax_cli fuzz corpus, 2 workers. */
    FuzzCampaign,
    /** Fig. 11 style CLI-benchmark corpus, one caller thread. */
    SeedSweep,
    /** Fig. 9/10 style multitenant app corpus, 2-thread SweepRunner. */
    LoadedApp,
};

/** "fuzz-campaign" | "seed-sweep" | "loaded-app"; false if unknown. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** Corpus scale: Full for measurements, Tiny for the self-test. */
enum class Size
{
    Full,
    Tiny,
};

/** Campaign chunk size (part of the campaign identity). */
constexpr int kCampaignChunk = 32;
/** Campaign worker processes (`aitax_cli sweep-serve --jobs 1`). */
constexpr int kCampaignWorkers = 2;

struct Setup
{
    std::vector<verify::Scenario> corpus;
    /** Corpus generation plus the model-graph cache fill, seconds. */
    double seconds = 0.0;
};

/**
 * Generate the workload's corpus from @p seed and fill
 * models::cachedGraph for every (model, dtype) it runs, so no timed
 * scenario pays a graph build.
 */
Setup setupWorkload(Workload w, std::uint64_t seed, Size size);

/**
 * SweepRunner threads of the in-process passes. The campaign's run on
 * one thread, as each `--jobs 1` worker does, which also keeps their
 * snapshot-cache counts exact (concurrent callers race on first use).
 */
int passThreads(Workload w);

/** The campaign identity line, built exactly as `aitax_cli campaign`. */
std::string campaignIdentity(std::uint64_t seed, int scenarios);

} // namespace aitax::perfbench
