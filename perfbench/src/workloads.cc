#include "workloads.h"

#include <chrono>
#include <set>
#include <stdexcept>
#include <utility>

#include "models/zoo.h"
#include "sim/random.h"

namespace aitax::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Config
{
    const char *model;
    tensor::DType dtype;
    app::FrameworkKind framework;
};

/** Fig. 11: the variability study's four CLI-benchmark configurations. */
constexpr Config kSweepConfigs[] = {
    {"mobilenet_v1", tensor::DType::Float32, app::FrameworkKind::TfliteCpu},
    {"mobilenet_v1", tensor::DType::UInt8,
     app::FrameworkKind::TfliteHexagon},
    {"efficientnet_lite0", tensor::DType::UInt8,
     app::FrameworkKind::TfliteNnapi},
    {"inception_v3", tensor::DType::Float32, app::FrameworkKind::TfliteGpu},
};
constexpr const char *kSweepSocs[] = {"Snapdragon 845", "Snapdragon 865"};

/** Fig. 9/10: the multitenancy study's foreground applications. */
constexpr Config kAppConfigs[] = {
    {"mobilenet_v1", tensor::DType::UInt8,
     app::FrameworkKind::TfliteHexagon},
    {"mobilenet_v1", tensor::DType::Float32, app::FrameworkKind::TfliteCpu},
    {"ssd_mobilenet_v2", tensor::DType::UInt8,
     app::FrameworkKind::TfliteNnapi},
    {"posenet", tensor::DType::Float32, app::FrameworkKind::TfliteGpu},
};
constexpr app::HarnessMode kAppModes[] = {app::HarnessMode::AndroidApp,
                                          app::HarnessMode::BenchmarkApp};

verify::Scenario
scenarioFor(const Config &c, const char *soc, app::HarnessMode mode,
            int runs, std::uint64_t seed)
{
    verify::Scenario s;
    s.modelId = c.model;
    s.dtype = c.dtype;
    s.framework = c.framework;
    s.socName = soc;
    s.mode = mode;
    s.runs = runs;
    s.seed = seed;
    return s;
}

/** Seeds per (configuration, SoC): 8 x 128 = 1024 scenarios. */
std::vector<verify::Scenario>
seedSweepCorpus(std::uint64_t seed, Size size)
{
    const int seeds = size == Size::Full ? 128 : 4;
    sim::RandomStream rng(seed, "perfbench-seed-sweep");
    std::vector<verify::Scenario> out;
    for (int i = 0; i < seeds; ++i)
        for (const Config &c : kSweepConfigs)
            for (const char *soc : kSweepSocs)
                out.push_back(scenarioFor(c, soc,
                                          app::HarnessMode::CliBenchmark,
                                          10, rng.nextU64() >> 1));
    return out;
}

/**
 * Every (mode, application, DSP load 0-2, CPU load 0-2) point on the
 * SD845: 72 scenarios per repetition, 100 frames each.
 */
std::vector<verify::Scenario>
loadedAppCorpus(std::uint64_t seed, Size size)
{
    const int reps = size == Size::Full ? 2 : 1;
    const int runs = size == Size::Full ? 100 : 10;
    sim::RandomStream rng(seed, "perfbench-loaded-app");
    std::vector<verify::Scenario> out;
    for (int r = 0; r < reps; ++r)
        for (app::HarnessMode mode : kAppModes)
            for (const Config &c : kAppConfigs)
                for (int dsp = 0; dsp <= 2; ++dsp)
                    for (int cpu = 0; cpu <= 2; ++cpu) {
                        verify::Scenario s =
                            scenarioFor(c, "Snapdragon 845", mode, runs,
                                        rng.nextU64() >> 1);
                        s.dspLoadProcesses = dsp;
                        s.cpuLoadProcesses = cpu;
                        out.push_back(s);
                    }
    return out;
}

/** The campaign corpus, index for index as the workers resolve it. */
std::vector<verify::Scenario>
fuzzCorpus(std::uint64_t seed, Size size)
{
    const int n = size == Size::Full ? 4096 : 64;
    std::vector<verify::Scenario> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(verify::fuzzScenario(seed, i));
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::FuzzCampaign, Workload::SeedSweep,
                       Workload::LoadedApp})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::FuzzCampaign: return "fuzz-campaign";
      case Workload::SeedSweep: return "seed-sweep";
      case Workload::LoadedApp: return "loaded-app";
    }
    return "unknown";
}

Setup
setupWorkload(Workload w, std::uint64_t seed, Size size)
{
    const auto start = Clock::now();
    Setup out;
    switch (w) {
      case Workload::FuzzCampaign: out.corpus = fuzzCorpus(seed, size); break;
      case Workload::SeedSweep: out.corpus = seedSweepCorpus(seed, size); break;
      case Workload::LoadedApp: out.corpus = loadedAppCorpus(seed, size); break;
    }
    std::set<std::pair<std::string, tensor::DType>> graphs;
    for (const verify::Scenario &s : out.corpus) {
        if (!verify::scenarioValid(s))
            throw std::runtime_error("invalid corpus scenario: " +
                                     s.describe());
        graphs.emplace(s.modelId, s.dtype);
        // verify's background loops run mobilenet_v1 u8.
        if (s.dspLoadProcesses + s.cpuLoadProcesses > 0)
            graphs.emplace("mobilenet_v1", tensor::DType::UInt8);
    }
    for (const auto &[model, dtype] : graphs)
        models::cachedGraph(model, dtype);
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

int
passThreads(Workload w)
{
    return w == Workload::LoadedApp ? 2 : 1;
}

std::string
campaignIdentity(std::uint64_t seed, int scenarios)
{
    return "corpus=fuzz seed=" + std::to_string(seed) +
           " scenarios=" + std::to_string(scenarios) +
           " chunk=" + std::to_string(kCampaignChunk) +
           " faults=0 engine=fast";
}

} // namespace aitax::perfbench
