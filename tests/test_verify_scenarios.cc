/**
 * @file
 * Seeded scenario generator tests: sampling determinism, validity of
 * everything the fuzzer produces, the (master seed, index) replay
 * contract, and the witnesses runScenario collects.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "soc/chipsets.h"
#include "verify/invariants.h"
#include "verify/scenario.h"

namespace aitax::verify {
namespace {

using app::FrameworkKind;
using app::HarnessMode;
using tensor::DType;

bool
sameScenario(const Scenario &a, const Scenario &b)
{
    return a.modelId == b.modelId && a.socName == b.socName &&
           a.dtype == b.dtype && a.framework == b.framework &&
           a.mode == b.mode && a.runs == b.runs &&
           a.dspLoadProcesses == b.dspLoadProcesses &&
           a.cpuLoadProcesses == b.cpuLoadProcesses && a.seed == b.seed;
}

TEST(ScenarioSampler, EverySampleIsValid)
{
    sim::RandomStream rng(42, "sampler-test");
    for (int i = 0; i < 200; ++i) {
        const Scenario s = sampleScenario(rng);
        EXPECT_TRUE(scenarioValid(s)) << s.describe();
        EXPECT_NE(models::findModel(s.modelId), nullptr);
        EXPECT_GE(s.runs, 1);
    }
}

TEST(ScenarioSampler, CoversTheConfigurationSpace)
{
    sim::RandomStream rng(7, "coverage-test");
    std::set<std::string> socs, model_ids;
    std::set<int> frameworks, modes;
    int with_load = 0;
    for (int i = 0; i < 300; ++i) {
        const Scenario s = sampleScenario(rng);
        socs.insert(s.socName);
        model_ids.insert(s.modelId);
        frameworks.insert(static_cast<int>(s.framework));
        modes.insert(static_cast<int>(s.mode));
        with_load += (s.dspLoadProcesses + s.cpuLoadProcesses) > 0;
    }
    EXPECT_EQ(socs.size(), 4u);
    EXPECT_GE(model_ids.size(), 10u);
    EXPECT_EQ(frameworks.size(), 5u);
    EXPECT_EQ(modes.size(), 3u);
    EXPECT_GT(with_load, 100);
}

TEST(ScenarioSampler, FuzzScenarioIsAPureFunction)
{
    for (int i = 0; i < 20; ++i) {
        const Scenario a = fuzzScenario(99, i);
        const Scenario b = fuzzScenario(99, i);
        EXPECT_TRUE(sameScenario(a, b)) << i;
    }
    // Different indices (and different master seeds) decorrelate.
    int distinct = 0;
    for (int i = 1; i < 20; ++i)
        distinct += !sameScenario(fuzzScenario(99, 0), fuzzScenario(99, i));
    EXPECT_GT(distinct, 15);
    EXPECT_FALSE(
        sameScenario(fuzzScenario(99, 0), fuzzScenario(100, 0)));
}

TEST(ScenarioSampler, ReplayCommandNamesSeedAndIndex)
{
    const std::string cmd = replayCommand(1234, 7);
    EXPECT_NE(cmd.find("--seed 1234"), std::string::npos) << cmd;
    EXPECT_NE(cmd.find("--replay 7"), std::string::npos) << cmd;
}

TEST(ScenarioLabel, IsFilesystemSafeAndDistinguishing)
{
    sim::RandomStream rng(3, "label-test");
    std::set<std::string> labels;
    for (int i = 0; i < 50; ++i) {
        const Scenario s = sampleScenario(rng);
        const std::string label = s.label();
        for (char c : label) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '_';
            EXPECT_TRUE(ok) << label;
        }
        labels.insert(label);
    }
    // Seeds alone make collisions essentially impossible.
    EXPECT_EQ(labels.size(), 50u);
}

TEST(ScenarioValidity, RejectsImpossibleCombinations)
{
    Scenario s;
    s.modelId = "no_such_model";
    EXPECT_FALSE(scenarioValid(s));

    s = Scenario{};
    s.modelId = "mobile_bert"; // no transformer kernels on SNPE
    s.framework = FrameworkKind::SnpeDsp;
    EXPECT_FALSE(scenarioValid(s));

    s = Scenario{};
    s.modelId = "posenet"; // no quantized variant in Table I
    s.dtype = DType::UInt8;
    EXPECT_FALSE(scenarioValid(s));

    s = Scenario{};
    s.modelId = "mobilenet_v1"; // Hexagon delegate is int8-only
    s.framework = FrameworkKind::TfliteHexagon;
    s.dtype = DType::Float32;
    EXPECT_FALSE(scenarioValid(s));

    s.dtype = DType::UInt8;
    EXPECT_TRUE(scenarioValid(s));

    s.runs = 0;
    EXPECT_FALSE(scenarioValid(s));
}

TEST(ScenarioLabel, BenchKnobsAppearOnlyWhenNotDefault)
{
    Scenario s;
    s.runs = 4;
    s.seed = 3;
    const std::string label = s.label();
    const std::string described = s.describe();
    EXPECT_EQ(label, "mobilenet_v1_sd845_fp32_tflite_cpu_android_app_r4_s3");
    EXPECT_EQ(described.find("thread"), std::string::npos) << described;
    EXPECT_EQ(described.find("instrumentation"), std::string::npos)
        << described;
    for (const char *knob :
         {"preprocess", "interference", "fabric", "coupled"})
        EXPECT_EQ(described.find(knob), std::string::npos) << described;

    Scenario knobs = s;
    knobs.threads = 1;
    knobs.instrumentation = true;
    knobs.preprocessOnDsp = true;
    knobs.suppressInterference = true;
    knobs.fabricContention = true;
    knobs.dspTightlyCoupled = true;
    EXPECT_EQ(knobs.label(),
              "mobilenet_v1_sd845_fp32_tflite_cpu_android_app_r4_t1_instr_"
              "predsp_quiet_axi_tight_s3");
    const std::string knobs_described = knobs.describe();
    for (const char *knob :
         {"threads=1", "instrumentation", "preprocess on DSP",
          "interference suppressed", "fabric contention",
          "tightly coupled DSP"})
        EXPECT_NE(knobs_described.find(knob), std::string::npos)
            << knobs_described;
}

/**
 * An invalid scenario is refused in every build type with
 * std::invalid_argument naming it, before any system is built.
 */
TEST(ScenarioRunner, InvalidScenarioThrows)
{
    Scenario unknown_model;
    unknown_model.modelId = "no_such_model";
    Scenario hexagon_fp32;
    hexagon_fp32.framework = FrameworkKind::TfliteHexagon;
    hexagon_fp32.dtype = DType::Float32;
    Scenario no_runs;
    no_runs.runs = 0;

    for (const Scenario &s : {unknown_model, hexagon_fp32, no_runs}) {
        ASSERT_FALSE(scenarioValid(s)) << s.describe();
        for (auto engine :
             {sim::EngineMode::Fast, sim::EngineMode::Reference}) {
            try {
                runScenario(s, engine);
                ADD_FAILURE() << "no throw: " << s.describe();
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(s.describe()),
                          std::string::npos)
                    << e.what();
            }
        }
        EXPECT_THROW(ScenarioRun(s, sim::EngineMode::Fast),
                     std::invalid_argument);
    }
    // The arena is untouched: a valid run still works afterwards.
    Scenario ok;
    ok.runs = 2;
    EXPECT_EQ(runScenario(ok).report.runs(), 2u);
}

TEST(ScenarioRunner, CollectsReportAndWitnesses)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::Float32;
    s.framework = FrameworkKind::TfliteCpu;
    s.mode = HarnessMode::AndroidApp;
    s.runs = 6;
    s.seed = 9;
    const auto result = runScenario(s);
    EXPECT_EQ(result.report.runs(), 6u);
    EXPECT_GT(result.endTimeNs, 0);
    EXPECT_GT(result.energyMj, 0.0);
    EXPECT_GT(result.thermalSpeedFactor, 0.0);
    EXPECT_LE(result.thermalSpeedFactor, 1.0);
    // A CPU pipeline never crosses FastRPC.
    EXPECT_TRUE(result.rpcLog.empty());
    // The trace is a JSON array with at least one CPU track.
    EXPECT_EQ(result.chromeTraceJson.front(), '[');
    EXPECT_NE(result.chromeTraceJson.find("thread_name"),
              std::string::npos);
}

TEST(ScenarioRunner, DspScenarioLogsRpcCalls)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::UInt8;
    s.framework = FrameworkKind::SnpeDsp;
    s.mode = HarnessMode::CliBenchmark;
    s.runs = 6;
    s.seed = 9;
    const auto result = runScenario(s);
    EXPECT_FALSE(result.rpcLog.empty());
}

TEST(ScenarioRunner, BackgroundLoadActuallyRuns)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::UInt8;
    s.framework = FrameworkKind::TfliteHexagon;
    s.mode = HarnessMode::AndroidApp;
    s.runs = 6;
    s.seed = 9;
    s.dspLoadProcesses = 1;
    s.cpuLoadProcesses = 1;
    const auto result = runScenario(s);
    EXPECT_GT(result.backgroundInferences, 0);
}

} // namespace
} // namespace aitax::verify
