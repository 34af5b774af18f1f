/**
 * @file
 * Ablation: thermal throttling.
 *
 * The paper's methodology (Section III-D) cools the device to its 33 C
 * idle temperature before every benchmark because "mobile SoCs are
 * particularly susceptible to thermal throttling". This harness shows
 * what their protocol avoids: with the thermal model enabled, a
 * sustained CPU inference loop heats the cluster and per-inference
 * latency degrades; benches that rest between runs do not.
 */

#include <iostream>

#include "bench/bench_common.h"

namespace {

using namespace aitax;

/** Sustained run: inferences back to back; report per-chunk means. */
std::vector<double>
sustainedRun(bool thermal_enabled, int chunks, int runs_per_chunk,
             sim::DurationNs rest_between_chunks)
{
    auto platform = soc::makeSnapdragon845();
    platform.thermal.enabled = thermal_enabled;
    platform.thermal.heatPerBusySec = 0.05;
    platform.thermal.coolingTauSec = 30.0;
    platform.thermal.throttleThreshold = 2.0;
    platform.thermal.throttledFactor = 0.65;
    // The runner has no thermal-model knob in Scenario and schedules
    // one batch of runs with no idle gaps between chunks, which let the
    // SoC cool here. aitax-lint: allow(hand-built-system)
    soc::SocSystem sys(platform, 7);

    app::PipelineConfig cfg;
    cfg.model = models::findModel("inception_v3");
    cfg.dtype = tensor::DType::Float32;
    cfg.framework = app::FrameworkKind::TfliteCpu;
    cfg.mode = app::HarnessMode::CliBenchmark;
    app::Application application(sys, cfg);

    std::vector<double> chunk_means;
    for (int c = 0; c < chunks; ++c) {
        core::TaxReport report;
        bool done = false;
        application.scheduleRuns(runs_per_chunk, report,
                                 [&](sim::TimeNs) { done = true; });
        sys.run();
        (void)done;
        chunk_means.push_back(
            report.stageMeanMs(core::Stage::Inference));
        if (rest_between_chunks > 0) {
            // Idle cooldown: schedule a no-op far in the future so
            // virtual time (and the thermal model) advances.
            sys.simulator().scheduleIn(rest_between_chunks, [] {});
            sys.run();
        }
    }
    return chunk_means;
}

} // namespace

int
main()
{
    bench::heading(
        "Ablation: thermal throttling under sustained load",
        "Section III-D methodology (benchmarks run once the CPU is "
        "cooled to its ~33 C idle temperature)",
        "with the thermal model on, sustained inference slows down "
        "over time; resting between chunks (the paper's protocol) "
        "keeps latency flat, as does disabling the model");

    constexpr int kChunks = 6;
    constexpr int kRunsPerChunk = 25;

    const auto cold = sustainedRun(false, kChunks, kRunsPerChunk, 0);
    const auto hot = sustainedRun(true, kChunks, kRunsPerChunk, 0);
    const auto rested = sustainedRun(true, kChunks, kRunsPerChunk,
                                     aitax::sim::secToNs(90.0));

    aitax::stats::Table table({"chunk (25 runs each)",
                               "thermal off (ms)",
                               "sustained, thermal on (ms)",
                               "90 s rest between chunks (ms)"});
    for (int c = 0; c < kChunks; ++c) {
        table.addRow({std::to_string(c + 1),
                      bench::fmtMs(cold[static_cast<std::size_t>(c)]),
                      bench::fmtMs(hot[static_cast<std::size_t>(c)]),
                      bench::fmtMs(
                          rested[static_cast<std::size_t>(c)])});
    }
    table.render(std::cout);
    std::printf("\nSustained slowdown after %d chunks: %.1f%%.\n",
                kChunks,
                (hot.back() / cold.back() - 1.0) * 100.0);
    return 0;
}
