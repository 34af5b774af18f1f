/**
 * @file
 * Ablation: DVFS governor and the warm-up trap.
 *
 * Section IV-C: "current benchmarks and performance analysis often
 * allow for warm-up time that is not necessarily representative of a
 * real-world application. End-user experience ... involves a cold
 * start penalty." One mechanism is clock ramp-up: a back-to-back
 * benchmark keeps the cluster at max frequency, while a sporadic
 * real-world pipeline keeps paying the governor's ramp.
 */

#include <iostream>

#include "bench/bench_common.h"

namespace {

using namespace aitax;

struct Outcome
{
    double first_ms;
    double steady_ms;
};

/**
 * Run MobileNet fp32 on the CPU with a gap between invocations;
 * report the first inference and the mean of the rest.
 */
Outcome
runWithGap(bool dvfs_enabled, sim::DurationNs gap)
{
    auto platform = soc::makeSnapdragon845();
    platform.dvfs.enabled = dvfs_enabled;
    // The runner has no DVFS on/off knob in Scenario and schedules one
    // batch of runs with no idle gaps between invocations, which let
    // DVFS decay here. aitax-lint: allow(hand-built-system)
    soc::SocSystem sys(platform, 7);

    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = tensor::DType::Float32;
    cfg.framework = app::FrameworkKind::TfliteCpu;
    cfg.mode = app::HarnessMode::CliBenchmark;
    app::Application application(sys, cfg);

    // Run one inference at a time, idling `gap` between them so the
    // governor decays — as a sporadically triggered real app would.
    std::vector<double> inference_ms;
    for (int i = 0; i < 20; ++i) {
        core::TaxReport report;
        application.scheduleRuns(1, report);
        sys.run();
        inference_ms.push_back(
            report.stageMeanMs(core::Stage::Inference));
        if (gap > 0) {
            sys.simulator().scheduleIn(gap, [] {});
            sys.run();
        }
    }
    double rest = 0.0;
    for (std::size_t i = 1; i < inference_ms.size(); ++i)
        rest += inference_ms[i];
    return {inference_ms.front(),
            rest / static_cast<double>(inference_ms.size() - 1)};
}

} // namespace

int
main()
{
    bench::heading(
        "Ablation: DVFS governor vs invocation pattern (MobileNet v1 "
        "fp32, CPU)",
        "Section IV-C cold start: benchmark warm-up is not "
        "representative of sporadic real-world invocation",
        "with the governor on, back-to-back runs quickly reach and "
        "hold max clocks, but a pipeline invoked sporadically decays "
        "between inferences and pays the ramp every time");

    aitax::stats::Table table({"Configuration", "first inference (ms)",
                               "steady inferences (ms)"});
    {
        const auto off = runWithGap(false, 0);
        table.addRow({"governor off, back-to-back",
                      bench::fmtMs(off.first_ms),
                      bench::fmtMs(off.steady_ms)});
    }
    {
        const auto on = runWithGap(true, 0);
        table.addRow({"governor on, back-to-back",
                      bench::fmtMs(on.first_ms),
                      bench::fmtMs(on.steady_ms)});
    }
    {
        const auto on = runWithGap(true, aitax::sim::msToNs(500.0));
        table.addRow({"governor on, 500 ms between inferences",
                      bench::fmtMs(on.first_ms),
                      bench::fmtMs(on.steady_ms)});
    }
    table.render(std::cout);
    std::printf("\nA benchmark that discards warm-up sees the "
                "back-to-back number; a user tapping the app "
                "sporadically lives on the bottom row.\n");
    return 0;
}
