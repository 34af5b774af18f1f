/**
 * @file
 * Fig 6 reproduction: profiler-style execution timelines of quantized
 * EfficientNet-Lite0 under (1) the CPU thread pool, (2) the Hexagon
 * delegate and (3) NNAPI automatic device selection — our stand-in for
 * the Snapdragon Profiler screenshots.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "trace/render.h"

namespace {

using namespace aitax;

void
runAndRender(app::FrameworkKind fw, const char *title,
             bool dsp_probe_at_start)
{
    verify::Scenario spec = bench::scenario();
    spec.modelId = "efficientnet_lite0";
    spec.dtype = tensor::DType::UInt8;
    spec.framework = fw;
    spec.mode = app::HarnessMode::BenchmarkApp;
    spec.runs = 12;
    verify::ScenarioRun run(spec, sim::EngineMode::Fast);
    run.buildApplication();
    soc::SocSystem &sys = run.system();

    if (dsp_probe_at_start) {
        // NNAPI compilation probes the vendor DSP driver before giving
        // up on it: the brief CDSP utilization spike at the start of
        // the measured profile (annotation in the paper's Fig 6).
        soc::AccelJob probe;
        probe.name = "nnapi_driver_probe";
        probe.ops = 2.0e8;
        probe.bytes = 2.0e6;
        probe.format = tensor::DType::UInt8;
        sys.fastrpc().call(99, 1.0e6, std::move(probe), {});
    }

    run.warmUp();
    run.runFrames();
    const verify::ScenarioResult r =
        run.collect(verify::ResultRequest::ReportOnly);

    std::printf("--- %s ---\n", title);
    std::printf("inference mean %.2f ms, E2E mean %.2f ms\n",
                r.report.stageMeanMs(core::Stage::Inference),
                r.report.endToEndMeanMs());
    trace::RenderOptions opts;
    opts.buckets = 72;
    trace::renderTimeline(std::cout, sys.tracer(), 0, r.framesDoneNs,
                          opts);
    std::printf("scheduler: %lld context switches, %lld migrations, "
                "DSP jobs completed: %lld\n\n",
                static_cast<long long>(sys.scheduler().contextSwitches()),
                static_cast<long long>(sys.scheduler().migrations()),
                static_cast<long long>(sys.dsp().jobsCompleted()));
}

} // namespace

int
main()
{
    bench::heading(
        "Fig 6: execution profile of EfficientNet-Lite0 INT8",
        "Fig 6 (Snapdragon Profiler output while running the model on "
        "the CPU, the Hexagon delegate, and NNAPI)",
        "(1) CPU: cores 4-7 saturated; (2) Hexagon: cDSP busy with "
        "raised AXI traffic; (3) NNAPI: initial cDSP spike, then "
        "single-threaded CPU execution with sporadic utilization "
        "across cores 4-7 and frequent migrations");

    runAndRender(aitax::app::FrameworkKind::TfliteCpu,
                 "(1) CPU thread pool (4 threads)", false);
    runAndRender(aitax::app::FrameworkKind::TfliteHexagon,
                 "(2) TFLite Hexagon delegate", false);
    runAndRender(aitax::app::FrameworkKind::TfliteNnapi,
                 "(3) NNAPI automatic device selection", true);
    return 0;
}
