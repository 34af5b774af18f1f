/**
 * @file
 * Section III-D reproduction: the probe effect of driver
 * instrumentation — 4-7% on hardware-accelerated inference, none on
 * CPU paths — plus the probe effect of our *own* instrumentation: the
 * tracer. The second half measures simulator events/sec with tracing
 * on vs. off and writes BENCH_trace.json, the tracer's perf trajectory
 * (like BENCH_sweep.json for the sweep pool). The record path alone is
 * micro_kernels' BM_TracerRecord* cases.
 *
 * Usage: probe_effect [--jobs N] [--trace-out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace aitax;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ScenarioProbe
{
    double on_events_per_sec = 0.0;
    double off_events_per_sec = 0.0;
    std::int64_t events = 0;
};

/**
 * Probe effect of the tracer on a full simulation: the same scenario
 * with collection enabled and disabled, in simulator events/sec of
 * host wall-clock over ScenarioRun::runFrames() (the event loop). The
 * tracer goes off before the application exists.
 */
ScenarioProbe
benchScenarioProbe()
{
    verify::Scenario spec = bench::scenario();
    spec.dtype = tensor::DType::UInt8;
    spec.framework = app::FrameworkKind::TfliteHexagon;
    spec.mode = app::HarnessMode::AndroidApp;
    spec.runs = 300;

    auto run_once = [&](bool tracing) {
        verify::ScenarioRun run(spec, sim::EngineMode::Fast);
        run.system().tracer().setEnabled(tracing);
        run.buildApplication();
        run.warmUp();
        const auto t0 = Clock::now();
        run.runFrames();
        const double s = secondsSince(t0);
        const auto events = run.system().simulator().eventsExecuted();
        return std::pair<double, std::int64_t>(
            static_cast<double>(events) / s,
            static_cast<std::int64_t>(events));
    };

    ScenarioProbe probe;
    // Warm up each variant, then take the best of several
    // interleaved repeats — a single run is only ~10ms of wall
    // clock, far too noisy on a shared host.
    (void)run_once(true);
    (void)run_once(false);
    for (int rep = 0; rep < 7; ++rep) {
        const auto on = run_once(true);
        const auto off = run_once(false);
        probe.on_events_per_sec =
            std::max(probe.on_events_per_sec, on.first);
        probe.off_events_per_sec =
            std::max(probe.off_events_per_sec, off.first);
        probe.events = on.second;
    }
    return probe;
}

} // namespace

int
main(int argc, char **argv)
{
    using core::Stage;
    bench::initBench(argc, argv);

    std::string trace_out = "BENCH_trace.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
            trace_out = argv[i + 1];
            for (int j = i; j + 2 < argc; ++j)
                argv[j] = argv[j + 2];
            argc -= 2;
            break;
        }
    }

    bench::heading(
        "Probe effect of driver instrumentation",
        "Section III-D (Probe Effect)",
        "instrumentation adds 4-7% to DSP/GPU-accelerated inference "
        "and has no effect on CPU pre-processing or CPU inference");

    struct Case
    {
        const char *name;
        app::FrameworkKind fw;
        tensor::DType dtype;
    };
    const Case cases[] = {
        {"Hexagon delegate int8", app::FrameworkKind::TfliteHexagon,
         tensor::DType::UInt8},
        {"SNPE DSP int8", app::FrameworkKind::SnpeDsp,
         tensor::DType::UInt8},
        {"GPU delegate fp32", app::FrameworkKind::TfliteGpu,
         tensor::DType::Float32},
        {"CPU 4 threads fp32", app::FrameworkKind::TfliteCpu,
         tensor::DType::Float32},
        {"CPU 4 threads int8", app::FrameworkKind::TfliteCpu,
         tensor::DType::UInt8},
    };

    stats::Table table({"Backend", "inference off (ms)",
                        "inference on (ms)", "slowdown",
                        "pre-proc off (ms)", "pre-proc on (ms)"});
    std::vector<verify::Scenario> specs;
    for (const auto &c : cases) {
        verify::Scenario spec = bench::scenario();
        spec.modelId = "mobilenet_v1";
        spec.dtype = c.dtype;
        spec.framework = c.fw;
        spec.mode = app::HarnessMode::AndroidApp;
        spec.runs = 200;
        spec.instrumentation = false;
        specs.push_back(spec);
        spec.instrumentation = true;
        specs.push_back(spec);
    }
    const auto reports = bench::runSpecs(specs);

    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const auto &c = cases[i];
        const auto &off = reports[2 * i];
        const auto &on = reports[2 * i + 1];
        table.addRow(
            {c.name, bench::fmtMs(off.stageMeanMs(Stage::Inference)),
             bench::fmtMs(on.stageMeanMs(Stage::Inference)),
             [&] {
                 const double pct =
                     (on.stageMeanMs(Stage::Inference) /
                          off.stageMeanMs(Stage::Inference) -
                      1.0) *
                     100.0;
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
                 return std::string(buf);
             }(),
             bench::fmtMs(off.stageMeanMs(Stage::PreProcessing)),
             bench::fmtMs(on.stageMeanMs(Stage::PreProcessing))});
    }
    table.render(std::cout);

    // --- our own probe effect: the tracer ------------------------------
    bench::heading(
        "Probe effect of the tracer itself",
        "Section III-D, applied to our instrumentation",
        "disabling tracing barely moves simulator throughput");

    const auto probe = benchScenarioProbe();
    const double probe_pct =
        probe.off_events_per_sec > 0.0
            ? (probe.off_events_per_sec / probe.on_events_per_sec -
               1.0) *
                  100.0
            : 0.0;
    std::printf("full simulation (%lld simulator events):\n",
                static_cast<long long>(probe.events));
    std::printf("  tracing on               %10.2f M events/s\n",
                probe.on_events_per_sec / 1e6);
    std::printf("  tracing off              %10.2f M events/s  "
                "(tracing costs %.1f%%)\n",
                probe.off_events_per_sec / 1e6, probe_pct);

    std::ofstream out(trace_out);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
        return 1;
    }
    char buf[64];
    out << "{\n";
    std::snprintf(buf, sizeof(buf), "%.0f", probe.on_events_per_sec);
    out << "  \"sim_events_per_sec_tracing_on\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.0f", probe.off_events_per_sec);
    out << "  \"sim_events_per_sec_tracing_off\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", probe_pct);
    out << "  \"tracing_overhead_pct\": " << buf << "\n"
        << "}\n";
    out.close();
    std::printf("  wrote %s\n", trace_out.c_str());
    return 0;
}
