/**
 * @file
 * Fig 7 + Fig 8 reproduction: the FastRPC call flow stages and the
 * amortization of DSP offload overhead over consecutive inferences.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main()
{
    using namespace aitax;
    bench::heading(
        "Fig 7/8: FastRPC offload cost and its amortization",
        "Fig 7 (FastRPC call flow) and Fig 8 (overhead amortization "
        "over consecutive inferences, MobileNet v1 via the NNAPI/"
        "Hexagon path)",
        "the first inference is dominated by offload (DSP session "
        "open / library load); the per-call kernel round-trips are "
        "small, so the offload share decays towards a few percent as "
        "inferences accumulate");

    verify::Scenario spec = bench::scenario();
    spec.dtype = tensor::DType::UInt8;
    spec.framework = app::FrameworkKind::TfliteHexagon;
    const verify::ScenarioResult result = verify::runScenario(
        spec, sim::EngineMode::Fast, verify::ResultRequest::ReportOnly);
    const auto &log = result.rpcLog;

    // --- Fig 7: per-call stage breakdown (first vs steady state) ---
    std::printf("--- Fig 7: FastRPC stages (ms) ---\n");
    stats::Table stage_table({"Call", "session open", "user->kernel",
                              "cache flush", "kernel signal",
                              "queue wait", "DSP exec", "return path",
                              "total"});
    auto add_call = [&](const char *name,
                        const soc::FastRpcBreakdown &b) {
        stage_table.addRow(
            {name, bench::fmtMs(sim::nsToMs(b.sessionOpenNs)),
             bench::fmtMs(sim::nsToMs(b.userToKernelNs)),
             bench::fmtMs(sim::nsToMs(b.cacheFlushNs)),
             bench::fmtMs(sim::nsToMs(b.kernelSignalNs)),
             bench::fmtMs(sim::nsToMs(b.queueWaitNs)),
             bench::fmtMs(sim::nsToMs(b.dspExecNs)),
             bench::fmtMs(sim::nsToMs(b.returnPathNs)),
             bench::fmtMs(sim::nsToMs(b.totalNs()))});
    };
    add_call("first (cold)", log.front());
    add_call("steady state", log.back());
    stage_table.render(std::cout);

    // --- Fig 8: cumulative offload share over N inferences ---
    std::printf("\n--- Fig 8: offload overhead share after N "
                "consecutive inferences ---\n");
    const auto series = core::offloadShareSeries(log);
    stats::Table amort({"N", "cumulative offload share",
                        "mean latency so far (ms)"});
    double total_ms = 0.0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        total_ms += sim::nsToMs(log[i].totalNs());
        const std::size_t n = i + 1;
        if (n == 1 || n == 2 || n == 5 || n == 10 || n == 20 ||
            n == 50 || n == 100 || n == 200 || n == 500) {
            amort.addRow({std::to_string(n),
                          stats::Table::pct(series[i] * 100.0, 1),
                          bench::fmtMs(total_ms / static_cast<double>(n))});
        }
    }
    amort.render(std::cout);
    std::printf("\nCold-start penalty: first call %.2f ms vs steady "
                "state %.2f ms.\n",
                sim::nsToMs(log.front().totalNs()),
                sim::nsToMs(log.back().totalNs()));
    return 0;
}
