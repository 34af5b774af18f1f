/**
 * @file
 * Ablation: FastRPC channel parameters.
 *
 * DESIGN.md models offload as session-open + per-call kernel hops +
 * payload-proportional cache flush. This harness sweeps those knobs to
 * show which one actually controls the Fig 8 amortization story:
 * the one-time session open dominates the cold start, while per-call
 * costs set the steady-state floor.
 */

#include <iostream>

#include "bench/bench_common.h"

namespace {

using namespace aitax;

struct Outcome
{
    double first_ms;
    double steady_ms;
    double share_at_10;
};

Outcome
runWithRpc(const soc::FastRpcConfig &rpc)
{
    auto platform = soc::makeSnapdragon845();
    platform.fastrpc = rpc;
    // Scenario has no typed FastRpcConfig delta, and the runner builds
    // its SocConfig from the platform name alone; this sweep edits
    // platform.fastrpc. aitax-lint: allow(hand-built-system)
    soc::SocSystem sys(platform, 7);
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = tensor::DType::UInt8;
    cfg.framework = app::FrameworkKind::TfliteHexagon;
    cfg.mode = app::HarnessMode::CliBenchmark;
    app::Application application(sys, cfg);
    core::TaxReport report;
    application.scheduleRuns(50, report);
    sys.run();
    const auto &log = application.rpcLog();
    const auto series = core::offloadShareSeries(log);
    return {sim::nsToMs(log.front().totalNs()),
            sim::nsToMs(log.back().totalNs()), series[9]};
}

} // namespace

int
main()
{
    bench::heading(
        "Ablation: FastRPC parameter sweep (MobileNet v1 int8 via the "
        "Hexagon delegate)",
        "Fig 7/8 modelling choices (DESIGN.md section 5)",
        "session-open cost moves only the cold start; per-call "
        "overheads move the steady state; the flush bandwidth matters "
        "only for large payloads");

    aitax::stats::Table table(
        {"Configuration", "first call (ms)", "steady call (ms)",
         "offload share @10 calls"});

    soc::FastRpcConfig base; // defaults = SD845 model
    auto add = [&](const char *name, const soc::FastRpcConfig &rpc) {
        const auto o = runWithRpc(rpc);
        table.addRow({name, bench::fmtMs(o.first_ms),
                      bench::fmtMs(o.steady_ms),
                      aitax::stats::Table::pct(o.share_at_10 * 100.0,
                                               1)});
    };

    add("baseline", base);

    soc::FastRpcConfig no_session = base;
    no_session.sessionOpenNs = 0;
    add("no session-open cost", no_session);

    soc::FastRpcConfig slow_session = base;
    slow_session.sessionOpenNs = aitax::sim::msToNs(60.0);
    add("4x session-open cost", slow_session);

    soc::FastRpcConfig heavy_calls = base;
    heavy_calls.userToKernelNs *= 10;
    heavy_calls.kernelSignalNs *= 10;
    heavy_calls.returnPathNs *= 10;
    add("10x per-call kernel hops", heavy_calls);

    soc::FastRpcConfig slow_flush = base;
    slow_flush.cacheFlushBytesPerSec /= 10.0;
    add("1/10 cache-flush bandwidth", slow_flush);

    table.render(std::cout);
    std::printf("\nThe 150 KB MobileNet input keeps the flush small; "
                "DeepLab-sized inputs (790 KB) would move the flush "
                "row visibly.\n");
    return 0;
}
