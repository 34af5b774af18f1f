/**
 * @file
 * Ablation: tightly vs loosely coupled accelerator integration.
 *
 * Section II-D: "In the tightly coupled model, an accelerator is
 * integrated with the CPU core and its cache hierarchy. In the loosely
 * coupled model, the accelerator is a separate hardware block ... any
 * communication with the DSP requires a round-trip through the kernel
 * device driver interface." The paper's platforms are loosely coupled;
 * this harness shows what that integration choice costs — the entire
 * Fig 8 amortization story disappears under tight coupling.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Ablation: accelerator integration model (MobileNet v1 int8 on "
        "the DSP)",
        "Section II-D (tightly vs loosely coupled offload); Fig 7/8",
        "loose coupling pays a ~15 ms one-time session open plus "
        "per-call kernel round trips; tight coupling has neither, so "
        "its first inference already runs at steady state");

    verify::Scenario spec = bench::scenario();
    spec.dtype = tensor::DType::UInt8;
    spec.framework = app::FrameworkKind::TfliteHexagon;
    spec.runs = 100;
    verify::Scenario tight_spec = spec;
    tight_spec.dspTightlyCoupled = true;
    const auto reports = bench::runSpecs({spec, tight_spec});

    stats::Table table({"Integration", "1st inference (ms)",
                        "mean of first 5 (ms)", "steady inference (ms)",
                        "cold-start penalty (ms)"});
    const char *names[] = {"loosely coupled (FastRPC)",
                           "tightly coupled (cache-coherent)"};
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto &inf = reports[i].stage(core::Stage::Inference).raw();
        double first5 = 0.0;
        for (std::size_t k = 0; k < 5; ++k)
            first5 += inf[k];
        table.addRow({names[i], bench::fmtMs(inf.front()),
                      bench::fmtMs(first5 / 5.0), bench::fmtMs(inf.back()),
                      bench::fmtMs(inf.front() - inf.back())});
    }
    table.render(std::cout);
    std::printf("\nSteady-state difference comes from the per-call "
                "kernel hops and cache flush the tightly coupled "
                "design avoids.\n");
    return 0;
}
