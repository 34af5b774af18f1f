/**
 * @file
 * Shared sweep logic for the Fig 9 / Fig 10 multi-tenancy harnesses.
 */

#ifndef AITAX_BENCH_MULTITENANCY_COMMON_H
#define AITAX_BENCH_MULTITENANCY_COMMON_H

#include <iostream>
#include <vector>

#include "bench/bench_common.h"

namespace aitax::bench {

/**
 * The quantized MobileNet classification app with inference on the
 * Hexagon DSP, 40 frames. Background inference loops are added by
 * setting dspLoadProcesses (Fig 9) or cpuLoadProcesses (Fig 10).
 */
inline verify::Scenario
multitenancyScenario()
{
    verify::Scenario s = scenario();
    s.mode = app::HarnessMode::AndroidApp;
    s.dtype = tensor::DType::UInt8;
    s.framework = app::FrameworkKind::TfliteHexagon;
    s.runs = 40;
    return s;
}

/**
 * Print the Fig 9/10-style breakdown sweep over background counts;
 * @p load_processes selects which load field the sweep sets.
 */
inline void
multitenancySweep(int verify::Scenario::*load_processes,
                  const char *title)
{
    const int counts[] = {0, 1, 2, 4, 6, 8};
    std::vector<verify::Scenario> specs;
    for (int n : counts) {
        specs.push_back(multitenancyScenario());
        specs.back().*load_processes = n;
    }
    const auto reports = runSpecs(specs);

    std::printf("--- %s ---\n", title);
    stats::Table table({"background inferences", "capture (ms)",
                        "pre-proc (ms)", "inference (ms)", "post (ms)",
                        "E2E (ms)"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &r = reports[i];
        table.addRow(
            {std::to_string(counts[i]),
             fmtMs(r.stageMeanMs(core::Stage::DataCapture)),
             fmtMs(r.stageMeanMs(core::Stage::PreProcessing)),
             fmtMs(r.stageMeanMs(core::Stage::Inference)),
             fmtMs(r.stageMeanMs(core::Stage::PostProcessing)),
             fmtMs(r.endToEndMeanMs())});
    }
    table.render(std::cout);
    std::printf("\n");
}

} // namespace aitax::bench

#endif // AITAX_BENCH_MULTITENANCY_COMMON_H
