/**
 * @file
 * Table II reproduction: the four Snapdragon platforms, plus a sanity
 * sweep showing each generation's measured inference latency.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Table II: platforms",
        "Table II (systems used to conduct the study)",
        "SD835 -> SD865 with Adreno 540/630/640/650 and Hexagon "
        "682/685/690/698; newer generations strictly faster");

    stats::Table table({"System", "SoC", "Accelerators",
                        "MobileNet-int8 SNPE-DSP (ms)",
                        "MobileNet-fp32 CPU-4T (ms)"});

    const auto platforms = soc::allPlatforms();
    std::vector<verify::Scenario> specs;
    for (const auto &platform : platforms) {
        verify::Scenario dsp_spec = bench::scenario();
        dsp_spec.modelId = "mobilenet_v1";
        dsp_spec.dtype = tensor::DType::UInt8;
        dsp_spec.framework = app::FrameworkKind::SnpeDsp;
        dsp_spec.socName = platform.socName;
        dsp_spec.runs = 100;
        specs.push_back(dsp_spec);

        verify::Scenario cpu_spec = dsp_spec;
        cpu_spec.dtype = tensor::DType::Float32;
        cpu_spec.framework = app::FrameworkKind::TfliteCpu;
        specs.push_back(cpu_spec);
    }
    const auto reports = bench::runSpecs(specs);

    for (std::size_t i = 0; i < platforms.size(); ++i) {
        const auto &platform = platforms[i];
        const auto &dsp_report = reports[2 * i];
        const auto &cpu_report = reports[2 * i + 1];

        table.addRow(
            {platform.name, platform.socName,
             platform.gpu.name + " GPU, " + platform.dsp.name + " DSP",
             bench::fmtMs(
                 dsp_report.stageMeanMs(core::Stage::Inference)),
             bench::fmtMs(
                 cpu_report.stageMeanMs(core::Stage::Inference))});
    }
    table.render(std::cout);
    std::printf("\nThe paper reports results on the Google Pixel 3 "
                "(SD845); trends are representative across the other "
                "chipsets.\n");
    return 0;
}
