/**
 * @file
 * Section IV-B reproduction: CPU vs NNAPI-DSP vs SNPE-DSP across the
 * quantized models — "not all frameworks are created equal" — plus
 * the framework-advisor verdict per model.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    using core::Stage;
    bench::initBench(argc, argv);
    bench::heading(
        "Framework comparison: TFLite-CPU vs NNAPI-DSP vs SNPE-DSP "
        "(quantized models, CLI benchmark)",
        "Section IV-B (AI Tax: Software Frameworks) — the NNAPI-DSP "
        "path is slower than the CPU for every model except Inception "
        "V4; switching to the vendor-optimized SNPE makes the DSP "
        "outperform the CPU as one would expect",
        "NNAPI > CPU except Inception v4; SNPE < CPU everywhere");

    const char *models_under_test[] = {
        "mobilenet_v1", "efficientnet_lite0", "ssd_mobilenet_v2",
        "inception_v3", "inception_v4",
    };

    stats::Table table({"Model", "CPU-4T (ms)", "NNAPI-DSP (ms)",
                        "SNPE-DSP (ms)", "NNAPI vs CPU", "best"});
    std::vector<verify::Scenario> specs;
    for (const char *model : models_under_test) {
        verify::Scenario spec = bench::scenario();
        spec.modelId = model;
        spec.dtype = tensor::DType::UInt8;
        spec.runs = 200;
        for (auto fw : {app::FrameworkKind::TfliteCpu,
                        app::FrameworkKind::TfliteNnapi,
                        app::FrameworkKind::SnpeDsp}) {
            spec.framework = fw;
            specs.push_back(spec);
        }
    }
    const auto reports = bench::runSpecs(specs);

    for (std::size_t i = 0; i < std::size(models_under_test); ++i) {
        const char *model = models_under_test[i];
        const auto &cpu = reports[3 * i];
        const auto &nnapi = reports[3 * i + 1];
        const auto &snpe = reports[3 * i + 2];

        const auto choice = core::adviseFramework(
            {{"tflite-cpu", &cpu}, {"nnapi", &nnapi}, {"snpe", &snpe}});

        const double cpu_ms = cpu.stageMeanMs(Stage::Inference);
        const double nnapi_ms = nnapi.stageMeanMs(Stage::Inference);
        table.addRow(
            {model, bench::fmtMs(cpu_ms), bench::fmtMs(nnapi_ms),
             bench::fmtMs(snpe.stageMeanMs(Stage::Inference)),
             stats::Table::num(nnapi_ms / cpu_ms, 2) + "x",
             choice.framework});
    }
    table.render(std::cout);
    std::printf(
        "\nTakeaway: frameworks that poorly support a model fall back "
        "on the CPU, resulting in worse performance than using the CPU "
        "from the start.\n");
    return 0;
}
