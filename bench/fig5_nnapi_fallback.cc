/**
 * @file
 * Fig 5 reproduction: quantized EfficientNet-Lite0 on four device
 * targets — the NNAPI automatic-assignment pathology.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    using app::FrameworkKind;
    using core::Stage;
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 5: EfficientNet-Lite0 INT8 across device targets",
        "Fig 5 (performance degradation of TFLite's quantized "
        "EfficientNet-Lite0 when using NNAPI with CPU fallback)",
        "NNAPI ~7x slower than a single CPU thread: the vendor DSP "
        "driver rejects the model's INT8 operator variants and NNAPI "
        "falls back to its single-threaded reference kernels; the "
        "float model does not show the bug");

    struct Target
    {
        const char *name;
        FrameworkKind fw;
        int threads;
    };
    const Target targets[] = {
        {"Hexagon delegate", FrameworkKind::TfliteHexagon, 4},
        {"CPU (4 threads)", FrameworkKind::TfliteCpu, 4},
        {"CPU (1 thread)", FrameworkKind::TfliteCpu, 1},
        {"NNAPI (auto)", FrameworkKind::TfliteNnapi, 4},
        {"SNPE DSP", FrameworkKind::SnpeDsp, 4},
    };

    // (The table is assembled after the sweep, once CPU-1T is known.)
    std::vector<verify::Scenario> specs;
    for (const auto &t : targets) {
        verify::Scenario spec = bench::scenario();
        spec.modelId = "efficientnet_lite0";
        spec.dtype = tensor::DType::UInt8;
        spec.framework = t.fw;
        spec.threads = t.threads;
        specs.push_back(spec);
    }
    const auto reports = bench::runSpecs(specs);

    double cpu1 = 0.0;
    std::vector<std::pair<std::string, double>> results;
    for (std::size_t i = 0; i < std::size(targets); ++i) {
        const auto &t = targets[i];
        const double inf = reports[i].stageMeanMs(Stage::Inference);
        if (std::string(t.name) == "CPU (1 thread)")
            cpu1 = inf;
        results.emplace_back(t.name, inf);
    }
    // Second pass now that the CPU-1T reference is known.
    stats::Table final_table({"Target", "inference (ms)", "vs CPU-1T"});
    for (const auto &[name, inf] : results) {
        final_table.addRow({name, bench::fmtMs(inf),
                            stats::Table::num(inf / cpu1, 2) + "x"});
    }
    final_table.render(std::cout);

    // The float model for contrast.
    verify::Scenario fspec = bench::scenario();
    fspec.modelId = "efficientnet_lite0";
    fspec.dtype = tensor::DType::Float32;
    fspec.framework = app::FrameworkKind::TfliteNnapi;
    const auto fp = bench::runSpec(fspec);
    fspec.framework = app::FrameworkKind::TfliteCpu;
    const auto fp_cpu = bench::runSpec(fspec);
    std::printf("\nFloat contrast: NNAPI fp32 inference %.2f ms vs "
                "CPU-4T fp32 %.2f ms (no fallback pathology).\n",
                fp.stageMeanMs(Stage::Inference),
                fp_cpu.stageMeanMs(Stage::Inference));
    return 0;
}
