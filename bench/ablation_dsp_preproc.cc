/**
 * @file
 * Ablation: offloading pre-processing to the DSP.
 *
 * The paper's introduction argues accelerator designers "may want to
 * consider dropping an expensive tensor accelerator in favor of a
 * cheaper DSP that can also do pre-processing", and its conclusion
 * calls for jointly accelerating the mundane data-processing stages.
 * This harness quantifies that proposal on the simulated SD845: the
 * MobileNet camera app with pre-processing on the CPU (managed
 * runtime) versus fused on the DSP via a FastCV-like framework, for
 * both CPU-resident and DSP-resident inference.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Ablation: pre-processing on CPU (managed runtime) vs fused on "
        "the DSP (FastCV-like)",
        "Introduction / Conclusion proposal: jointly accelerate data "
        "processing; trade a bigger NPU for a DSP that also does "
        "pre-processing",
        "DSP pre-processing collapses the pre-processing stage by an "
        "order of magnitude and frees the CPU; when inference shares "
        "the DSP the two workloads serialize, so part of the win is "
        "returned");

    struct Row
    {
        const char *placement;
        bool pre_on_dsp;
        app::FrameworkKind inference;
    };
    const Row rows[] = {
        {"pre CPU, inference CPU", false, app::FrameworkKind::TfliteCpu},
        {"pre DSP, inference CPU", true, app::FrameworkKind::TfliteCpu},
        {"pre CPU, inference DSP", false,
         app::FrameworkKind::TfliteHexagon},
        {"pre DSP, inference DSP", true, app::FrameworkKind::TfliteHexagon},
    };

    std::vector<verify::Scenario> specs;
    for (const auto &row : rows) {
        verify::Scenario spec = bench::scenario();
        spec.mode = app::HarnessMode::AndroidApp;
        spec.dtype = tensor::DType::UInt8;
        spec.framework = row.inference;
        spec.preprocessOnDsp = row.pre_on_dsp;
        spec.runs = 200;
        specs.push_back(spec);
    }
    const auto reports = bench::runSpecs(specs);

    stats::Table table({"Placement", "capture (ms)", "pre-proc (ms)",
                        "inference (ms)", "E2E (ms)", "AI tax share"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &r = reports[i];
        table.addRow(
            {rows[i].placement,
             bench::fmtMs(r.stageMeanMs(core::Stage::DataCapture)),
             bench::fmtMs(r.stageMeanMs(core::Stage::PreProcessing)),
             bench::fmtMs(r.stageMeanMs(core::Stage::Inference)),
             bench::fmtMs(r.endToEndMeanMs()),
             stats::Table::pct(r.aiTaxFraction() * 100.0, 1)});
    }
    table.render(std::cout);
    return 0;
}
