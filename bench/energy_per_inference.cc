/**
 * @file
 * Extension: energy per inference across backends.
 *
 * The paper motivates hardware offload with energy: "AI processing on
 * general-purpose mobile processors is inefficient in terms of energy
 * and power". The EnergyMeter extension quantifies that on the
 * simulated SD845 — including the energy cost of the *whole* pipeline,
 * where pre-processing energy is part of the AI tax too.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Extension: energy per end-to-end inference (MobileNet v1, "
        "camera app, interference suppressed)",
        "Introduction motivation: general-purpose CPU AI is "
        "energy-inefficient, hence the accelerator zoo",
        "DSP << GPU << CPU in energy per inference; pre-processing "
        "energy (on the CPU) becomes the dominant share once inference "
        "is offloaded");

    struct Row
    {
        const char *name;
        app::FrameworkKind fw;
        tensor::DType dtype;
    };
    const Row rows[] = {
        {"CPU 4T fp32", app::FrameworkKind::TfliteCpu,
         tensor::DType::Float32},
        {"CPU 4T int8", app::FrameworkKind::TfliteCpu,
         tensor::DType::UInt8},
        {"GPU delegate fp32", app::FrameworkKind::TfliteGpu,
         tensor::DType::Float32},
        {"Hexagon delegate int8", app::FrameworkKind::TfliteHexagon,
         tensor::DType::UInt8},
        {"SNPE DSP int8", app::FrameworkKind::SnpeDsp,
         tensor::DType::UInt8},
    };

    constexpr int kEnergyRuns = 200;
    std::vector<verify::Scenario> specs;
    for (const auto &row : rows) {
        verify::Scenario spec = bench::scenario();
        spec.mode = app::HarnessMode::AndroidApp;
        spec.framework = row.fw;
        spec.dtype = row.dtype;
        spec.suppressInterference = true; // meter only the pipeline
        spec.runs = kEnergyRuns;
        specs.push_back(spec);
    }
    const auto results = bench::runResults(specs);

    // Columns after the total follow soc::kAllPowerDomains.
    stats::Table table({"Backend", "E2E (ms)", "energy (mJ/inference)",
                        "big CPU", "little CPU", "GPU", "DSP"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &r = results[i];
        std::vector<std::string> cells = {
            rows[i].name, bench::fmtMs(r.report.endToEndMeanMs()),
            stats::Table::num(r.energyMj / kEnergyRuns, 2)};
        for (double mj : r.domainMj)
            cells.push_back(stats::Table::num(mj / kEnergyRuns, 2));
        table.addRow(std::move(cells));
    }
    table.render(std::cout);
    return 0;
}
