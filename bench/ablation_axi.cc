/**
 * @file
 * Ablation: shared memory fabric (AXI) contention.
 *
 * Fig 10 shows DSP inference staying flat under CPU multi-tenancy —
 * true when compute resources are disjoint and bandwidth is ample.
 * With fabric contention enabled, heavy CPU memory traffic derates the
 * DSP's effective bandwidth too, a second-order interaction the paper
 * could not isolate on real silicon. This harness quantifies it.
 */

#include <iostream>
#include <iterator>
#include <vector>

#include "bench/multitenancy_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Ablation: AXI fabric contention under CPU multi-tenancy "
        "(DSP-resident inference, CPU background load)",
        "Fig 10 modelling choice: private per-client bandwidth vs a "
        "shared, contended fabric",
        "the compute-bound DSP job is nearly insensitive to fabric "
        "contention (its roofline is ops-limited), but the byte-heavy "
        "CPU pre-processing derates visibly as clients multiply — "
        "contention relocates the tax rather than scaling everything");

    // Fig 10's configuration, each load level with the fabric private
    // (even index) and contended (odd index).
    const int counts[] = {0, 2, 4, 8};
    std::vector<verify::Scenario> specs;
    for (int n : counts) {
        for (bool contention : {false, true}) {
            verify::Scenario spec = bench::multitenancyScenario();
            spec.cpuLoadProcesses = n;
            spec.fabricContention = contention;
            specs.push_back(spec);
        }
    }
    const auto reports = bench::runSpecs(specs);

    stats::Table table(
        {"background CPU inferences", "pre-proc private (ms)",
         "pre-proc contended (ms)", "inference private (ms)",
         "inference contended (ms)", "E2E private (ms)",
         "E2E contended (ms)"});
    for (std::size_t i = 0; i < std::size(counts); ++i) {
        const auto &off = reports[2 * i];
        const auto &on = reports[2 * i + 1];
        table.addRow(
            {std::to_string(counts[i]),
             bench::fmtMs(off.stageMeanMs(core::Stage::PreProcessing)),
             bench::fmtMs(on.stageMeanMs(core::Stage::PreProcessing)),
             bench::fmtMs(off.stageMeanMs(core::Stage::Inference)),
             bench::fmtMs(on.stageMeanMs(core::Stage::Inference)),
             bench::fmtMs(off.endToEndMeanMs()),
             bench::fmtMs(on.endToEndMeanMs())});
    }
    table.render(std::cout);
    std::printf("\nThe DSP job's ops-limited roofline shields it; the "
                "pre-processing stage (byte-bound on the CPU) absorbs "
                "the contention.\n");
    return 0;
}
