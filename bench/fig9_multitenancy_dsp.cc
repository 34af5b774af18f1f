/**
 * @file
 * Fig 9 reproduction: latency breakdown of the image classification
 * app as increasingly many background inferences contend for the DSP.
 */

#include "bench/multitenancy_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 9: multi-tenancy with background inferences on the DSP",
        "Fig 9 (latency breakdown of the image classification app when "
        "scheduling increasingly many inference benchmarks through the "
        "NNAPI/Hexagon path in the background)",
        "per-inference latency grows linearly with background load "
        "(one DSP, FIFO queue) while capture and pre-processing stay "
        "approximately constant");

    bench::multitenancySweep(
        &verify::Scenario::dspLoadProcesses,
        "foreground app on DSP, background inferences on DSP");
    return 0;
}
