/**
 * @file
 * Fig 10 reproduction: same experiment as Fig 9 except the background
 * inferences run on the CPU — contention moves from the DSP to the
 * capture/pre-processing stages.
 */

#include "bench/multitenancy_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 10: multi-tenancy with background inferences on the CPU",
        "Fig 10 (same experimental setup as Fig 9 except background "
        "inferences are scheduled on the CPU)",
        "capture and pre-processing grow with background CPU load "
        "while inference stays approximately constant (the DSP is "
        "uncontended)");

    bench::multitenancySweep(
        &verify::Scenario::cpuLoadProcesses,
        "foreground app on DSP, background inferences on CPU");
    return 0;
}
