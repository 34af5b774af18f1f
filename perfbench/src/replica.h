/**
 * @file
 * The benchmark's phase timer: a re-execution of verify::runScenario
 * (Fast engine) through the same public calls, with a steady_clock
 * span around each call into a layer.
 *
 * Spans are the benchmark's own, recorded from outside the simulator;
 * nothing here touches the simulator's trace module. The replica must
 * reproduce runScenario's outputs exactly (the caller checks event
 * count, E2E mean and trace bytes per scenario), so a runner change
 * that makes the two diverge fails the benchmark instead of silently
 * timing a different program.
 */

#pragma once

#include <cstdint>

#include "verify/scenario.h"

namespace aitax::perfbench {

/** Host seconds per layer, and the counts behind them, of one call. */
struct PhaseSample
{
    /** The whole call, from entry to after the arena reset. */
    double total = 0.0;
    /** soc::SocSystem constructor (+ armFaults). */
    double socConstruct = 0.0;
    /** app::Application + BackgroundInferenceLoop constructors. */
    double appConstruct = 0.0;
    /** Snapshot miss: lookup + scheduleWarmup + runUntilCondition +
     *  captureWarmup/snapshotCacheStore. */
    double warmup = 0.0;
    /** Snapshot hit: lookup + SocSystem::restoreWarmup. */
    double restore = 0.0;
    /** The schedule* call + SocSystem::run. */
    double loop = 0.0;
    /** Witness and meter copies into the result. */
    double collect = 0.0;
    /** trace::writeChromeTrace into the result string. */
    double serialize = 0.0;
    /** Arena reset: every run object's destructor. */
    double teardown = 0.0;

    bool warmedUp = false;
    bool restored = false;
    /** Events executed by SocSystem::run. */
    std::uint64_t loopEvents = 0;
    /** Events popped in this call (warm-up + loop; not restored ones). */
    std::uint64_t poppedEvents = 0;
    /** Pops served by the Fast engine's front cache. */
    std::uint64_t frontCacheHits = 0;

    /** Sum of the layer spans (everything but gaps between them). */
    double spans() const
    {
        return socConstruct + appConstruct + warmup + restore + loop +
               collect + serialize + teardown;
    }
};

/** runScenario(s) re-executed with a span per layer into @p ph. */
verify::ScenarioResult runScenarioPhased(const verify::Scenario &s,
                                         PhaseSample &ph);

} // namespace aitax::perfbench
