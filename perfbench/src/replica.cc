#include "replica.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/background_load.h"
#include "faults/fault_plan.h"
#include "soc/chipsets.h"
#include "sweep/snapshot_cache.h"
#include "trace/chrome_trace.h"

namespace aitax::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Seconds since @p mark; moves @p mark to now. */
double
lap(Clock::time_point &mark)
{
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - mark).count();
    mark = now;
    return s;
}

// The three helpers below mirror the private ones in
// src/verify/scenario.cc; the replica check catches any drift.

app::PipelineConfig
pipelineConfigFor(const verify::Scenario &s)
{
    app::PipelineConfig cfg;
    cfg.model = models::findModel(s.modelId);
    cfg.dtype = s.dtype;
    cfg.framework = s.framework;
    cfg.mode = s.mode;
    cfg.streamingCapture = s.streaming;
    return cfg;
}

std::vector<app::BackgroundInferenceLoop *>
buildLoops(sim::Arena &arena, soc::SocSystem &sys, const verify::Scenario &s)
{
    std::vector<app::BackgroundInferenceLoop *> loops;
    auto add = [&](int count, app::FrameworkKind fw, int base_pid) {
        for (int i = 0; i < count; ++i) {
            app::BackgroundLoadConfig bg;
            bg.model = models::findModel("mobilenet_v1");
            bg.dtype = tensor::DType::UInt8;
            bg.framework = fw;
            bg.processId = base_pid + i;
            loops.push_back(
                arena.create<app::BackgroundInferenceLoop>(sys, bg));
        }
    };
    add(s.dspLoadProcesses, app::FrameworkKind::TfliteHexagon, 100);
    add(s.cpuLoadProcesses, app::FrameworkKind::TfliteCpu, 200);
    return loops;
}

bool
snapshotUsable(const faults::FaultInjector *inj,
               const soc::WarmupSnapshot &snap)
{
    if (inj == nullptr)
        return true;
    for (sim::TimeNs when : inj->plan().thermalEmergencyAtNs)
        if (when <= snap.endTimeNs)
            return false;
    return true;
}

} // namespace

verify::ScenarioResult
runScenarioPhased(const verify::Scenario &s, PhaseSample &ph)
{
    const auto entry = Clock::now();
    if (!verify::scenarioValid(s))
        throw std::invalid_argument("invalid scenario: " + s.describe());
    verify::ScenarioResult out;
    Clock::time_point mark;
    {
        sim::Arena &arena = verify::scenarioArena();
        sim::ArenaResetGuard guard(arena);
        mark = Clock::now();

        const bool memo = verify::classifySnapshotUse(s) ==
                          verify::SnapshotUse::Eligible;
        std::string key;
        std::shared_ptr<const soc::WarmupSnapshot> cached;
        double lookup = 0.0;
        if (memo) {
            key = verify::snapshotKey(s);
            cached = std::static_pointer_cast<const soc::WarmupSnapshot>(
                sweep::snapshotCacheLookup(key));
            lookup = lap(mark);
        }

        soc::SocSystem &sys = *arena.create<soc::SocSystem>(
            soc::platformByName(s.socName), s.seed, sim::EngineMode::Fast,
            &arena);
        if (s.faults)
            sys.armFaults(faults::FaultConfig::fuzzDefaults());
        const std::uint64_t seq_base = sys.simulator().seqWatermark();
        ph.socConstruct = lap(mark);

        app::Application &application =
            *arena.create<app::Application>(sys, pipelineConfigFor(s));
        auto loops = buildLoops(arena, sys, s);
        ph.appConstruct = lap(mark);

        sim::Simulator &simulator = sys.simulator();
        auto stop_loops = [&loops](sim::TimeNs) {
            for (auto *loop : loops)
                loop->stop();
        };
        if (memo) {
            if (cached && snapshotUsable(sys.faults(), *cached)) {
                sys.restoreWarmup(*cached);
                application.adoptRestoredWarmup();
                ph.restore = lookup + lap(mark);
                ph.restored = true;
            } else {
                const std::uint64_t before = simulator.eventsExecuted();
                application.scheduleWarmup(s.runs, out.report);
                simulator.runUntilCondition(
                    [&application] { return application.warmupComplete(); });
                ph.poppedEvents += simulator.eventsExecuted() - before;
                if (!cached) {
                    auto snap = std::make_shared<soc::WarmupSnapshot>();
                    if (sys.captureWarmup(*snap, seq_base))
                        sweep::snapshotCacheStore(key, std::move(snap));
                }
                ph.warmup = lookup + lap(mark);
                ph.warmedUp = true;
            }
        }

        const std::uint64_t loop_start = simulator.eventsExecuted();
        if (memo) {
            for (auto *loop : loops)
                loop->start(simulator.now() + sim::secToNs(60.0));
            application.scheduleFramesAfterWarmup(s.runs, out.report,
                                                  stop_loops);
        } else {
            for (auto *loop : loops)
                loop->start(sim::secToNs(60.0));
            application.scheduleRuns(s.runs, out.report, stop_loops);
        }
        out.endTimeNs = sys.run();
        ph.loop = lap(mark);
        ph.loopEvents = simulator.eventsExecuted() - loop_start;
        ph.poppedEvents += ph.loopEvents;
        ph.frontCacheHits = simulator.frontCacheHits();

        out.rpcLog = application.rpcLog();
        out.frameLog = application.frameLog();
        if (sys.faults() != nullptr)
            out.faultStats = sys.faults()->stats();
        out.energyMj = sys.energy().totalMj();
        out.thermalSpeedFactor = sys.thermal().speedFactor();
        out.eventsExecuted = simulator.eventsExecuted();
        ph.collect = lap(mark);

        std::ostringstream trace;
        trace::writeChromeTrace(trace, sys.tracer());
        out.chromeTraceJson = trace.str();
        ph.serialize = lap(mark);

        for (const auto *loop : loops)
            out.backgroundInferences += loop->completedInferences();
        mark = Clock::now();
    }
    const auto exit = Clock::now();
    ph.teardown = std::chrono::duration<double>(exit - mark).count();
    ph.total = std::chrono::duration<double>(exit - entry).count();
    return out;
}

} // namespace aitax::perfbench
