/**
 * @file
 * Seeded scenario sampling for the verification subsystem.
 *
 * A Scenario is one fully-specified experiment: a (model x chipset x
 * framework x harness mode x background load) point with its own root
 * seed. Scenarios are sampled deterministically from a master seed, so
 * any failing configuration found by the fuzzer can be replayed
 * bit-exactly from the (master seed, index) pair it prints.
 */

#ifndef AITAX_VERIFY_SCENARIO_H
#define AITAX_VERIFY_SCENARIO_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "core/tax_report.h"
#include "faults/injector.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "soc/energy.h"
#include "soc/fastrpc.h"

namespace aitax::app {
class BackgroundInferenceLoop;
} // namespace aitax::app

namespace aitax::verify {

/** One fully-specified verification experiment. */
struct Scenario
{
    std::string modelId = "mobilenet_v1";
    std::string socName = "Snapdragon 845";
    tensor::DType dtype = tensor::DType::Float32;
    app::FrameworkKind framework = app::FrameworkKind::TfliteCpu;
    app::HarnessMode mode = app::HarnessMode::AndroidApp;
    /** Pipeline iterations to schedule. */
    int runs = 10;
    /** Background inference processes contending for the DSP. */
    int dspLoadProcesses = 0;
    /** Background inference processes contending for the CPU. */
    int cpuLoadProcesses = 0;
    /** Streaming camera capture (depth-1 buffer) instead of on-demand. */
    bool streaming = false;
    /** CPU inference threads. Never sampled; the benches sweep it. */
    int threads = 4;
    /**
     * Enable the Section III-D driver instrumentation probe. Never
     * sampled; the probe-effect bench sets it.
     */
    bool instrumentation = false;
    /** Pre-processing fused on the DSP (PipelineConfig). Never sampled. */
    bool preprocessOnDsp = false;
    /** App-mode interference off (PipelineConfig). Never sampled. */
    bool suppressInterference = false;
    /** Contended memory fabric (SocConfig). Never sampled. */
    bool fabricContention = false;
    /** Tightly coupled DSP (SocConfig). Never sampled. */
    bool dspTightlyCoupled = false;
    /**
     * Arm the seeded fault injector (FaultConfig::fuzzDefaults()).
     * Never sampled — only `aitax_cli verify --faults` sets it, so the
     * plain fuzz corpus and the goldens are untouched.
     */
    bool faults = false;
    /** Root seed of the simulated system. */
    std::uint64_t seed = 1;

    /**
     * Filesystem-safe identifier (also the golden file stem). Fields
     * at their defaults add nothing, so stems predating a field keep
     * their bytes.
     */
    std::string label() const;

    /** One human-readable description line (same default rule). */
    std::string describe() const;
};

/**
 * True if the combination is runnable: the model must support the
 * requested format/framework (Table I support matrix), the SNPE path
 * has no transformer kernels, and there is at least one run.
 */
bool scenarioValid(const Scenario &s);

/**
 * Sample a random valid scenario (rejection sampling over the zoo,
 * the Table II chipsets, frameworks, harness modes and background
 * load levels).
 */
Scenario sampleScenario(sim::RandomStream &rng);

/**
 * The deterministic fuzz scenario @p index for @p master_seed.
 * fuzzScenario(s, i) is a pure function — the replay contract.
 */
Scenario fuzzScenario(std::uint64_t master_seed, int index);

/** The replay command for fuzz scenario @p index of @p master_seed. */
std::string replayCommand(std::uint64_t master_seed, int index);

/** Everything a scenario run produces that checks may need. */
struct ScenarioResult
{
    core::TaxReport report;
    std::vector<soc::FastRpcBreakdown> rpcLog;
    /**
     * Full chrome://tracing JSON of the run (determinism witness).
     * Empty when the run was requested ResultRequest::ReportOnly.
     */
    std::string chromeTraceJson;
    /** Simulated time at quiescence. */
    sim::TimeNs endTimeNs = 0;
    /**
     * Simulated time the last frame finished. App-mode interference
     * runs on after it, so it can precede endTimeNs.
     */
    sim::TimeNs framesDoneNs = 0;
    /** Total energy over the run. */
    double energyMj = 0.0;
    /** Energy per power domain, indexed like soc::kAllPowerDomains. */
    std::array<double, soc::kAllPowerDomains.size()> domainMj{};
    /** Thermal clock multiplier at the end of the run, in (0, 1]. */
    double thermalSpeedFactor = 1.0;
    /** Background inferences completed across all load processes. */
    std::int64_t backgroundInferences = 0;
    /** Streaming-capture consumption witnesses (empty when off). */
    std::vector<app::FrameConsume> frameLog;
    /** Fault-injection tallies (all zero when faults are unarmed). */
    faults::FaultStats faultStats;
    /** Simulation events executed — campaign throughput numerator. */
    std::uint64_t eventsExecuted = 0;
    /** Fast-engine front-cache hits (0 under Reference). */
    std::uint64_t frontCacheHits = 0;
};

/**
 * Whether a scenario may use the warm-up prefix snapshot cache, and if
 * not, why. Every CLI-benchmark run qualifies — including streaming
 * and background-load configurations: the warm-up prefix is quiet by
 * construction (background loops start only after the warm-up
 * completes, and streaming capture draws its arrival phase at
 * application construction, not during warm-up events), so the prefix
 * is a pure function of the cache key. The app-mode harnesses stay
 * ineligible because their interference interleaves with the warm-up.
 * Faulted runs stay eligible — the fault flag is part of the cache
 * key, and a snapshot is only applied when every emergency in the
 * run's own plan fires after the snapshot.
 */
enum class SnapshotUse
{
    Eligible,
    IneligibleMode, ///< harness mode schedules warm-up interference
};

SnapshotUse classifySnapshotUse(const Scenario &s);

/**
 * Canonical warm-up snapshot cache key (keying discipline of
 * models::cachedGraph): every scenario field that can influence the
 * post-warm-up state is in the key. The seed and run count are
 * deliberately absent — the warm-up prefix is seed-independent (only
 * the fixed-seed load-balance RNG draws before the first frame) and
 * run-count-independent (init work does not depend on n) — which is
 * exactly what makes the cache pay off across a fuzz corpus.
 */
std::string snapshotKey(const Scenario &s);

/**
 * What a caller will read of a ScenarioResult. The simulation is the
 * same either way — tracer recording, warm-up snapshots, witnesses,
 * meters and event counts are untouched — only the Chrome trace
 * serialization, the costliest part of result collection, is skipped.
 */
enum class ResultRequest
{
    Full,       ///< every field, including chromeTraceJson
    ReportOnly, ///< every field except chromeTraceJson, left empty
};

/** What ScenarioRun::warmUp() did with the warm-up prefix. */
enum class WarmupOutcome
{
    Restored,   ///< a cached snapshot stood in for it
    Executed,   ///< it ran as events (a snapshot miss, or no memo)
    WithFrames, ///< app mode: it interleaves with the frames, in runFrames()
};

/**
 * One scenario run as public steps, so a caller can time each layer
 * or act on the system between them. Call the steps once each, in
 * order (std::logic_error otherwise):
 *  - the constructor validates the scenario, takes scenarioArena()'s
 *    reset guard, builds the SocSystem and arms Scenario::faults;
 *  - buildApplication() builds the Application and the (not yet
 *    started) background loops;
 *  - warmUp() runs the warm-up — or, on the Fast engine for a
 *    snapshot-eligible scenario, restores it from the snapshot cache,
 *    publishing a capture on a miss;
 *  - runFrames() starts the loops, schedules the frames and runs the
 *    simulation to quiescence;
 *  - collect() copies the witnesses, meters and (Full) the trace out.
 * finish() runs whatever steps remain.
 *
 * CLI-benchmark runs use the split warm-up schedule on both engines
 * (warm-up, then background-loop start, then frames), which is
 * event-for-event identical to a single scheduleRuns()
 * (app/pipeline.h), so a restored run is byte-identical to a
 * Reference run. App-mode runs keep the single-shot schedule: their
 * interference interleaves with the warm-up by design.
 *
 * A snapshot is restored or captured only while the seq watermark and
 * the armed fault injector are the ones the constructor left: an event
 * scheduled or faults armed through system() make warmUp() execute.
 *
 * The destructor resets the thread's arena, so at most one
 * ScenarioRun may be live per thread, and @p s must outlive it.
 */
class ScenarioRun
{
  public:
    /**
     * Build the system. Throws std::invalid_argument, naming
     * s.describe(), when !scenarioValid(s).
     */
    ScenarioRun(const Scenario &s, sim::EngineMode engine);
    ~ScenarioRun();
    ScenarioRun(const ScenarioRun &) = delete;
    ScenarioRun &operator=(const ScenarioRun &) = delete;

    void buildApplication();
    WarmupOutcome warmUp();
    void runFrames();
    /**
     * The result. With @p request ReportOnly its chromeTraceJson is
     * empty and every other field equals the Full result's.
     */
    ScenarioResult collect(ResultRequest request);

    /** The remaining steps, then collect(@p request). */
    ScenarioResult finish(ResultRequest request);

    soc::SocSystem &system() { return sys_; }
    /** The application; built by buildApplication(). */
    app::Application &application();

  private:
    enum class Step
    {
        BuildApplication,
        WarmUp,
        RunFrames,
        Collect,
        Done,
    };

    const Scenario &s_;
    sim::EngineMode engine_;
    sim::ArenaResetGuard arenaGuard_;
    soc::SocSystem &sys_;
    /** Seq watermark after fault arming: the snapshot seq base. */
    std::uint64_t seqBase_;
    /** The injector the constructor armed (nullptr: none). */
    const faults::FaultInjector *armed_;
    app::Application *application_ = nullptr;
    std::vector<app::BackgroundInferenceLoop *> loops_;
    ScenarioResult out_;
    Step next_ = Step::BuildApplication;

    void enter(Step step);
};

/**
 * Execute one scenario: ScenarioRun(s, engine).finish(request). The
 * Reference engine is the heap-only loop with no memoization; Fast is
 * the skip-ahead engine with the snapshot cache. Both produce
 * byte-identical results. Throws std::invalid_argument for an invalid
 * scenario.
 */
ScenarioResult runScenario(const Scenario &s, sim::EngineMode engine,
                           ResultRequest request = ResultRequest::Full);

/** runScenario on the Fast engine, full result with the trace. */
ScenarioResult runScenario(const Scenario &s);

/**
 * The calling thread's scenario arena: ScenarioRun bump-allocates
 * all per-run state (SocSystem, Application, tasks, background loops,
 * the fault injector) from it and resets it as the run ends, so
 * back-to-back runs on one thread — sweep workers, the fuzz loop —
 * reuse a single coalesced block with zero heap traffic. Exposed for
 * the allocation-regression test and --stats reporting.
 */
sim::Arena &scenarioArena();

} // namespace aitax::verify

#endif // AITAX_VERIFY_SCENARIO_H
