#include "verify/scenario.h"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/background_load.h"
#include "soc/chipsets.h"
#include "sweep/snapshot_cache.h"
#include "trace/chrome_trace.h"

namespace aitax::verify {

namespace {

/** "Snapdragon 845" -> "sd845" (filesystem-safe platform tag). */
std::string
socTag(const std::string &soc_name)
{
    std::string digits;
    for (char c : soc_name)
        if (c >= '0' && c <= '9')
            digits += c;
    return digits.empty() ? std::string("soc") : "sd" + digits;
}

} // namespace

std::string
Scenario::label() const
{
    std::ostringstream os;
    os << modelId << "_" << socTag(socName) << "_"
       << tensor::dtypeName(dtype) << "_" << app::frameworkName(framework)
       << "_" << app::harnessModeName(mode) << "_r" << runs;
    if (dspLoadProcesses > 0)
        os << "_dsp" << dspLoadProcesses;
    if (cpuLoadProcesses > 0)
        os << "_cpu" << cpuLoadProcesses;
    if (streaming)
        os << "_stream";
    if (faults)
        os << "_flt";
    if (threads != 4)
        os << "_t" << threads;
    if (instrumentation)
        os << "_instr";
    if (preprocessOnDsp)
        os << "_predsp";
    if (suppressInterference)
        os << "_quiet";
    if (fabricContention)
        os << "_axi";
    if (dspTightlyCoupled)
        os << "_tight";
    os << "_s" << seed;
    std::string out = os.str();
    for (char &c : out)
        if (c == '-')
            c = '_';
    return out;
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << modelId << " on " << socName << ", "
       << tensor::dtypeName(dtype) << "/" << app::frameworkName(framework)
       << ", mode=" << app::harnessModeName(mode) << ", runs=" << runs
       << ", bg(dsp=" << dspLoadProcesses << ",cpu=" << cpuLoadProcesses
       << ")";
    if (streaming)
        os << ", streaming";
    if (faults)
        os << ", faults";
    if (threads != 4)
        os << ", threads=" << threads;
    if (instrumentation)
        os << ", instrumentation";
    if (preprocessOnDsp)
        os << ", preprocess on DSP";
    if (suppressInterference)
        os << ", interference suppressed";
    if (fabricContention)
        os << ", fabric contention";
    if (dspTightlyCoupled)
        os << ", tightly coupled DSP";
    os << ", seed=" << seed;
    return os.str();
}

bool
scenarioValid(const Scenario &s)
{
    const auto *m = models::findModel(s.modelId);
    if (m == nullptr || s.runs <= 0)
        return false;
    if (tensor::isQuantized(s.dtype) && !m->cpuInt8)
        return false;
    if (s.framework == app::FrameworkKind::TfliteNnapi &&
        !m->supports(true, s.dtype))
        return false;
    // SNPE has no transformer kernels.
    if (s.framework == app::FrameworkKind::SnpeDsp &&
        m->task == models::Task::LanguageProcessing)
        return false;
    // The Hexagon delegate only ingests quantized graphs.
    if (s.framework == app::FrameworkKind::TfliteHexagon &&
        !tensor::isQuantized(s.dtype))
        return false;
    return true;
}

Scenario
sampleScenario(sim::RandomStream &rng)
{
    static const app::FrameworkKind kFrameworks[] = {
        app::FrameworkKind::TfliteCpu,     app::FrameworkKind::TfliteGpu,
        app::FrameworkKind::TfliteHexagon, app::FrameworkKind::TfliteNnapi,
        app::FrameworkKind::SnpeDsp,
    };
    static const app::HarnessMode kModes[] = {
        app::HarnessMode::CliBenchmark,
        app::HarnessMode::BenchmarkApp,
        app::HarnessMode::AndroidApp,
    };

    const auto &zoo = models::allModels();
    const auto platforms = soc::allPlatforms();

    for (;;) {
        Scenario s;
        s.modelId = zoo[static_cast<std::size_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(zoo.size()) - 1))]
                        .id;
        s.socName =
            platforms[static_cast<std::size_t>(rng.uniformInt(
                          0,
                          static_cast<std::int64_t>(platforms.size()) - 1))]
                .socName;
        s.dtype = rng.bernoulli(0.5) ? tensor::DType::Float32
                                     : tensor::DType::UInt8;
        s.framework = kFrameworks[rng.uniformInt(0, 4)];
        s.mode = kModes[rng.uniformInt(0, 2)];
        s.runs = static_cast<int>(rng.uniformInt(4, 12));
        s.dspLoadProcesses = static_cast<int>(rng.uniformInt(0, 2));
        s.cpuLoadProcesses = static_cast<int>(rng.uniformInt(0, 2));
        s.streaming = rng.bernoulli(0.25);
        s.seed = rng.nextU64() >> 1;
        if (scenarioValid(s))
            return s;
    }
}

Scenario
fuzzScenario(std::uint64_t master_seed, int index)
{
    sim::RandomStream rng(master_seed,
                          "verify-fuzz-" + std::to_string(index));
    return sampleScenario(rng);
}

std::string
replayCommand(std::uint64_t master_seed, int index)
{
    std::ostringstream os;
    os << "aitax_cli verify --seed " << master_seed << " --replay "
       << index;
    return os.str();
}

SnapshotUse
classifySnapshotUse(const Scenario &s)
{
    // Streaming and background-load runs are deliberately NOT excluded:
    // their warm-up prefix is identical to the quiet one (loops start
    // post-warm-up, stream phase is drawn at construction), and the key
    // still separates them so unlike configurations never share an
    // entry.
    if (s.mode != app::HarnessMode::CliBenchmark)
        return SnapshotUse::IneligibleMode;
    return SnapshotUse::Eligible;
}

std::string
snapshotKey(const Scenario &s)
{
    std::ostringstream os;
    os << "warmup-v2|soc=" << s.socName << "|model=" << s.modelId
       << "|dtype=" << tensor::dtypeName(s.dtype)
       << "|fw=" << app::frameworkName(s.framework)
       << "|mode=" << app::harnessModeName(s.mode)
       << "|stream=" << (s.streaming ? 1 : 0)
       << "|dspload=" << s.dspLoadProcesses
       << "|cpuload=" << s.cpuLoadProcesses
       << "|faults=" << (s.faults ? 1 : 0) << "|threads=" << s.threads
       << "|instr=" << (s.instrumentation ? 1 : 0)
       << "|predsp=" << (s.preprocessOnDsp ? 1 : 0)
       << "|quiet=" << (s.suppressInterference ? 1 : 0)
       << "|axi=" << (s.fabricContention ? 1 : 0)
       << "|tight=" << (s.dspTightlyCoupled ? 1 : 0);
    return os.str();
}

sim::Arena &
scenarioArena()
{
    static thread_local sim::Arena arena;
    return arena;
}

namespace {

app::PipelineConfig
pipelineConfigFor(const Scenario &s)
{
    app::PipelineConfig cfg;
    cfg.model = models::findModel(s.modelId);
    cfg.dtype = s.dtype;
    cfg.framework = s.framework;
    cfg.mode = s.mode;
    cfg.threads = s.threads;
    cfg.instrumentationEnabled = s.instrumentation;
    cfg.streamingCapture = s.streaming;
    cfg.preprocessOnDsp = s.preprocessOnDsp;
    cfg.suppressInterference = s.suppressInterference;
    return cfg;
}

soc::SocConfig
socConfigFor(const Scenario &s)
{
    soc::SocConfig cfg = soc::platformByName(s.socName);
    cfg.fabric.contentionEnabled = s.fabricContention;
    cfg.dsp.tightlyCoupled = s.dspTightlyCoupled;
    return cfg;
}

/**
 * Arena-construct the scenario's background inference loops (not
 * started — the caller decides when, which is what keeps the warm-up
 * prefix load-independent). Construction is inert: no RNG draws, no
 * event scheduling, so building them before the warm-up changes
 * nothing observable.
 */
std::vector<app::BackgroundInferenceLoop *>
buildLoops(sim::Arena &arena, soc::SocSystem &sys, const Scenario &s)
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

/**
 * True when @p snap can stand in for this system's own warm-up: every
 * thermal emergency in the armed plan must fire strictly after the
 * snapshot time, otherwise the emergency would have altered (or
 * interleaved with) the warm-up this run is about to skip.
 */
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

/**
 * Arm the scenario's faults, if any, and return the seq watermark
 * right after it: the base that snapshot seqs are stored (and
 * restored) relative to. Arming precedes every component that forks
 * the system RNG, so the fault schedule is a pure function of
 * (platform, seed).
 */
std::uint64_t
armFaultsForSnapshot(soc::SocSystem &sys, const Scenario &s)
{
    if (s.faults)
        sys.armFaults(faults::FaultConfig::fuzzDefaults());
    return sys.simulator().seqWatermark();
}

/** @p s itself, or std::invalid_argument naming it. */
const Scenario &
checkedScenario(const Scenario &s)
{
    if (!scenarioValid(s))
        throw std::invalid_argument("invalid scenario: " + s.describe());
    return s;
}

} // namespace

ScenarioRun::ScenarioRun(const Scenario &s, sim::EngineMode engine)
    : s_(checkedScenario(s)), engine_(engine),
      arenaGuard_(scenarioArena()),
      sys_(*scenarioArena().create<soc::SocSystem>(
          socConfigFor(s), s.seed, engine,
          &scenarioArena())),
      seqBase_(armFaultsForSnapshot(sys_, s)), armed_(sys_.faults())
{
}

// The arena guard resets the arena, running the finalizers of the
// system, application and loops; collect()'s result holds no pointers
// into it.
ScenarioRun::~ScenarioRun() = default;

void
ScenarioRun::enter(Step step)
{
    if (step != next_)
        throw std::logic_error("ScenarioRun steps run once each, in order");
    next_ = static_cast<Step>(static_cast<int>(step) + 1);
}

app::Application &
ScenarioRun::application()
{
    if (application_ == nullptr)
        throw std::logic_error("ScenarioRun::application() before "
                               "buildApplication()");
    return *application_;
}

void
ScenarioRun::buildApplication()
{
    enter(Step::BuildApplication);
    application_ = scenarioArena().create<app::Application>(
        sys_, pipelineConfigFor(s_));
    loops_ = buildLoops(scenarioArena(), sys_, s_);
}

/**
 * The warm-up prefix. On the Fast engine a snapshot-eligible scenario
 * restores a cached post-warm-up state when one exists and fits this
 * run's fault plan; otherwise the warm-up executes, and a miss
 * publishes its capture. Reuse or capture failing only ever falls back
 * to executing the warm-up, never to a different result.
 */
WarmupOutcome
ScenarioRun::warmUp()
{
    enter(Step::WarmUp);
    if (s_.mode != app::HarnessMode::CliBenchmark)
        return WarmupOutcome::WithFrames;
    // An event scheduled, or faults armed, through system() since the
    // constructor is not in the snapshot key.
    const bool untouched = sys_.simulator().seqWatermark() == seqBase_ &&
                           sys_.faults() == armed_;
    const bool memo = untouched && engine_ == sim::EngineMode::Fast &&
                      classifySnapshotUse(s_) == SnapshotUse::Eligible;
    std::string key;
    std::shared_ptr<const soc::WarmupSnapshot> cached;
    if (memo) {
        key = snapshotKey(s_);
        cached = std::static_pointer_cast<const soc::WarmupSnapshot>(
            sweep::snapshotCacheLookup(key));
    }
    if (cached && snapshotUsable(sys_.faults(), *cached)) {
        sys_.restoreWarmup(*cached);
        application_->adoptRestoredWarmup();
        return WarmupOutcome::Restored;
    }
    application_->scheduleWarmup(s_.runs, out_.report);
    sys_.simulator().runUntilCondition(
        [this] { return application_->warmupComplete(); });
    if (memo && !cached) {
        auto snap = std::make_shared<soc::WarmupSnapshot>();
        if (sys_.captureWarmup(*snap, seqBase_))
            sweep::snapshotCacheStore(key, std::move(snap));
    }
    return WarmupOutcome::Executed;
}

void
ScenarioRun::runFrames()
{
    enter(Step::RunFrames);
    auto frames_done = [this](sim::TimeNs t) {
        out_.framesDoneNs = t;
        for (auto *loop : loops_)
            loop->stop();
    };
    if (s_.mode == app::HarnessMode::CliBenchmark) {
        for (auto *loop : loops_)
            loop->start(sys_.simulator().now() + sim::secToNs(60.0));
        application_->scheduleFramesAfterWarmup(s_.runs, out_.report,
                                                frames_done);
    } else {
        for (auto *loop : loops_)
            loop->start(sim::secToNs(60.0));
        application_->scheduleRuns(s_.runs, out_.report, frames_done);
    }
    out_.endTimeNs = sys_.run();
}

/**
 * Everything after quiescence: witnesses, meters and, for a Full
 * request, the trace.
 */
ScenarioResult
ScenarioRun::collect(ResultRequest request)
{
    enter(Step::Collect);
    out_.rpcLog = application_->rpcLog();
    out_.frameLog = application_->frameLog();
    if (sys_.faults() != nullptr)
        out_.faultStats = sys_.faults()->stats();
    out_.energyMj = sys_.energy().totalMj();
    for (std::size_t i = 0; i < soc::kAllPowerDomains.size(); ++i)
        out_.domainMj[i] = sys_.energy().domainMj(soc::kAllPowerDomains[i]);
    out_.thermalSpeedFactor = sys_.thermal().speedFactor();
    out_.eventsExecuted = sys_.simulator().eventsExecuted();
    out_.frontCacheHits = sys_.simulator().frontCacheHits();
    for (const auto *loop : loops_)
        out_.backgroundInferences += loop->completedInferences();
    if (request == ResultRequest::Full)
        out_.chromeTraceJson = trace::chromeTraceString(sys_.tracer());
    return std::move(out_);
}

ScenarioResult
ScenarioRun::finish(ResultRequest request)
{
    if (next_ == Step::BuildApplication)
        buildApplication();
    if (next_ == Step::WarmUp)
        warmUp();
    if (next_ == Step::RunFrames)
        runFrames();
    return collect(request);
}

ScenarioResult
runScenario(const Scenario &s, sim::EngineMode engine,
            ResultRequest request)
{
    return ScenarioRun(s, engine).finish(request);
}

ScenarioResult
runScenario(const Scenario &s)
{
    return runScenario(s, sim::EngineMode::Fast);
}

} // namespace aitax::verify
