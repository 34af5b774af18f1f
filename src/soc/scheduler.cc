#include "soc/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aitax::soc {

OsScheduler::OsScheduler(sim::Simulator &sim, const CpuClusterConfig &cfg,
                         ThermalModel &thermal, trace::Tracer &tracer,
                         EnergyMeter *energy, DvfsGovernor *dvfs,
                         MemoryFabric *fabric)
    : sim(sim), cfg(cfg), thermal(thermal), tracer(tracer),
      energy(energy), dvfs(dvfs), fabric(fabric),
      balanceRng(0xA17Au, "os-load-balance")
{
    assert(!cfg.cores.empty());
    cores.reserve(cfg.cores.size());
    for (const auto &core_cfg : cfg.cores) {
        cores.push_back(Core{core_cfg, nullptr, 0, 0, 0,
                             tracer.internTrack(core_cfg.name)});
    }
    migrationKind_ = tracer.internEventKind("migration");
    ctxSwitchKind_ = tracer.internEventKind("context_switch");
    axiCounter_ = tracer.internCounter("axi_bytes");
}

std::size_t
OsScheduler::runningCount() const
{
    std::size_t n = 0;
    for (const auto &c : cores)
        if (c.running)
            ++n;
    return n;
}

void
OsScheduler::submit(std::shared_ptr<Task> task)
{
    assert(task);
    assert(task->state() == TaskState::Created);
    makeReady(std::move(task));
}

void
OsScheduler::resumeBlocked(void *self, std::shared_ptr<Task> task)
{
    auto *sched = static_cast<OsScheduler *>(self);
    sched->sim.scheduleIn(0, [sched, task = std::move(task)]() mutable {
        sched->makeReady(std::move(task));
    });
}

void
OsScheduler::makeReady(std::shared_ptr<Task> task)
{
    if (task->state() == TaskState::Done)
        return;
    assert(task->state() != TaskState::Ready &&
           task->state() != TaskState::Running);
    task->setState(TaskState::Ready);
    runQueue.push_back(std::move(task));
    tryDispatch();
}

int
OsScheduler::pickCore(const Task &task) const
{
    // Foreground tasks take the fastest idle core (EAS-style up-
    // migration), background tasks the slowest; the previous core
    // breaks ties so hot caches are reused within a tier.
    int best = -1;
    double best_rate = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i].running)
            continue;
        const double rate =
            cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle;
        bool better;
        if (best < 0) {
            better = true;
        } else if (rate != best_rate) {
            better = task.isBackground() ? rate < best_rate
                                         : rate > best_rate;
        } else {
            better = static_cast<int>(i) == task.lastCore();
        }
        if (better) {
            best = static_cast<int>(i);
            best_rate = rate;
        }
    }
    return best;
}

void
OsScheduler::tryDispatch()
{
    while (!runQueue.empty()) {
        const int core_idx = pickCore(*runQueue.front());
        if (core_idx < 0)
            return;
        auto task = std::move(runQueue.front());
        runQueue.pop_front();
        dispatch(core_idx, std::move(task));
    }
}

void
OsScheduler::dispatch(int core_idx, std::shared_ptr<Task> task)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(!core.running);
    const bool migrated =
        task->lastCore() >= 0 && task->lastCore() != core_idx;
    if (migrated) {
        ++migrations_;
        if (tracer.isEnabled())
            tracer.recordEvent(migrationKind_, task->traceLabel(tracer),
                               sim.now());
    }
    task->setLastCore(core_idx);
    task->setState(TaskState::Running);
    core.running = std::move(task);
    core.runStart = sim.now();
    if (dvfs)
        dvfs->onBusyChange(core.cfg.big, +1);
    if (fabric)
        fabric->onClientChange(+1);

    const sim::DurationNs overhead =
        cfg.contextSwitchNs + (migrated ? cfg.migrationNs : 0);
    core.sliceEnd = sim.now() + overhead + cfg.timeSliceNs;
    core.pendingEvent =
        sim.scheduleIn(overhead, [this, core_idx] { runFront(core_idx); });
}

std::shared_ptr<Task>
OsScheduler::leaveCore(int core_idx)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);
    if (tracer.isEnabled())
        tracer.recordInterval(core.track,
                              core.running->traceLabel(tracer),
                              core.runStart, sim.now());
    core.pendingEvent = 0;
    if (dvfs)
        dvfs->onBusyChange(core.cfg.big, -1);
    if (fabric)
        fabric->onClientChange(-1);
    return std::exchange(core.running, nullptr);
}

void
OsScheduler::runFront(int core_idx)
{
    // The core slot owns the task while it runs; markers cannot take
    // it off this core, so the reference stays valid until leaveCore.
    Task &task = *cores[static_cast<std::size_t>(core_idx)].running;

    while (true) {
        if (!task.hasSteps()) {
            // The returned owner keeps the task alive through finish().
            const auto owner = leaveCore(core_idx);
            task.finish(sim.now());
            tryDispatch();
            return;
        }

        TaskStep &step = task.frontStep();

        if (auto *marker = std::get_if<MarkerStep>(&step)) {
            auto fn = std::move(marker->fn);
            task.popStep();
            if (fn)
                fn(sim.now());
            continue;
        }

        if (auto *sleep = std::get_if<SleepStep>(&step)) {
            const sim::DurationNs duration = sleep->duration;
            task.popStep();
            task.setState(TaskState::Blocked);
            // The pending wake-up event owns the task while it sleeps.
            sim.scheduleIn(duration,
                           [this, owner = leaveCore(core_idx)]() mutable {
                               makeReady(std::move(owner));
                           });
            tryDispatch();
            return;
        }

        if (auto *blocked = std::get_if<BlockStep>(&step)) {
            auto start = std::move(blocked->start);
            task.popStep();
            task.setState(TaskState::Blocked);
            // The resume token owns the task while it is blocked and
            // re-enters the scheduler via a fresh event (resumeBlocked)
            // so a synchronous resume inside start() cannot re-enter us.
            start(task, BlockResume(&OsScheduler::resumeBlocked, this,
                                    leaveCore(core_idx)));
            tryDispatch();
            return;
        }

        startCompute(core_idx, std::get<ComputeStep>(step));
        return;
    }
}

sim::DurationNs
OsScheduler::computeDuration(const Core &core,
                             const ComputeStep &step) const
{
    double factor = const_cast<ThermalModel &>(thermal).speedFactor();
    if (dvfs)
        factor *= const_cast<DvfsGovernor *>(dvfs)->factor(core.cfg.big);
    const double ops_rate = core.cfg.freqGhz * 1e9 *
                            core.cfg.opsPerCycle(step.cls) * factor;
    double byte_rate = core.cfg.memBytesPerSec * factor;
    if (fabric)
        byte_rate *= fabric->derateFactor();
    const double ops = step.work.flops * step.remaining;
    const double bytes = step.work.bytes * step.remaining;
    const double sec =
        std::max(ops / ops_rate, bytes / byte_rate);
    const auto ns = static_cast<sim::DurationNs>(std::ceil(sec * 1e9));
    return std::max<sim::DurationNs>(ns, 1);
}

void
OsScheduler::startCompute(int core_idx, ComputeStep &step)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);

    const sim::DurationNs duration = computeDuration(core, step);
    const sim::DurationNs slice_rem =
        std::max<sim::DurationNs>(core.sliceEnd - sim.now(), 0);

    if (duration <= slice_rem) {
        // Step completes within the slice.
        core.pendingEvent = sim.scheduleIn(duration, [this, core_idx,
                                                      duration] {
            finishComputeSlice(core_idx, sim.now() - duration, duration);
            Core &c = cores[static_cast<std::size_t>(core_idx)];
            auto &st = std::get<ComputeStep>(c.running->frontStep());
            st.remaining = 0.0;
            c.running->popStep();
            runFront(core_idx);
        });
        return;
    }

    // Slice expires first.
    core.pendingEvent = sim.scheduleIn(slice_rem, [this, core_idx,
                                                   duration, slice_rem] {
        finishComputeSlice(core_idx, sim.now() - slice_rem, slice_rem);
        Core &c = cores[static_cast<std::size_t>(core_idx)];
        Task &task = *c.running;
        auto &st = std::get<ComputeStep>(task.frontStep());
        const double frac =
            static_cast<double>(slice_rem) / static_cast<double>(duration);
        st.remaining *= std::max(0.0, 1.0 - frac);

        if (runQueue.empty()) {
            const int dest = balanceTarget(core_idx, task);
            if (dest >= 0) {
                task.setState(TaskState::Ready);
                dispatch(dest, leaveCore(core_idx));
                return;
            }
            // Nothing else to run: renew the slice in place, free of
            // context-switch cost.
            c.sliceEnd = sim.now() + cfg.timeSliceNs;
            startCompute(core_idx, st);
            return;
        }
        ++ctxSwitches;
        if (tracer.isEnabled())
            tracer.recordEvent(ctxSwitchKind_,
                               task.traceLabel(tracer), sim.now());
        task.setState(TaskState::Ready);
        runQueue.push_back(leaveCore(core_idx));
        tryDispatch();
    });
}

void
OsScheduler::finishComputeSlice(int core_idx, sim::TimeNs started,
                                sim::DurationNs full_duration)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);
    (void)started;

    const auto &st = std::get<ComputeStep>(core.running->frontStep());
    // Portion of the step's total byte traffic this slice covered.
    const sim::DurationNs total = computeDuration(core, st);
    const double frac_of_remaining =
        total > 0 ? std::min(1.0, static_cast<double>(full_duration) /
                                      static_cast<double>(total))
                  : 1.0;
    const double bytes = st.work.bytes * st.remaining * frac_of_remaining;
    if (bytes > 0)
        tracer.recordCounter(axiCounter_, sim.now(), bytes);

    if (energy) {
        const PowerDomain domain = core.cfg.big
                                       ? PowerDomain::BigCpu
                                       : PowerDomain::LittleCpu;
        energy->addDynamic(domain, st.work.flops * st.remaining *
                                       frac_of_remaining);
        energy->addStatic(domain, full_duration);
    }

    const double busy_sec =
        static_cast<double>(full_duration) / sim::kNsPerSec;
    thermal.addHeat(busy_sec * (core.cfg.big ? 1.0 : 0.4));
}


int
OsScheduler::balanceTarget(int core_idx, const Task &task)
{
    const Core &core = cores[static_cast<std::size_t>(core_idx)];
    const double my_rate = core.cfg.freqGhz * core.cfg.f32OpsPerCycle;

    // EAS-style up-migration: a foreground task displaced to a slow
    // core moves as soon as a faster core goes idle.
    if (!task.isBackground()) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (!cores[i].running &&
                cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle >
                    my_rate) {
                return static_cast<int>(i);
            }
        }
    }

    // Kernel load balancing occasionally bounces a lone task between
    // idle cores of the same tier (Fig 6's migration churn).
    if (cfg.loadBalanceProb > 0.0 &&
        balanceRng.bernoulli(cfg.loadBalanceProb)) {
        std::vector<int> candidates;
        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (static_cast<int>(i) == core_idx || cores[i].running)
                continue;
            if (cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle ==
                my_rate) {
                candidates.push_back(static_cast<int>(i));
            }
        }
        if (!candidates.empty()) {
            const auto pick = balanceRng.uniformInt(
                0, static_cast<std::int64_t>(candidates.size()) - 1);
            return candidates[static_cast<std::size_t>(pick)];
        }
    }
    return -1;
}

OsScheduler::WarmupState
OsScheduler::warmupState() const
{
    assert(idle());
    WarmupState s;
    s.balanceRng = balanceRng.state();
    s.ctxSwitches = ctxSwitches;
    s.migrations = migrations_;
    s.coreTimes.reserve(cores.size());
    for (const Core &c : cores)
        s.coreTimes.emplace_back(c.runStart, c.sliceEnd);
    return s;
}

void
OsScheduler::setWarmupState(const WarmupState &s)
{
    assert(idle());
    assert(s.coreTimes.size() == cores.size());
    balanceRng.setState(s.balanceRng);
    ctxSwitches = s.ctxSwitches;
    migrations_ = s.migrations;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        // pendingEvent is pure bookkeeping (nothing ever cancels
        // through it) and an idle core has no live slice event, so the
        // restored core starts with none.
        cores[i].pendingEvent = 0;
        cores[i].runStart = s.coreTimes[i].first;
        cores[i].sliceEnd = s.coreTimes[i].second;
    }
}

} // namespace aitax::soc
